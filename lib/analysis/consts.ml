type value =
  | Bot
  | Int of int
  | Code of string
  | Table_base of int
  | Table_slot of int
  | Table_entry of int
  | Top

let pp_value ppf = function
  | Bot -> Format.pp_print_string ppf "⊥"
  | Int v -> Format.fprintf ppf "%d" v
  | Code g -> Format.fprintf ppf "&%s" g
  | Table_base t -> Format.fprintf ppf "&table%d" t
  | Table_slot t -> Format.fprintf ppf "&table%d+?" t
  | Table_entry t -> Format.fprintf ppf "table%d[?]" t
  | Top -> Format.pp_print_string ppf "⊤"

let equal_value a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Int x, Int y -> x = y
  | Code f, Code g -> String.equal f g
  | Table_base s, Table_base t
  | Table_slot s, Table_slot t
  | Table_entry s, Table_entry t ->
    s = t
  | (Bot | Int _ | Code _ | Table_base _ | Table_slot _ | Table_entry _ | Top), _
    ->
    false

let join_value a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Table_base s, Table_slot t | Table_slot s, Table_base t when s = t ->
    Table_slot s
  | _ -> if equal_value a b then a else Top

(* Table addressing: adding any offset to a table address is assumed to stay
   within the table — exactly what the analysable-dispatch annotation
   ([Jump_indirect { table = Some _ }]) asserts about the index
   computation. *)
let add_value a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Int x, Int y -> Int (Word.of_int (x + y))
  | (Table_base t | Table_slot t), _ | _, (Table_base t | Table_slot t) ->
    Table_slot t
  | _ -> Top

let sub_value a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Int x, Int y -> Int (Word.of_int (x - y))
  | _ -> Top

(* --- register environments ----------------------------------------- *)

type env = value array (* indexed by register number *)

let get (env : env) r = if r = Reg.zero then Int 0 else env.(r)

let set (env : env) r v = if r <> Reg.zero then env.(r) <- v

let kill_regset (env : env) defs =
  List.iter (fun r -> set env r Top) (Cfg.Regset.elements defs)

let transfer_item (env : env) (item : Prog.item) =
  match item with
  | Prog.Load_addr (r, Prog.Func_addr g) -> set env r (Code g)
  | Prog.Load_addr (r, Prog.Table_addr tid) -> set env r (Table_base tid)
  | Prog.Instr ins -> (
    match ins with
    | Instr.Lda { ra; rb; disp } -> set env ra (add_value (get env rb) (Int disp))
    | Instr.Ldah { ra; rb; disp } ->
      set env ra (add_value (get env rb) (Int (disp lsl 16)))
    | Instr.Opr { op; ra; rb; rc } -> (
      let b = match rb with Instr.Reg r -> get env r | Instr.Imm i -> Int i in
      match op with
      | Instr.Add -> set env rc (add_value (get env ra) b)
      | Instr.Sub -> set env rc (sub_value (get env ra) b)
      | Instr.Mul | Instr.Div | Instr.Rem | Instr.And | Instr.Or | Instr.Xor
      | Instr.Sll | Instr.Srl | Instr.Sra | Instr.Cmpeq | Instr.Cmpne
      | Instr.Cmplt | Instr.Cmple | Instr.Cmpult | Instr.Cmpule ->
        set env rc Top)
    | Instr.Mem { op = Instr.Ldw; ra; rb; _ } -> (
      match get env rb with
      | Table_base t | Table_slot t -> set env ra (Table_entry t)
      | Bot | Int _ | Code _ | Table_entry _ | Top -> set env ra Top)
    | _ ->
      let defs, _ = Cfg.item_defs_uses item in
      kill_regset env defs)

let transfer_term (env : env) (t : Prog.term) =
  let defs, _ = Cfg.term_defs_uses t in
  kill_regset env defs

(* --- the dataflow client -------------------------------------------- *)

module Env_lattice = struct
  type t = env option
  (* [None] is bottom (block unreached); [Some env] a per-register map. *)

  let bottom = None

  let join a b =
    match (a, b) with
    | None, v | v, None -> v
    | Some x, Some y -> Some (Array.init (Array.length x) (fun i -> join_value x.(i) y.(i)))

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Array.for_all2 equal_value x y
    | None, Some _ | Some _, None -> false
end

module Solver = Dataflow.Make (Env_lattice)

type t = { func : Prog.Func.t; before : env option array }

let analyze (f : Prog.Func.t) =
  let transfer i fact =
    match fact with
    | None -> None
    | Some env ->
      let env = Array.copy env in
      List.iter (transfer_item env) f.blocks.(i).Prog.Block.items;
      transfer_term env f.blocks.(i).Prog.Block.term;
      Some env
  in
  (* Nothing is known at function entry: arguments, saved registers and
     memory contents are arbitrary. *)
  let init = Some (Array.make Reg.count Top) in
  let r = Solver.solve ~direction:Dataflow.Forward ~init ~transfer f in
  { func = f; before = r.Solver.before }

let unreached = Array.make Reg.count Bot

let entry_env t i =
  match t.before.(i) with
  | Some env -> Array.copy env
  | None -> Array.copy unreached

let term_env t i =
  let env = entry_env t i in
  List.iter (transfer_item env) t.func.Prog.Func.blocks.(i).Prog.Block.items;
  env

let call_target t i =
  match t.func.Prog.Func.blocks.(i).Prog.Block.term with
  | Prog.Call_indirect { rb; _ } -> (
    match get (term_env t i) rb with Code g -> `Exact g | _ -> `Unknown)
  | _ -> `Unknown

let jump_table t i =
  match t.func.Prog.Func.blocks.(i).Prog.Block.term with
  | Prog.Jump_indirect { rb; table = None } -> (
    match get (term_env t i) rb with
    | Table_entry tid when tid >= 0 && tid < Array.length t.func.Prog.Func.tables
      ->
      Some tid
    | _ -> None)
  | _ -> None

(* --- whole-program consumers ---------------------------------------- *)

let address_taken (p : Prog.t) =
  let taken = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Array.iter
        (fun (b : Prog.Block.t) ->
          List.iter
            (function
              | Prog.Load_addr (_, Prog.Func_addr g) -> Hashtbl.replace taken g ()
              | Prog.Load_addr (_, Prog.Table_addr _) | Prog.Instr _ -> ())
            b.items)
        f.blocks)
    p.funcs;
  Hashtbl.fold (fun g () acc -> g :: acc) taken [] |> List.sort String.compare

type call_site = {
  caller : string;
  block : int;
  resolution : [ `Exact of string | `Fallback of string list ];
}

let indirect_call_sites (p : Prog.t) =
  let taken = address_taken p in
  let defined = Hashtbl.create 64 in
  List.iter (fun (f : Prog.Func.t) -> Hashtbl.replace defined f.name ()) p.funcs;
  List.concat_map
    (fun (f : Prog.Func.t) ->
      let facts = lazy (analyze f) in
      Array.to_list f.blocks
      |> List.mapi (fun i (b : Prog.Block.t) -> (i, b))
      |> List.filter_map (fun (i, (b : Prog.Block.t)) ->
             match b.term with
             | Prog.Call_indirect _ ->
               let resolution =
                 match call_target (Lazy.force facts) i with
                 | `Exact g when Hashtbl.mem defined g -> `Exact g
                 | `Exact _ | `Unknown -> `Fallback taken
               in
               Some { caller = f.name; block = i; resolution }
             | _ -> None))
    p.funcs

let resolve_tables (p : Prog.t) =
  let resolved = ref [] in
  let funcs =
    List.map
      (fun (f : Prog.Func.t) ->
        let needs =
          Array.exists
            (fun (b : Prog.Block.t) ->
              match b.term with
              | Prog.Jump_indirect { table = None; _ } -> true
              | _ -> false)
            f.blocks
        in
        if not needs then f
        else begin
          let facts = analyze f in
          let blocks =
            Array.mapi
              (fun i (b : Prog.Block.t) ->
                match b.term with
                | Prog.Jump_indirect { rb; table = None } -> (
                  match jump_table facts i with
                  | Some tid ->
                    resolved := (f.name, i) :: !resolved;
                    { b with Prog.Block.term = Prog.Jump_indirect { rb; table = Some tid } }
                  | None -> b)
                | _ -> b)
              f.blocks
          in
          { f with Prog.Func.blocks }
        end)
      p.funcs
  in
  ({ p with Prog.funcs }, List.rev !resolved)

let annotate_callgraph (p : Prog.t) (cg : Cfg.Callgraph.t) =
  let by_caller = Hashtbl.create 16 in
  List.iter
    (fun site ->
      let targets =
        match site.resolution with `Exact g -> [ g ] | `Fallback gs -> gs
      in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_caller site.caller) in
      Hashtbl.replace by_caller site.caller (targets @ prev))
    (indirect_call_sites p);
  Hashtbl.iter
    (fun caller targets ->
      Cfg.Callgraph.set_indirect_callees cg caller
        (List.sort_uniq String.compare targets))
    by_caller
