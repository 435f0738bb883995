type sym = Func_addr of string | Table_addr of int
type item = Instr of Instr.t | Load_addr of Reg.t * sym
type dest = int

type term =
  | Fallthrough of dest
  | Jump of dest
  | Branch of Instr.cond * Reg.t * dest * dest
  | Call of { ra : Reg.t; callee : string; return_to : dest }
  | Call_indirect of { ra : Reg.t; rb : Reg.t; return_to : dest }
  | Jump_indirect of { rb : Reg.t; table : int option }
  | Return of { rb : Reg.t }
  | No_return

let item_size = function Instr _ -> 1 | Load_addr _ -> 2

let term_size ~next = function
  | Fallthrough d -> if next = Some d then 0 else 1
  | Jump _ -> 1
  | Branch (_, _, _, fall) -> if next = Some fall then 1 else 2
  | Call _ -> 1
  | Call_indirect _ -> 1
  | Jump_indirect _ -> 1
  | Return _ -> 1
  | No_return -> 0

module Block = struct
  type t = { items : item list; term : term }

  let size ~next b =
    List.fold_left (fun acc it -> acc + item_size it) 0 b.items
    + term_size ~next b.term

  let instr_count b =
    let next =
      match b.term with
      | Fallthrough d | Branch (_, _, _, d) -> Some d
      | Jump _ | Call _ | Call_indirect _ | Jump_indirect _ | Return _ | No_return ->
        None
    in
    size ~next b
end

module Func = struct
  type t = { name : string; blocks : Block.t array; tables : dest array array }

  let table_words f = Array.fold_left (fun acc t -> acc + Array.length t) 0 f.tables
end

type t = {
  funcs : Func.t list;
  entry : string;
  data_words : int;
  data_init : (int * Word.t) list;
}

let find_func t name = List.find_opt (fun (f : Func.t) -> f.name = name) t.funcs
let func_names t = List.map (fun (f : Func.t) -> f.name) t.funcs

let func_instr_count (f : Func.t) =
  let n = Array.length f.blocks in
  let total = ref 0 in
  Array.iteri
    (fun i b ->
      let next = if i + 1 < n then Some (i + 1) else None in
      total := !total + Block.size ~next b)
    f.blocks;
  !total

let instr_count t = List.fold_left (fun acc f -> acc + func_instr_count f) 0 t.funcs

let text_words t =
  List.fold_left (fun acc f -> acc + func_instr_count f + Func.table_words f) 0 t.funcs

let successors (f : Func.t) i =
  let b = f.blocks.(i) in
  match b.term with
  | Fallthrough d | Jump d -> [ d ]
  | Branch (_, _, taken, fall) -> if taken = fall then [ taken ] else [ taken; fall ]
  | Call { return_to; _ } | Call_indirect { return_to; _ } -> [ return_to ]
  | Jump_indirect { table = Some tid; _ } ->
    List.sort_uniq Int.compare (Array.to_list f.tables.(tid))
  | Jump_indirect { table = None; _ } -> List.init (Array.length f.blocks) Fun.id
  | Return _ | No_return -> []

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if find_func t t.entry = None then err "entry function %s undefined" t.entry;
  let rec dups = function
    | a :: b :: rest when a = b ->
      err "duplicate function %s" a;
      dups (List.filter (fun n -> n <> a) rest)
    | _ :: rest -> dups rest
    | [] -> ()
  in
  dups (List.sort String.compare (func_names t));
  let check_func (f : Func.t) =
    let n = Array.length f.blocks in
    if n = 0 then err "%s: function has no blocks" f.name;
    let check_dest i what d =
      if d < 0 || d >= n then
        err "%s/block %d: %s targets block %d of %d" f.name i what d n
    in
    let check_table i what tid =
      if tid < 0 || tid >= Array.length f.tables then
        err "%s/block %d: %s unknown jump table %d" f.name i what tid
    in
    let check_return i what return_to =
      check_dest i what return_to;
      (* The hardware return address is simply pc + 4. *)
      if return_to <> i + 1 then
        err "%s/block %d: call must return to the next block (got .%d)" f.name i
          return_to
    in
    Array.iteri
      (fun i (b : Block.t) ->
        List.iteri
          (fun j -> function
            (* The decompressor-reserved marker encodings exist only inside
               compressed streams: one in the IR means a transform leaked an
               image word back into the program. *)
            | Instr Instr.Sentinel ->
              err "%s/block %d: stray sentinel marker at item %d" f.name i j
            | Instr (Instr.Bsrx _) ->
              err "%s/block %d: stray Bsrx marker at item %d" f.name i j
            | Instr (Instr.Jsr { hint = 1; _ }) ->
              err "%s/block %d: stray Jsr restore marker at item %d" f.name i j
            | Instr ins when Instr.is_control_transfer ins ->
              err "%s/block %d: control transfer %s in block body" f.name i
                (Instr.to_string ins)
            | Instr _ -> ()
            | Load_addr (r, sym) -> (
              if not (Reg.is_valid r) then
                err "%s/block %d: invalid register in load-addr at item %d" f.name
                  i j;
              match sym with
              | Table_addr tid -> check_table i "load-addr of" tid
              | Func_addr g ->
                if find_func t g = None then
                  err "%s/block %d: address of undefined function %s" f.name i g))
          b.items;
        match b.term with
        | Fallthrough d -> check_dest i "fallthrough" d
        | Jump d -> check_dest i "jump" d
        | Branch (_, r, d1, d2) ->
          if not (Reg.is_valid r) then
            err "%s/block %d: invalid branch register" f.name i;
          check_dest i "taken branch" d1;
          check_dest i "fallthrough branch" d2
        | Call { callee; return_to; _ } ->
          check_return i "call return" return_to;
          if find_func t callee = None then
            err "%s/block %d: call to undefined function %s" f.name i callee
        | Call_indirect { rb; return_to; _ } ->
          if not (Reg.is_valid rb) then
            err "%s/block %d: invalid indirect-call register" f.name i;
          check_return i "indirect-call return" return_to
        | Jump_indirect { table = Some tid; _ } -> check_table i "jump through" tid
        | Jump_indirect { table = None; _ } | Return _ | No_return -> ())
      f.blocks;
    Array.iteri
      (fun tid tbl ->
        if Array.length tbl = 0 then err "%s: jump table %d is empty" f.name tid;
        Array.iter
          (fun d ->
            if d < 0 || d >= n then
              err "%s: jump table %d entry targets block %d of %d" f.name tid d n)
          tbl)
      f.tables
  in
  List.iter check_func t.funcs;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_term ppf = function
  | Fallthrough d -> Format.fprintf ppf "fallthrough .%d" d
  | Jump d -> Format.fprintf ppf "jump .%d" d
  | Branch (c, r, d1, d2) ->
    Format.fprintf ppf "branch(%s) %a ? .%d : .%d"
      (match c with
      | Instr.Eq -> "eq"
      | Instr.Ne -> "ne"
      | Instr.Lt -> "lt"
      | Instr.Le -> "le"
      | Instr.Gt -> "gt"
      | Instr.Ge -> "ge")
      Reg.pp r d1 d2
  | Call { ra; callee; return_to } ->
    Format.fprintf ppf "call %s (ra=%a) -> .%d" callee Reg.pp ra return_to
  | Call_indirect { ra; rb; return_to } ->
    Format.fprintf ppf "call* (%a) (ra=%a) -> .%d" Reg.pp rb Reg.pp ra return_to
  | Jump_indirect { rb; table } ->
    Format.fprintf ppf "jump* (%a)%s" Reg.pp rb
      (match table with Some tid -> Printf.sprintf " table %d" tid | None -> "")
  | Return { rb } -> Format.fprintf ppf "return (%a)" Reg.pp rb
  | No_return -> Format.fprintf ppf "no-return"

let pp_item ppf = function
  | Instr i -> Instr.pp ppf i
  | Load_addr (r, Func_addr f) -> Format.fprintf ppf "la %a, &%s" Reg.pp r f
  | Load_addr (r, Table_addr tid) -> Format.fprintf ppf "la %a, &table%d" Reg.pp r tid

let pp_func ppf (f : Func.t) =
  Format.fprintf ppf "@[<v>func %s:@," f.name;
  Array.iteri
    (fun i (b : Block.t) ->
      Format.fprintf ppf "  .%d:@," i;
      List.iter (fun it -> Format.fprintf ppf "    %a@," pp_item it) b.items;
      Format.fprintf ppf "    %a@," pp_term b.term)
    f.blocks;
  Array.iteri
    (fun tid tbl ->
      Format.fprintf ppf "  table %d: %s@," tid
        (String.concat ", "
           (Array.to_list (Array.map (fun d -> Printf.sprintf ".%d" d) tbl))))
    f.tables;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>program (entry %s, %d data words):@," t.entry t.data_words;
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_func f) t.funcs;
  Format.fprintf ppf "@]"
