let text_base = 0x1_0000
let data_base = 0x40_0000
let stack_top = 0xF0_0000
let mem_bytes = 0x100_0000

type image = {
  text_base : int;
  text : int array;
  owners : (string * int) option array;
  entry_addr : int;
  block_addr : (string * int, int) Hashtbl.t;
  table_addr : (string * int, int) Hashtbl.t;
  data_base : int;
  data_words : int;
  data_init : (int * Word.t) list;
}

type placement = Code | Stub of (Easm.t -> unit) | Absent

(* Emit one function's blocks, then its jump tables, through [asm].  [place]
   decides what sits at each block's position: its own code, other words at
   its label (squash's entry stubs), or nothing.  [labels g] is [g]'s block
   and table labels; a call or a function address binds to the callee's
   block-0 label. *)
let emit_func asm (f : Prog.Func.t) ~place ~labels =
  let blocks, tables = labels f.name in
  let callee g = (fst (labels g)).(0) in
  let n = Array.length f.blocks in
  Array.iteri
    (fun i (b : Prog.Block.t) ->
      Easm.set_owner asm (Some (f.name, i));
      match place i with
      | Absent -> ()
      | Stub emit_stub ->
        Easm.bind asm blocks.(i);
        emit_stub asm
      | Code -> (
        Easm.bind asm blocks.(i);
        List.iter
          (fun item ->
            match item with
            | Prog.Instr ins -> Easm.instr asm ins
            | Prog.Load_addr (r, Prog.Func_addr g) -> Easm.load_addr asm r (callee g)
            | Prog.Load_addr (r, Prog.Table_addr tid) -> Easm.load_addr asm r tables.(tid))
          b.items;
        match b.term with
        | Prog.Fallthrough d ->
          if not (d = i + 1 && i + 1 < n) then Easm.branch asm `Br Reg.zero blocks.(d)
        | Prog.Jump d -> Easm.branch asm `Br Reg.zero blocks.(d)
        | Prog.Branch (op, ra, taken, fall) ->
          Easm.cbranch asm op ra blocks.(taken);
          if not (fall = i + 1 && i + 1 < n) then Easm.branch asm `Br Reg.zero blocks.(fall)
        | Prog.Call { ra; callee = g; return_to = _ } -> Easm.branch asm `Bsr ra (callee g)
        | Prog.Call_indirect { ra; rb; return_to = _ } ->
          Easm.instr asm (Instr.Jsr { ra; rb; hint = 0 })
        | Prog.Jump_indirect { rb; table = _ } ->
          Easm.instr asm (Instr.Jmp { ra = Reg.zero; rb; hint = 0 })
        | Prog.Return { rb } -> Easm.instr asm (Instr.Ret { ra = Reg.zero; rb; hint = 0 })
        | Prog.No_return -> ()))
    f.blocks;
  Easm.set_owner asm None;
  Array.iteri
    (fun tid entries ->
      Easm.bind asm tables.(tid);
      Array.iter (fun d -> Easm.addr_word asm blocks.(d)) entries)
    f.tables

let emit ?(place = fun _ _ -> Code) ?(tail = ignore) (p : Prog.t) =
  let asm = Easm.create ~base:text_base in
  let label_tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Hashtbl.replace label_tbl f.name
        ( Array.mapi
            (fun i _ -> Easm.fresh_label (Printf.sprintf "%s.%d" f.name i))
            f.blocks,
          Array.mapi
            (fun tid _ -> Easm.fresh_label (Printf.sprintf "%s.table%d" f.name tid))
            f.tables ))
    p.funcs;
  let labels g =
    match Hashtbl.find_opt label_tbl g with
    | Some l -> l
    | None -> failwith (Printf.sprintf "Layout.emit: undefined function %s" g)
  in
  List.iter (fun f -> emit_func asm f ~place:(place f) ~labels) p.funcs;
  tail asm;
  let img = Easm.finish asm in
  let block_addr = Hashtbl.create 256 in
  let table_addr = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.Func.t) ->
      let blocks, tables = labels f.name in
      let record tbl i l = Option.iter (Hashtbl.replace tbl (f.name, i)) (Easm.address l) in
      Array.iteri (record block_addr) blocks;
      Array.iteri (record table_addr) tables)
    p.funcs;
  let entry_addr =
    match Hashtbl.find_opt block_addr (p.entry, 0) with
    | Some a -> a
    | None -> failwith (Printf.sprintf "Layout.emit: entry %s has no address" p.entry)
  in
  {
    text_base;
    text = img.Easm.words;
    owners = img.Easm.owners;
    entry_addr;
    block_addr;
    table_addr;
    data_base;
    data_words = p.data_words;
    data_init = p.data_init;
  }

let text_words img = Array.length img.text
