let text_base = 0x1_0000
let data_base = 0x40_0000
let stack_top = 0xF0_0000
let mem_bytes = 0x100_0000

type image = {
  text_base : int;
  text : int array;
  owners : (string * int) option array;
  entry_addr : int;
  func_entry : (string, int) Hashtbl.t;
  block_addr : (string * int, int) Hashtbl.t;
  table_addr : (string * int, int) Hashtbl.t;
  data_base : int;
  data_words : int;
  data_init : (int * Word.t) list;
}

(* Emit one function's blocks and jump tables through [asm], binding the
   given per-block and per-table labels.  Shared with squash, which emits
   never-compressed functions the same way but with different labels for the
   blocks that moved into compressed regions. *)
let emit_func asm (f : Prog.Func.t) ~block_label ~table_label ~func_label =
  let n = Array.length f.blocks in
  Array.iteri
    (fun i (b : Prog.Block.t) ->
      Easm.set_owner asm (Some (f.name, i));
      Easm.bind asm (block_label i);
      List.iter
        (fun item ->
          match item with
          | Prog.Instr ins -> Easm.instr asm ins
          | Prog.Load_addr (r, Prog.Func_addr g) -> Easm.load_addr asm r (func_label g)
          | Prog.Load_addr (r, Prog.Table_addr tid) ->
            Easm.load_addr asm r (table_label tid))
        b.items;
      (match b.term with
      | Prog.Fallthrough d ->
        if not (d = i + 1 && i + 1 < n) then Easm.branch asm `Br Reg.zero (block_label d)
      | Prog.Jump d -> Easm.branch asm `Br Reg.zero (block_label d)
      | Prog.Branch (op, ra, taken, fall) ->
        Easm.cbranch asm op ra (block_label taken);
        if not (fall = i + 1 && i + 1 < n) then
          Easm.branch asm `Br Reg.zero (block_label fall)
      | Prog.Call { ra; callee; return_to = _ } ->
        Easm.branch asm `Bsr ra (func_label callee)
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
      Easm.bind asm (table_label tid);
      Array.iter (fun d -> Easm.addr_word asm (block_label d)) entries)
    f.tables

let emit (p : Prog.t) =
  let asm = Easm.create ~base:text_base in
  let func_labels = Hashtbl.create 64 in
  let block_labels = Hashtbl.create 256 in
  let table_labels = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Hashtbl.replace func_labels f.name (Easm.fresh_label asm f.name);
      Array.iteri
        (fun i _ ->
          Hashtbl.replace block_labels (f.name, i)
            (Easm.fresh_label asm (Printf.sprintf "%s.%d" f.name i)))
        f.blocks;
      Array.iteri
        (fun tid _ ->
          Hashtbl.replace table_labels (f.name, tid)
            (Easm.fresh_label asm (Printf.sprintf "%s.table%d" f.name tid)))
        f.tables)
    p.funcs;
  let func_label g =
    match Hashtbl.find_opt func_labels g with
    | Some l -> l
    | None -> failwith (Printf.sprintf "Layout.emit: undefined function %s" g)
  in
  List.iter
    (fun (f : Prog.Func.t) ->
      Easm.bind asm (func_label f.name);
      (* The function label marks the entry; block 0 gets its own label bound
         at the same address. *)
      emit_func asm f
        ~block_label:(fun i -> Hashtbl.find block_labels (f.name, i))
        ~table_label:(fun tid -> Hashtbl.find table_labels (f.name, tid))
        ~func_label)
    p.funcs;
  let img = Easm.finish asm in
  let func_entry = Hashtbl.create 64 in
  Hashtbl.iter (fun name l -> Hashtbl.replace func_entry name (Easm.resolve asm l)) func_labels;
  let block_addr = Hashtbl.create 256 in
  Hashtbl.iter (fun k l -> Hashtbl.replace block_addr k (Easm.resolve asm l)) block_labels;
  let table_addr = Hashtbl.create 16 in
  Hashtbl.iter (fun k l -> Hashtbl.replace table_addr k (Easm.resolve asm l)) table_labels;
  {
    text_base;
    text = img.Easm.words;
    owners = img.Easm.owners;
    entry_addr = Hashtbl.find func_entry p.entry;
    func_entry;
    block_addr;
    table_addr;
    data_base;
    data_words = p.data_words;
    data_init = p.data_init;
  }

let text_words img = Array.length img.text
