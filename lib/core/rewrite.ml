type region_image = {
  rid : int;
  buffer_words : int;
  stream : Instr.t list;
  block_offset : (string * int, int) Hashtbl.t;
}

type t = {
  prog : Prog.t;
  text : Easm.image;
  images : region_image array;
  blob : string;
  blob_offsets : int array;
  codes : Compress.codes;
  regions : Regions.t;
  blob_base : int;
  stub_base : int;
  max_stubs : int;
  buffer_base : int;
  buffer_words : int;
  decomp_base : int;
  decomp_words : int;
  entry_addr : int;
  entry_stub_words : int;
  push_form_stubs : int;
  stub_addrs : ((string * int) * int) list;
      (* entry-point block -> address of its entry stub *)
  func_entry_addrs : (string * int) list;
      (* function -> address of its block-0 label (code or entry stub);
         omits functions whose block 0 was removed as a region interior *)
  block_addrs : ((string * int) * int) list;
      (* every bound block label -> its text address: hot blocks and
         region entry stubs (region interiors have no address) *)
  table_addrs : ((string * int) * int) list;
      (* (function, table id) -> address of the retained jump table *)
}

let blob_base = 0x20_0000
let stub_base = 0x30_0000
let buffer_base = 0x31_0000
let default_decomp_words = 256
let default_max_stubs = 32

let decomp_entry t r = t.decomp_base + (4 * r)
let decomp_entry_push t = t.decomp_base + (4 * Reg.count)
let create_stub_entry t r = t.decomp_base + (4 * (Reg.count + 1)) + (4 * r)

let is_marker = function
  | Instr.Bsrx _ | Instr.Jsr { hint = 1; _ } -> true
  | _ -> false

let materialise t stream ~base ~delta ~put =
  let pos = ref 0 in
  let emit ins =
    put !pos ins;
    incr pos
  in
  (* Displacement for an instruction being placed at position !pos. *)
  let pc_rel_to target = (target - (base + (4 * (!pos + 1)))) asr 2 in
  let rebias disp =
    (* Stream displacements were computed for a slot-0 materialisation
       ([pc_rel] in {!build}).  Intra-region targets move with the buffer,
       so their relative displacement is unchanged; external targets (text,
       the runtime entry points) sit below the buffer area and must be
       re-aimed from this slot's base. *)
    let target0 = t.buffer_base + (4 * (!pos + 1)) + (4 * disp) in
    if target0 >= t.buffer_base then disp else disp - delta
  in
  List.iter
    (fun ins ->
      match ins with
      | Instr.Bsrx { ra; disp } ->
        (* Expand: bsr ra, CreateStub(ra) ; br zero, disp. *)
        emit (Instr.Bsr { ra; disp = pc_rel_to (create_stub_entry t ra) });
        emit (Instr.Br { ra = Reg.zero; disp = rebias disp })
      | Instr.Jsr { ra; rb; hint = 1 } ->
        emit (Instr.Bsr { ra; disp = pc_rel_to (create_stub_entry t ra) });
        emit (Instr.Jmp { ra = Reg.zero; rb; hint = 0 })
      | Instr.Br { ra; disp } -> emit (Instr.Br { ra; disp = rebias disp })
      | Instr.Cbr { op; ra; disp } -> emit (Instr.Cbr { op; ra; disp = rebias disp })
      | Instr.Bsr { ra; disp } -> emit (Instr.Bsr { ra; disp = rebias disp })
      | ins -> emit ins)
    stream;
  !pos

(* ------------------------------------------------------------------ *)
(* Per-block buffer plan. *)

type bop =
  | BInstr of Instr.t
  | BLoad_func of Reg.t * string
  | BLoad_table of Reg.t * (string * int)  (* function, table id *)
  | BBr of Reg.t * [ `Intra of string * int | `Ext of string * int ]
  | BCbr of Instr.cond * Reg.t * [ `Intra of string * int | `Ext of string * int ]
  | BCall_direct of Reg.t * [ `Intra of string | `Addr of string ]
      (** [`Intra g]: callee entry in this region; [`Addr g]: buffer-safe
          callee at its never-compressed address. *)
  | BCall_expand of Reg.t * string
  | BCalli_expand of Reg.t * Reg.t
  | BJmp of Reg.t
  | BRet of Reg.t

let bop_words = function
  | BInstr _ | BBr _ | BCbr _ | BCall_direct _ | BJmp _ | BRet _ -> 1
  | BLoad_func _ | BLoad_table _ -> 2
  | BCall_expand _ | BCalli_expand _ -> 2

let dest_kind ~fname ~region_of ~rid d =
  if Hashtbl.find_opt region_of (fname, d) = Some rid then `Intra (fname, d)
  else `Ext (fname, d)

(* The buffer plan of one region block.  [next] is the block laid out next
   in the region image (if any), which absorbs fallthrough edges.

   A direct call may skip the CreateStub protocol in exactly two cases:
   - the callee is buffer-safe (it can never invoke the decompressor), or
   - the callee's {e entire} body lives in this same region ([fully_in]).
     Entry alone is not enough: a callee that spans this region and other
     code could branch through another region's entry stub, overwrite the
     runtime buffer, and later return to a raw (now stale) buffer address.
     When every callee block is in this region, any decompression the
     callee triggers goes through a restore stub that re-materialises this
     region before control comes back. *)
let plan_block ~region_of ~rid ~buffer_safe ~fully_in (fname, _i) (b : Prog.Block.t)
    ~next =
  let item_ops =
    List.map
      (function
        | Prog.Instr ins -> BInstr ins
        | Prog.Load_addr (r, Prog.Func_addr g) -> BLoad_func (r, g)
        | Prog.Load_addr (r, Prog.Table_addr tid) -> BLoad_table (r, (fname, tid)))
      b.items
  in
  let dest = dest_kind ~fname ~region_of ~rid in
  let goto d =
    if next = Some (fname, d) then [] else [ BBr (Reg.zero, dest d) ]
  in
  let term_ops =
    match b.term with
    | Prog.Fallthrough d | Prog.Jump d -> goto d
    | Prog.Branch (c, r, taken, fall) -> BCbr (c, r, dest taken) :: goto fall
    | Prog.Call { ra; callee; return_to = _ } ->
      if fully_in callee = Some rid then [ BCall_direct (ra, `Intra callee) ]
      else if Buffer_safe.is_safe buffer_safe callee then
        [ BCall_direct (ra, `Addr callee) ]
      else [ BCall_expand (ra, callee) ]
    | Prog.Call_indirect { ra; rb; return_to = _ } -> [ BCalli_expand (ra, rb) ]
    | Prog.Jump_indirect { rb; table = _ } -> [ BJmp rb ]
    | Prog.Return { rb } -> [ BRet rb ]
    | Prog.No_return -> []
  in
  item_ops @ term_ops

(* Layout a region: buffer offsets of blocks, total size, per-block plans. *)
let layout_region ~region_of ~buffer_safe ~fully_in (r : Regions.region) plans_of =
  let block_offset = Hashtbl.create 16 in
  let blocks = Array.of_list r.Regions.blocks in
  let n = Array.length blocks in
  let offset = ref 0 in
  let plans =
    List.init n (fun idx ->
        let ((fname, i) as key) = blocks.(idx) in
        let next = if idx + 1 < n then Some blocks.(idx + 1) else None in
        let b = plans_of fname i in
        let ops =
          plan_block ~region_of ~rid:r.Regions.id ~buffer_safe ~fully_in (fname, i) b
            ~next
        in
        Hashtbl.replace block_offset key !offset;
        offset := !offset + List.fold_left (fun acc op -> acc + bop_words op) 0 ops;
        ops)
  in
  (block_offset, !offset, List.concat plans)

(* ------------------------------------------------------------------ *)

let build (p : Prog.t) ~regions ~buffer_safe ?(decomp_words = default_decomp_words)
    ?(max_stubs = default_max_stubs) ?(coder = `Split_stream) () =
  let func_of = Hashtbl.create 64 in
  List.iter (fun (f : Prog.Func.t) -> Hashtbl.replace func_of f.name f) p.funcs;
  let block_of fname i = (Hashtbl.find func_of fname).Prog.Func.blocks.(i) in
  let region_of = regions.Regions.region_of in
  (* Which functions live entirely inside one region. *)
  let fully_in_tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      let rid0 = Hashtbl.find_opt region_of (f.name, 0) in
      let all_same =
        match rid0 with
        | None -> false
        | Some _ ->
          let ok = ref true in
          Array.iteri
            (fun i _ ->
              if Hashtbl.find_opt region_of (f.name, i) <> rid0 then ok := false)
            f.blocks;
          !ok
      in
      if all_same then
        match rid0 with
        | Some rid -> Hashtbl.replace fully_in_tbl f.name rid
        | None -> ())
    p.funcs;
  let fully_in name = Hashtbl.find_opt fully_in_tbl name in
  (* Phase 1: region layouts (address-independent). *)
  let layouts =
    Array.map
      (fun r -> layout_region ~region_of ~buffer_safe ~fully_in r block_of)
      regions.Regions.regions
  in
  (* Phase 2: emit the never-compressed text. *)
  let asm = Easm.create ~base:Layout.text_base in
  let block_labels = Hashtbl.create 256 in
  let table_labels = Hashtbl.create 16 in
  let entry_stub_words = ref 0 in
  let push_form_stubs = ref 0 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Array.iteri
        (fun i _ ->
          let kind =
            match Hashtbl.find_opt region_of (f.name, i) with
            | None -> "blk"
            | Some _ -> "stub"
          in
          Hashtbl.replace block_labels (f.name, i)
            (Easm.fresh_label asm (Printf.sprintf "%s.%s%d" f.name kind i)))
        f.blocks;
      Array.iteri
        (fun tid _ ->
          Hashtbl.replace table_labels (f.name, tid)
            (Easm.fresh_label asm (Printf.sprintf "%s.table%d" f.name tid)))
        f.tables)
    p.funcs;
  let decomp_entry_labels =
    Array.init Reg.count (fun r -> Easm.fresh_label asm (Printf.sprintf "decomp.r%d" r))
  in
  let decomp_push_label = Easm.fresh_label asm "decomp.push" in
  let cs_labels =
    Array.init Reg.count (fun r -> Easm.fresh_label asm (Printf.sprintf "cstub.r%d" r))
  in
  let label_of key = Hashtbl.find block_labels key in
  (* Emit each function: hot blocks as code, region entry blocks as inline
     stubs, other region blocks as nothing. *)
  List.iter
    (fun (f : Prog.Func.t) ->
      let lv = lazy (Cfg.liveness f) in
      let n = Array.length f.blocks in
      Array.iteri
        (fun i (b : Prog.Block.t) ->
          Easm.set_owner asm (Some (f.name, i));
          match Hashtbl.find_opt region_of (f.name, i) with
          | Some rid ->
            if Regions.is_entry regions f.name i then begin
              Easm.bind asm (label_of (f.name, i));
              let block_offset, _, _ = layouts.(rid) in
              let off = Hashtbl.find block_offset (f.name, i) in
              if rid > 0xFFFF || off > 0xFFFF then
                failwith "Rewrite.build: tag field overflow";
              let tag = (rid lsl 16) lor off in
              match Cfg.free_regs_at_entry (Lazy.force lv) i with
              | rf :: _ ->
                Easm.branch asm `Bsr rf decomp_entry_labels.(rf);
                Easm.word asm tag;
                entry_stub_words := !entry_stub_words + 2
              | [] ->
                Easm.instr asm
                  (Instr.Mem { op = Instr.Stw; ra = Reg.ra; rb = Reg.sp; disp = -4 });
                Easm.branch asm `Bsr Reg.ra decomp_push_label;
                Easm.word asm tag;
                entry_stub_words := !entry_stub_words + 3;
                incr push_form_stubs
            end
          | None -> (
            Easm.bind asm (label_of (f.name, i));
            List.iter
              (fun item ->
                match item with
                | Prog.Instr ins -> Easm.instr asm ins
                | Prog.Load_addr (r, Prog.Func_addr g) ->
                  Easm.load_addr asm r (label_of (g, 0))
                | Prog.Load_addr (r, Prog.Table_addr tid) ->
                  Easm.load_addr asm r (Hashtbl.find table_labels (f.name, tid)))
              b.items;
            let goto d =
              if not (d = i + 1 && i + 1 < n) then
                Easm.branch asm `Br Reg.zero (label_of (f.name, d))
            in
            match b.term with
            | Prog.Fallthrough d -> goto d
            | Prog.Jump d -> Easm.branch asm `Br Reg.zero (label_of (f.name, d))
            | Prog.Branch (c, r, taken, fall) ->
              Easm.cbranch asm c r (label_of (f.name, taken));
              goto fall
            | Prog.Call { ra; callee; return_to = _ } ->
              Easm.branch asm `Bsr ra (label_of (callee, 0))
            | Prog.Call_indirect { ra; rb; return_to = _ } ->
              Easm.instr asm (Instr.Jsr { ra; rb; hint = 0 })
            | Prog.Jump_indirect { rb; table = _ } ->
              Easm.instr asm (Instr.Jmp { ra = Reg.zero; rb; hint = 0 })
            | Prog.Return { rb } ->
              Easm.instr asm (Instr.Ret { ra = Reg.zero; rb; hint = 0 })
            | Prog.No_return -> ()))
        f.blocks;
      Easm.set_owner asm None;
      (* Retained jump tables: entries point at code or entry stubs. *)
      Array.iteri
        (fun tid entries ->
          Easm.bind asm (Hashtbl.find table_labels (f.name, tid));
          Array.iter (fun d -> Easm.addr_word asm (label_of (f.name, d))) entries)
        f.tables)
    p.funcs;
  (* The decompressor's code area: entry points hooked by the VM; filled
     with sentinels so a stray jump traps. *)
  let decomp_base = Easm.here asm in
  Array.iter
    (fun l ->
      Easm.bind asm l;
      Easm.word asm (Instr.encode Instr.Sentinel))
    decomp_entry_labels;
  Easm.bind asm decomp_push_label;
  Easm.word asm (Instr.encode Instr.Sentinel);
  Array.iter
    (fun l ->
      Easm.bind asm l;
      Easm.word asm (Instr.encode Instr.Sentinel))
    cs_labels;
  let used = (Easm.here asm - decomp_base) / 4 in
  if used > decomp_words then failwith "Rewrite.build: decomp_words too small";
  for _ = used + 1 to decomp_words do
    Easm.word asm (Instr.encode Instr.Sentinel)
  done;
  let text = Easm.finish asm in
  let addr_of key = Easm.resolve asm (label_of key) in
  let table_addr_of key = Easm.resolve asm (Hashtbl.find table_labels key) in
  (* Phase 3: region image contents. *)
  let pc_rel ~word_index target =
    let pc_next = buffer_base + (4 * (word_index + 1)) in
    let d = target - pc_next in
    if d land 3 <> 0 then failwith "Rewrite.build: unaligned buffer branch target";
    d asr 2
  in
  let images =
    Array.mapi
      (fun rid _ ->
        let block_offset, buffer_words, ops = layouts.(rid) in
        let pos = ref 0 in
        let stream = ref [] in
        let push ins =
          stream := ins :: !stream;
          pos := !pos + if is_marker ins then 2 else 1
        in
        let target_addr = function
          | `Intra (fname, d) -> buffer_base + (4 * Hashtbl.find block_offset (fname, d))
          | `Ext (fname, d) -> addr_of (fname, d)
        in
        let load_addr rg a =
          let hi, lo = Easm.split_addr a in
          push (Instr.Ldah { ra = rg; rb = Reg.zero; disp = hi });
          push (Instr.Lda { ra = rg; rb = rg; disp = lo })
        in
        List.iter
          (fun op ->
            match op with
            | BInstr ins -> push ins
            | BLoad_func (rg, g) -> load_addr rg (addr_of (g, 0))
            | BLoad_table (rg, key) -> load_addr rg (table_addr_of key)
            | BBr (ra, dst) ->
              push (Instr.Br { ra; disp = pc_rel ~word_index:!pos (target_addr dst) })
            | BCbr (c, ra, dst) ->
              push (Instr.Cbr { op = c; ra; disp = pc_rel ~word_index:!pos (target_addr dst) })
            | BCall_direct (ra, `Intra g) ->
              push
                (Instr.Bsr
                   {
                     ra;
                     disp =
                       pc_rel ~word_index:!pos
                         (buffer_base + (4 * Hashtbl.find block_offset (g, 0)));
                   })
            | BCall_direct (ra, `Addr g) ->
              push (Instr.Bsr { ra; disp = pc_rel ~word_index:!pos (addr_of (g, 0)) })
            | BCall_expand (ra, g) ->
              (* Materialised as two words: [bsr ra, CS(ra)] then
                 [br zero, target]; the stream stores the br's displacement
                 in a Bsrx marker. *)
              let br_disp = pc_rel ~word_index:(!pos + 1) (addr_of (g, 0)) in
              push (Instr.Bsrx { ra; disp = br_disp })
            | BCalli_expand (ra, rb) -> push (Instr.Jsr { ra; rb; hint = 1 })
            | BJmp rb -> push (Instr.Jmp { ra = Reg.zero; rb; hint = 0 })
            | BRet rb -> push (Instr.Ret { ra = Reg.zero; rb; hint = 0 }))
          ops;
        if !pos <> buffer_words then failwith "Rewrite.build: image size mismatch";
        { rid; buffer_words; stream = List.rev !stream; block_offset })
      regions.Regions.regions
  in
  (* Phase 4: compress. *)
  let streams = Array.map (fun (img : region_image) -> img.stream) images in
  let codes = Compress.build_codes ~backend:coder streams in
  let blob, blob_offsets = Compress.encode_regions codes streams in
  let buffer_words =
    2 + Array.fold_left (fun acc (img : region_image) -> max acc img.buffer_words) 0 images
  in
  let entry_addr = addr_of (p.entry, 0) in
  let stub_addrs =
    Hashtbl.fold
      (fun key () acc -> (key, addr_of key) :: acc)
      regions.Regions.entries []
  in
  let label_bound fname i =
    match Hashtbl.find_opt region_of (fname, i) with
    | None -> true
    | Some _ -> Regions.is_entry regions fname i
  in
  let func_entry_addrs =
    List.filter_map
      (fun (f : Prog.Func.t) ->
        if label_bound f.name 0 then Some (f.name, addr_of (f.name, 0)) else None)
      p.funcs
  in
  let block_addrs =
    List.concat_map
      (fun (f : Prog.Func.t) ->
        List.filter_map Fun.id
          (List.init (Array.length f.blocks) (fun i ->
               if label_bound f.name i then
                 Some ((f.name, i), addr_of (f.name, i))
               else None)))
      p.funcs
  in
  let table_addrs =
    List.concat_map
      (fun (f : Prog.Func.t) ->
        List.init (Array.length f.tables) (fun tid ->
            ((f.name, tid), table_addr_of (f.name, tid))))
      p.funcs
  in
  {
    prog = p;
    text;
    images;
    blob;
    blob_offsets;
    codes;
    regions;
    blob_base;
    stub_base;
    max_stubs;
    buffer_base;
    buffer_words;
    decomp_base;
    decomp_words;
    entry_addr;
    entry_stub_words = !entry_stub_words;
    push_form_stubs = !push_form_stubs;
    stub_addrs;
    func_entry_addrs;
    block_addrs;
    table_addrs;
  }

let blob_words t = ((8 * String.length t.blob) + 31) / 32
let offset_table_words t = Array.length t.images
let code_table_words t = (Compress.table_bits t.codes + 31) / 32
let never_compressed_words t = Array.length t.text.Easm.words

let total_words t =
  never_compressed_words t + offset_table_words t + blob_words t + code_table_words t
  + (t.max_stubs * 4) + t.buffer_words
