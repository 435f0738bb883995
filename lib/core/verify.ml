type severity = Error | Warning

type kind =
  | Bad_stub
  | Dangling_transfer
  | Live_stub_reg
  | Unsafe_call
  | Unresolved_indirect
  | Stream_mismatch
  | Unreachable_code
  | Unproved_region
  | Bad_layout

type diag = {
  severity : severity;
  kind : kind;
  site : string;
  region : int option;
  addr : int option;
  message : string;
}

let kind_name = function
  | Bad_stub -> "bad-stub"
  | Dangling_transfer -> "dangling-transfer"
  | Live_stub_reg -> "live-stub-reg"
  | Unsafe_call -> "unsafe-call"
  | Unresolved_indirect -> "unresolved-indirect"
  | Stream_mismatch -> "stream-mismatch"
  | Unreachable_code -> "unreachable-code"
  | Unproved_region -> "unproved-region"
  | Bad_layout -> "bad-layout"

let severity_name = function Error -> "error" | Warning -> "warning"

let message d =
  Printf.sprintf "%s %s @ %s: %s" (severity_name d.severity) (kind_name d.kind)
    d.site d.message

let errors diags = List.filter (fun d -> d.severity = Error) diags

(* Every check appends to an accumulator, newest first. *)
let add acc ?region ?addr severity kind site fmt =
  Format.kasprintf
    (fun message -> acc := { severity; kind; site; region; addr; message } :: !acc)
    fmt

let block_site (fname, i) = Printf.sprintf "%s.b%d" fname i

(* --- layout: offset table, buffer fit, footprint sum ------------------ *)

let check_layout acc (sq : Rewrite.t) =
  let nregions = Array.length sq.Rewrite.images in
  let offsets = sq.Rewrite.blob_offsets in
  let blob_bits = 8 * String.length sq.Rewrite.blob in
  let site = "offset table" in
  if Array.length offsets <> nregions then
    add acc Error Bad_layout site "%d entries for %d regions" (Array.length offsets)
      nregions;
  Array.iteri
    (fun rid off ->
      if off < 0 || off > blob_bits then
        add acc ~region:rid Error Bad_layout site
          "region %d starts at bit %d, outside the %d-bit blob" rid off blob_bits;
      if rid > 0 && off < offsets.(rid - 1) then
        add acc ~region:rid Error Bad_layout site "not sorted at region %d" rid)
    offsets;
  Array.iter
    (fun (img : Rewrite.region_image) ->
      if img.Rewrite.buffer_words + 2 > sq.Rewrite.buffer_words then
        add acc ~region:img.Rewrite.rid Error Bad_layout
          (Printf.sprintf "region %d" img.Rewrite.rid)
          "needs %d buffer words, the buffer holds %d" img.Rewrite.buffer_words
          (sq.Rewrite.buffer_words - 2))
    sq.Rewrite.images;
  let parts =
    Rewrite.never_compressed_words sq + Rewrite.offset_table_words sq
    + Rewrite.blob_words sq + Rewrite.code_table_words sq
    + (sq.Rewrite.max_stubs * 4) + sq.Rewrite.buffer_words
  in
  if parts <> Rewrite.total_words sq then
    add acc Error Bad_layout "footprint" "parts sum to %d words, total_words says %d"
      parts (Rewrite.total_words sq)

(* --- entry stubs: decode, target, tag, dead register ------------------ *)

let text_word (sq : Rewrite.t) addr =
  let text = sq.Rewrite.image.Layout.text in
  let idx = (addr - sq.Rewrite.image.Layout.text_base) / 4 in
  if addr land 3 <> 0 || idx < 0 || idx >= Array.length text then None
  else Some text.(idx)

(* Returns how many stubs discharged every obligation. *)
let check_stubs acc (sq : Rewrite.t) =
  let live_cache = Hashtbl.create 16 in
  let live_in fname i =
    let lv =
      match Hashtbl.find_opt live_cache fname with
      | Some lv -> lv
      | None ->
        let f = Option.get (Prog.find_func sq.Rewrite.prog fname) in
        let lv = Dataflow.Liveness.solve f in
        Hashtbl.replace live_cache fname lv;
        lv
    in
    lv.Cfg.live_in.(i)
  in
  let nregions = Array.length sq.Rewrite.images in
  let check_tag ~site ((fname, i) as key) addr =
    match text_word sq addr with
    | None -> add acc ~addr Error Bad_stub site "tag word at 0x%x lies outside the text" addr
    | Some tag -> (
      let rid = tag lsr 16 and off = tag land 0xFFFF in
      if rid >= nregions then
        add acc ~addr Error Bad_stub site "tag names region %d, image has %d" rid nregions
      else
        match Hashtbl.find_opt sq.Rewrite.images.(rid).Rewrite.block_offset key with
        | None ->
          add acc ~region:rid ~addr Error Bad_stub site
            "block %s.%d is not laid out in region %d" fname i rid
        | Some expect ->
          if expect <> off then
            add acc ~region:rid ~addr Error Bad_stub site
              "tag offset %d is not the block's instruction boundary %d in region %d" off
              expect rid)
  in
  let check_stub_reg ~site ~addr (fname, i) rf =
    if rf = Reg.sp || rf = Reg.zero then
      add acc ~addr Error Live_stub_reg site "stub uses reserved register %s" (Reg.name rf)
    else if Cfg.Regset.mem rf (live_in fname i) then
      add acc ~addr Error Live_stub_reg site
        "stub return-address register %s is live at the block entry" (Reg.name rf)
  in
  let discharged = ref 0 in
  List.iter
    (fun (key, addr) ->
      let site = block_site key in
      let before = !acc in
      (match Option.map Instr.decode (text_word sq addr) with
      | None -> add acc ~addr Error Bad_stub site "stub address 0x%x outside the text" addr
      | Some (Ok (Instr.Bsr { ra; disp })) ->
        let target = addr + 4 + (4 * disp) in
        if target <> Rewrite.decomp_entry sq ra then
          add acc ~addr Error Bad_stub site
            "bsr targets 0x%x, not the decompressor entry for %s" target (Reg.name ra)
        else begin
          check_tag ~site key (addr + 4);
          check_stub_reg ~site ~addr key ra
        end
      | Some (Ok (Instr.Mem { op = Instr.Stw; ra; rb; disp = -4 }))
        when rb = Reg.sp && ra = Reg.ra -> (
        match Option.map Instr.decode (text_word sq (addr + 4)) with
        | None -> add acc ~addr Error Bad_stub site "truncated push-form stub"
        | Some (Ok (Instr.Bsr { ra = ra2; disp })) ->
          let target = addr + 8 + (4 * disp) in
          if ra2 <> Reg.ra then
            add acc ~addr Error Bad_stub site "push form links through %s, not ra"
              (Reg.name ra2)
          else if target <> Rewrite.decomp_entry_push sq then
            add acc ~addr Error Bad_stub site "push form targets 0x%x, not the push entry"
              target
          else check_tag ~site key (addr + 8)
        | Some (Ok _ | Error _) ->
          add acc ~addr Error Bad_stub site "push form lacks its bsr word")
      | Some (Ok _ | Error _) ->
        add acc ~addr Error Bad_stub site "stub does not start with a bsr or a push of ra");
      if !acc == before then incr discharged)
    sq.Rewrite.stub_addrs;
  !discharged

let stubs sq =
  let acc = ref [] in
  let discharged = check_stubs acc sq in
  (List.rev !acc, discharged)

(* --- compressed streams ------------------------------------------------ *)

let decode (sq : Rewrite.t) rid =
  let fail fmt =
    Format.kasprintf
      (fun message ->
        Stdlib.Error
          { severity = Error; kind = Stream_mismatch; site = Printf.sprintf "region %d" rid;
            region = Some rid; addr = None; message })
      fmt
  in
  let offsets = sq.Rewrite.blob_offsets in
  match
    let bit_end = if rid + 1 < Array.length offsets then Some offsets.(rid + 1) else None in
    Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob ~bit_offset:offsets.(rid)
      ?bit_end ()
  with
  | exception Bitio.Corrupt_stream msg -> fail "stream does not decode: %s" msg
  | exception Invalid_argument msg -> fail "stream reads past its end: %s" msg
  | _, work when work.Compress.bits < 0 || work.Compress.steps < 0 ->
    fail "decoder reported negative work (%d bits, %d steps)" work.Compress.bits
      work.Compress.steps
  | decoded, _ -> Ok decoded

let check_streams acc (sq : Rewrite.t) =
  Array.iteri
    (fun rid (img : Rewrite.region_image) ->
      match decode sq rid with
      | Stdlib.Error d -> acc := d :: !acc
      | Ok decoded ->
        if not (List.equal Instr.equal decoded img.Rewrite.stream) then
          add acc ~region:rid Error Stream_mismatch (Printf.sprintf "region %d" rid)
            "decoded stream disagrees with the region image (%d vs %d instructions)"
            (List.length decoded)
            (List.length img.Rewrite.stream))
    sq.Rewrite.images

(* --- the semantic checks ------------------------------------------------ *)

(* Block reachability as a forward {!Dataflow} client over a boolean
   lattice: the entry block starts [true] and reachability propagates
   along every CFG edge (indirect jumps through an unknown table reach
   every block, keeping the analysis conservative). *)
module Reach = Dataflow.Make (struct
  type t = bool

  let bottom = false
  let join = ( || )
  let equal = Bool.equal
end)

let reachable_blocks f =
  let r =
    Reach.solve ~direction:Dataflow.Forward ~init:true ~transfer:(fun _ fact -> fact) f
  in
  r.Reach.before

let run (sq : Rewrite.t) =
  let acc = ref [] in
  (* The loader facts: layout, entry stubs and streams. *)
  check_layout acc sq;
  ignore (check_stubs acc sq);
  check_streams acc sq;
  let diag ?region ?addr severity kind site fmt =
    add acc ?region ?addr severity kind site fmt
  in
  let p = sq.Rewrite.prog in
  let regions = sq.Rewrite.regions in
  let region_of key = Hashtbl.find_opt regions.Regions.region_of key in
  let is_entry fname i = Regions.is_entry regions fname i in
  let func_of = Hashtbl.create 64 in
  List.iter (fun (f : Prog.Func.t) -> Hashtbl.replace func_of f.name f) p.Prog.funcs;
  (* Which functions live entirely inside one region (mirrors the
     rewrite's plan: a call to such a callee stays a buffer-relative
     [bsr], so its target need not be an entry). *)
  let fully_in_tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      match region_of (f.name, 0) with
      | None -> ()
      | Some rid ->
        if
          Array.for_all Fun.id
            (Array.mapi (fun i _ -> region_of (f.name, i) = Some rid) f.blocks)
        then Hashtbl.replace fully_in_tbl f.name rid)
    p.Prog.funcs;
  let fully_in name = Hashtbl.find_opt fully_in_tbl name in

  (* --- no transfer into a removed region's interior ------------------ *)
  let check_target ~site ~same_rid (fname, d) =
    match region_of (fname, d) with
    | None -> ()
    | Some r ->
      if not (same_rid = Some r || is_entry fname d) then
        diag ~region:r Error Dangling_transfer site
          "targets the interior of removed region %d (%s block %d)" r fname d
  in
  List.iter
    (fun (f : Prog.Func.t) ->
      Array.iteri
        (fun i (b : Prog.Block.t) ->
          let site = block_site (f.name, i) in
          let rid = region_of (f.name, i) in
          List.iter
            (function
              | Prog.Load_addr (_, Prog.Func_addr g) ->
                (* A materialised code address is absolute: even within
                   the same region it must name a bound label. *)
                check_target ~site ~same_rid:None (g, 0)
              | Prog.Load_addr (_, Prog.Table_addr _) | Prog.Instr _ -> ())
            b.items;
          (match b.term with
          | Prog.Call { callee; _ } ->
            let same_rid =
              match (rid, fully_in callee) with
              | Some r, Some r' when r = r' -> Some r
              | _ -> None
            in
            check_target ~site ~same_rid (callee, 0)
          | Prog.Fallthrough _ | Prog.Jump _ | Prog.Branch _
          | Prog.Call_indirect _ | Prog.Jump_indirect _ | Prog.Return _
          | Prog.No_return ->
            ());
          List.iter
            (fun d -> check_target ~site ~same_rid:rid (f.name, d))
            (Prog.successors f i))
        f.blocks;
      Array.iteri
        (fun tid entries ->
          Array.iteri
            (fun k d ->
              check_target
                ~site:(Printf.sprintf "%s.table%d[%d]" f.name tid k)
                ~same_rid:None (f.name, d))
            entries)
        f.tables)
    p.Prog.funcs;

  (* --- unchanged calls in compressed code are buffer-safe ------------ *)
  let bsafe =
    Buffer_safe.analyze_sharp p
      ~has_compressed:(Regions.has_compressed regions p)
  in
  let addr_to_func = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Option.iter
        (fun a -> Hashtbl.replace addr_to_func a f.name)
        (Hashtbl.find_opt sq.Rewrite.image.Layout.block_addr (f.name, 0)))
    p.Prog.funcs;
  let buf_lo = sq.Rewrite.buffer_base in
  let buf_hi = sq.Rewrite.buffer_base + (4 * sq.Rewrite.buffer_words) in
  Array.iter
    (fun (img : Rewrite.region_image) ->
      let pos = ref 0 in
      List.iter
        (fun ins ->
          (match ins with
          | Instr.Bsr { disp; _ } ->
            let target = sq.Rewrite.buffer_base + (4 * (!pos + 1 + disp)) in
            if not (target >= buf_lo && target < buf_hi) then begin
              let site = Printf.sprintf "region %d @ %d" img.Rewrite.rid !pos in
              match Hashtbl.find_opt addr_to_func target with
              | None ->
                diag ~region:img.Rewrite.rid ~addr:target Error Unsafe_call site
                  "plain bsr targets 0x%x, which is not a function entry"
                  target
              | Some g ->
                if not (Buffer_safe.is_safe bsafe g) then
                  diag ~region:img.Rewrite.rid ~addr:target Error Unsafe_call
                    site
                    "unchanged call to %s, which is not buffer-safe under \
                     the sharpened analysis"
                    g
            end
          | _ -> ());
          pos := !pos + if Rewrite.is_marker ins then 2 else 1)
        img.Rewrite.stream)
    sq.Rewrite.images;

  (* --- indirect calls with an empty candidate set -------------------- *)
  List.iter
    (fun (s : Consts.call_site) ->
      match s.Consts.resolution with
      | `Fallback [] ->
        diag Warning Unresolved_indirect
          (block_site (s.Consts.caller, s.Consts.block))
          "indirect call with an empty candidate set: no function's address \
           is ever taken"
      | `Exact _ | `Fallback _ -> ())
    (Consts.indirect_call_sites p);

  (* --- dead surviving blocks ----------------------------------------- *)
  (* Function-level reachability over the callgraph with the resolved
     indirect edges, then block-level reachability inside each reachable
     function (the {!Dataflow} client above).  A surviving block — one
     the rewrite emitted into the text rather than a compressed stream —
     that no path reaches is dead weight the squash kept. *)
  let cg = Cfg.Callgraph.of_prog p in
  Consts.annotate_callgraph p cg;
  let reached_funcs = Hashtbl.create 64 in
  let rec visit g =
    if Hashtbl.mem func_of g && not (Hashtbl.mem reached_funcs g) then begin
      Hashtbl.add reached_funcs g ();
      List.iter visit (Cfg.Callgraph.callees cg g);
      List.iter visit (Cfg.Callgraph.indirect_callees cg g)
    end
  in
  visit p.Prog.entry;
  List.iter
    (fun (f : Prog.Func.t) ->
      let n = Array.length f.blocks in
      let emits i =
        let next = if i + 1 < n then Some (i + 1) else None in
        Prog.Block.size ~next f.blocks.(i) > 0
      in
      if not (Hashtbl.mem reached_funcs f.name) then begin
        if Array.exists Fun.id (Array.mapi (fun i _ -> emits i) f.blocks) then
          diag Warning Unreachable_code f.name
            "function is unreachable from %s over the resolved callgraph"
            p.Prog.entry
      end
      else
        let before = reachable_blocks f in
        Array.iteri
          (fun i _ ->
            if
              (not before.(i))
              && region_of (f.name, i) = None
              && emits i
            then
              diag Warning Unreachable_code (block_site (f.name, i))
                "surviving block is unreachable within its function")
          f.blocks)
    p.Prog.funcs;

  List.rev !acc

let render diags =
  let t =
    Report.Table.create ~title:"lint diagnostics"
      [ ("severity", Report.Table.Left); ("kind", Report.Table.Left);
        ("site", Report.Table.Left); ("message", Report.Table.Left) ]
  in
  List.iter
    (fun d ->
      Report.Table.add_row t
        [ severity_name d.severity; kind_name d.kind; d.site; d.message ])
    diags;
  Report.Table.render t

let to_json diags =
  let open Report.Json in
  let opt_int = function None -> Null | Some v -> Int v in
  List
    (List.map
       (fun d ->
         Obj
           [ ("severity", String (severity_name d.severity));
             ("kind", String (kind_name d.kind)); ("site", String d.site);
             ("region", opt_int d.region); ("addr", opt_int d.addr);
             ("message", String d.message) ])
       diags)
