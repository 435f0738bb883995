(* Order-1 context-modeled split-stream coding.

   The paper's coder treats each of the 15 field streams as an i.i.d.
   symbol source.  Machine code is far more predictable than that: the
   opcode of an instruction is strongly conditioned on the previous
   opcode, and an instruction's operand distributions depend on which
   opcode carries them.  This backend exploits both while keeping the
   baseline's decode contract — every symbol is still one canonical-
   Huffman codeword, every region is still sentinel-terminated and
   independently decodable:

   - the [Opcode] stream is conditioned on the previous opcode of the
     region (the region-start context is the sentinel's opcode, making
     regions behave as sentinel-separated runs);
   - every other stream is conditioned on the current opcode, which the
     decoder always knows before it reads the field;
   - each register stream may additionally be move-to-front transformed
     over per-region recency lists seeded with the fixed identity
     alphabet, so no alphabets ship.  The transform is chosen per stream
     at build time, and only where the measured bits (payload + tables)
     actually drop — register reuse locality sometimes beats the skewed
     static distribution, but usually does not (EXPERIMENTS.md's MTF
     ablation), so the flag is earned, never assumed.

   Conditioning splits one code into up to 64 per-context codes, and
   every dedicated code ships its own N/D table.  A context gets a
   dedicated code only when the bits it saves exceed the table it costs
   (measured against a code over the stream's whole distribution); the
   remaining contexts share one default code rebuilt over exactly the
   residual symbols.  With no dedicated contexts a stream degenerates to
   the baseline's single code, so the scheme can lose at most its flat
   accounting overhead (a 6-bit dedicated count and a 1-bit MTF flag per
   stream) — and wins wherever a context pays for its table. *)

type ccode = {
  default : Canonical.t option;  (* residual contexts; None if all dedicated *)
  dedicated : (int * Canonical.t) array;  (* (context id, code), sorted *)
}

type model = {
  per_stream : ccode option array;
  mtf : bool array;  (* per stream: symbols are MTF ranks, not raw values *)
}

let ctx_id_bits = 6
let sentinel_op = Instr.opcode_value Instr.Sentinel

let is_reg_stream s = Coder.stream_value_bits s = 5

(* Per-region recency lists over the full register file; identical on the
   encode and decode sides by construction, so nothing ships. *)
let identity_alphabets =
  Array.map
    (fun s -> if is_reg_stream s then Array.init Reg.count Fun.id else [||])
    Coder.stream_of_index

(* Walk regions exactly as the encoder does, handing every symbol to [f] as
   [f stream_index context symbol].  Streams flagged in [mtf] arrive as
   recency ranks; the others as raw values. *)
let iter_symbols ~mtf f regions =
  let state = Coder.Mtf_state.create identity_alphabets in
  Array.iter
    (fun instrs ->
      Coder.Mtf_state.reset state identity_alphabets;
      let prev = ref sentinel_op in
      List.iter
        (fun ins ->
          let op = Instr.opcode_value ins in
          f (Instr.stream_index Instr.Opcode) !prev op;
          List.iter
            (fun (s, v) ->
              let si = Instr.stream_index s in
              let sym = if mtf.(si) then Coder.Mtf_state.rank_of state si v else v in
              f si op sym)
            (Instr.fields ins);
          prev := op)
        (Coder.with_sentinel instrs))
    regions

let bits_under code syms =
  List.fold_left
    (fun acc s ->
      match Canonical.codeword code s with
      | Some (_, len) -> acc + len
      | None -> failwith "Coder_context: symbol outside alphabet")
    0 syms

(* Gather (context -> symbols) per stream under the given MTF flags. *)
let gather ~mtf regions =
  let by_ctx = Array.init Coder.stream_count (fun _ -> Hashtbl.create 16) in
  iter_symbols ~mtf
    (fun si ctx sym ->
      let tbl = by_ctx.(si) in
      Hashtbl.replace tbl ctx
        (sym :: Option.value ~default:[] (Hashtbl.find_opt tbl ctx)))
    regions;
  by_ctx

(* Build one stream's conditional code over its (context -> symbols) table:
   dedicate a code to a context only when the dedicated bits plus its table
   undercut the shared code's bits on that context's symbols. *)
let build_ccode ~value_bits tbl =
  let contexts =
    Hashtbl.fold (fun ctx syms acc -> (ctx, syms) :: acc) tbl []
    |> List.sort compare
  in
  let all = List.concat_map snd contexts in
  let global = Canonical.of_freqs (Coder.freqs_of_values all) in
  let dedicated, residual =
    List.fold_left
      (fun (ded, res) (ctx, syms) ->
        let base = bits_under global syms in
        let cand = Canonical.of_freqs (Coder.freqs_of_values syms) in
        let cost =
          bits_under cand syms
          + Canonical.table_bits ~value_bits cand
          + ctx_id_bits
        in
        if cost < base then ((ctx, cand) :: ded, res)
        else (ded, List.rev_append syms res))
      ([], []) contexts
  in
  let default =
    match residual with
    | [] -> None
    | _ :: _ -> Some (Canonical.of_freqs (Coder.freqs_of_values residual))
  in
  { default; dedicated = Array.of_list (List.rev dedicated) }

let ccode_table_bits ~value_bits cc =
  ctx_id_bits  (* dedicated-code count *)
  + (match cc.default with
    | None -> 0
    | Some c -> Canonical.table_bits ~value_bits c)
  + Array.fold_left
      (fun acc (_, c) -> acc + ctx_id_bits + Canonical.table_bits ~value_bits c)
      0 cc.dedicated

let find_dedicated cc ctx =
  let n = Array.length cc.dedicated in
  let rec go i =
    if i >= n then None
    else
      let c, code = cc.dedicated.(i) in
      if c = ctx then Some code else go (i + 1)
  in
  go 0

let ccode_for_ctx cc ~stream ctx =
  match find_dedicated cc ctx with
  | Some code -> (code, true)
  | None -> (
    match cc.default with
    | Some code -> (code, false)
    | None ->
      raise
        (Bitio.Corrupt_stream
           (Printf.sprintf "Coder_context: no code for context %d of stream %s" ctx
              (Instr.stream_name stream))))

(* Payload + tables for one stream, used to choose between the raw and the
   MTF-transformed variant of a register stream. *)
let ccode_cost ~value_bits cc tbl =
  let payload =
    Hashtbl.fold
      (fun ctx syms acc ->
        let code, _ = ccode_for_ctx cc ~stream:Instr.Opcode ctx in
        acc + bits_under code syms)
      tbl 0
  in
  payload + ccode_table_bits ~value_bits cc

module M = struct
  type nonrec model = model

  let build regions =
    let raw = gather ~mtf:(Array.make Coder.stream_count false) regions in
    let ranked =
      gather ~mtf:(Array.map is_reg_stream Coder.stream_of_index) regions
    in
    let mtf = Array.make Coder.stream_count false in
    let per_stream =
      Array.init Coder.stream_count (fun si ->
          if Hashtbl.length raw.(si) = 0 then None
          else begin
            let value_bits = Coder.stream_value_bits Coder.stream_of_index.(si) in
            let cc_raw = build_ccode ~value_bits raw.(si) in
            if not (is_reg_stream Coder.stream_of_index.(si)) then Some cc_raw
            else begin
              let cc_mtf = build_ccode ~value_bits ranked.(si) in
              if
                ccode_cost ~value_bits cc_mtf ranked.(si)
                < ccode_cost ~value_bits cc_raw raw.(si)
              then begin
                mtf.(si) <- true;
                Some cc_mtf
              end
              else Some cc_raw
            end
          end)
    in
    { per_stream; mtf }

  let code_for { per_stream; _ } si ctx =
    match per_stream.(si) with
    | None ->
      raise
        (Bitio.Corrupt_stream
           ("Coder_context: no codes for stream "
           ^ Instr.stream_name Coder.stream_of_index.(si)))
    | Some cc -> ccode_for_ctx cc ~stream:Coder.stream_of_index.(si) ctx

  let encode_regions model regions =
    let w = Bitio.Writer.create () in
    let offsets = Array.make (Array.length regions) 0 in
    Array.iteri
      (fun i instrs ->
        offsets.(i) <- Bitio.Writer.length_bits w;
        iter_symbols ~mtf:model.mtf
          (fun si ctx sym ->
            let code, _ = code_for model si ctx in
            Canonical.encode code w sym)
          [| instrs |])
      regions;
    (Bitio.Writer.contents w, offsets)

  let decode_region model blob ~bit_offset =
    let r = Bitio.Reader.of_string ~start_bit:bit_offset blob in
    let bits = ref 0 and steps = ref 0 in
    (* The last opcode read: the context of an opcode and of its fields. *)
    let ctx = ref sentinel_op in
    let state = Coder.Mtf_state.create identity_alphabets in
    let read stream =
      let si = Instr.stream_index stream in
      let code, is_dedicated = code_for model si !ctx in
      let sym, b, probes = Canonical.decode code r in
      bits := !bits + b;
      (* Decode-table probes, plus one step to select a context-dedicated
         table; walking a recency list costs rank steps. *)
      steps := !steps + probes;
      if is_dedicated then incr steps;
      let v =
        if model.mtf.(si) then begin
          steps := !steps + sym;
          Coder.Mtf_state.value_at state si sym
        end
        else sym
      in
      (match stream with Instr.Opcode -> ctx := v | _ -> ());
      v
    in
    let instrs = Coder.decode_instrs read in
    (instrs, { Coder.bits = !bits; steps = !steps })

  let table_bits { per_stream; _ } =
    Array.to_list per_stream
    |> List.mapi (fun si cc ->
           match cc with
           | None -> 0
           | Some cc ->
             let value_bits = Coder.stream_value_bits Coder.stream_of_index.(si) in
             (* +1: the shipped MTF flag of a register stream. *)
             (if is_reg_stream Coder.stream_of_index.(si) then 1 else 0)
             + ccode_table_bits ~value_bits cc)
    |> List.fold_left ( + ) 0

  let stream_stats { per_stream; _ } =
    List.filter_map
      (fun stream ->
        match per_stream.(Instr.stream_index stream) with
        | None -> None
        | Some cc ->
          let codes =
            (match cc.default with None -> [] | Some c -> [ c ])
            @ Array.to_list (Array.map snd cc.dedicated)
          in
          let symbols =
            List.fold_left (fun a c -> a + Canonical.symbol_count c) 0 codes
          in
          let max_len =
            List.fold_left (fun a c -> max a (Canonical.max_length c)) 0 codes
          in
          Some (Instr.stream_name stream, symbols, float_of_int max_len))
      Instr.all_streams

  let stream_bits model regions =
    let totals = Array.make Coder.stream_count 0 in
    iter_symbols ~mtf:model.mtf
      (fun si ctx sym ->
        let code, _ = code_for model si ctx in
        match Canonical.codeword code sym with
        | Some (_, len) -> totals.(si) <- totals.(si) + len
        | None -> failwith "Coder_context: symbol outside alphabet")
      regions;
    Coder.render_stream_bits totals
end
