(* The paper's split-stream backends as coder instances: plain canonical
   Huffman per stream (Section 3) and the move-to-front variant.  Both code
   one symbol per (stream, value), in {!Coder.iter_fields} order; they
   differ only in the symbol, which is either the value itself or its rank
   in the stream's recency list.  The model types are exposed so
   {!Compress.codes} can hold them as pure data. *)

type plain_model = { per_stream : Canonical.t option array }

type mtf_model = {
  mtf_per_stream : Canonical.t option array;  (* codes over MTF ranks *)
  alphabets : int array array;  (* sorted distinct values per stream *)
}

let stream_name si = Instr.stream_name Coder.stream_of_index.(si)

let code_for per_stream si =
  match per_stream.(si) with
  | Some c -> c
  | None ->
    raise (Bitio.Corrupt_stream ("Coder_split: no code for stream " ^ stream_name si))

let codeword_bits per_stream si v =
  match Canonical.codeword (code_for per_stream si) v with
  | Some (_, len) -> len
  | None -> failwith ("Coder_split: symbol outside alphabet of " ^ stream_name si)

(* A walker calls [f stream_index symbol] for every field of one region,
   sentinel included.  [walk_values] hands over each value itself. *)
let walk_values f instrs = List.iter (Coder.iter_fields f) (Coder.with_sentinel instrs)

(* A walker that hands over each value's move-to-front rank instead.  The
   recency lists restart from the sorted alphabets at every region, so
   regions stay independently decodable. *)
let rank_walker alphabets =
  let state = Coder.Mtf_state.create alphabets in
  fun f instrs ->
    Coder.Mtf_state.reset state alphabets;
    walk_values (fun si v -> f si (Coder.Mtf_state.rank_of state si v)) instrs

let sorted_alphabet vs = Array.of_list (List.sort_uniq compare vs)

(* One canonical code per stream over its symbols. *)
let codes_of_symbols symbols =
  Array.map
    (function
      | [] -> None
      | vs -> Some (Canonical.of_freqs (Coder.freqs_of_values vs)))
    symbols

let encode_symbols per_stream walk regions =
  let w = Bitio.Writer.create () in
  let put si v = Canonical.encode (code_for per_stream si) w v in
  let offsets =
    Array.map
      (fun instrs ->
        let off = Bitio.Writer.length_bits w in
        walk put instrs;
        off)
      regions
  in
  (Bitio.Writer.contents w, offsets)

let symbol_stream_bits per_stream walk regions =
  let totals = Array.make Coder.stream_count 0 in
  let add si v = totals.(si) <- totals.(si) + codeword_bits per_stream si v in
  Array.iter (walk add) regions;
  Coder.render_stream_bits totals

let huffman_table_bits per_stream =
  List.fold_left
    (fun acc stream ->
      match per_stream.(Instr.stream_index stream) with
      | None -> acc
      | Some c ->
        acc + Canonical.table_bits ~value_bits:(Coder.stream_value_bits stream) c)
    0 Instr.all_streams

let huffman_stream_stats per_stream =
  List.filter_map
    (fun stream ->
      match per_stream.(Instr.stream_index stream) with
      | None -> None
      | Some c ->
        Some
          ( Instr.stream_name stream,
            Canonical.symbol_count c,
            float_of_int (Canonical.max_length c) ))
    Instr.all_streams

module Plain = struct
  type model = plain_model

  let build regions = { per_stream = codes_of_symbols (Coder.stream_values regions) }
  let encode_regions { per_stream } regions = encode_symbols per_stream walk_values regions

  let decode_region { per_stream } blob ~bit_offset =
    let r = Bitio.Reader.of_string ~start_bit:bit_offset blob in
    let bits = ref 0 and steps = ref 0 in
    let read stream =
      let code = code_for per_stream (Instr.stream_index stream) in
      let v, b, probes = Canonical.decode code r in
      bits := !bits + b;
      steps := !steps + probes;
      v
    in
    let instrs = Coder.decode_instrs read in
    (instrs, { Coder.bits = !bits; steps = !steps })

  let table_bits { per_stream } = huffman_table_bits per_stream
  let stream_stats { per_stream } = huffman_stream_stats per_stream
  let stream_bits { per_stream } regions = symbol_stream_bits per_stream walk_values regions
end

module Mtf = struct
  type model = mtf_model

  let build regions =
    let alphabets = Array.map sorted_alphabet (Coder.stream_values regions) in
    let ranks = Array.make Coder.stream_count [] in
    let add si r = ranks.(si) <- r :: ranks.(si) in
    Array.iter (rank_walker alphabets add) regions;
    { mtf_per_stream = codes_of_symbols ranks; alphabets }

  let encode_regions { mtf_per_stream; alphabets } regions =
    encode_symbols mtf_per_stream (rank_walker alphabets) regions

  let decode_region { mtf_per_stream; alphabets } blob ~bit_offset =
    let r = Bitio.Reader.of_string ~start_bit:bit_offset blob in
    let bits = ref 0 and steps = ref 0 in
    let state = Coder.Mtf_state.create alphabets in
    let read stream =
      let si = Instr.stream_index stream in
      let rank, b, probes = Canonical.decode (code_for mtf_per_stream si) r in
      bits := !bits + b;
      (* Walking the recency list costs rank steps on top of the probes. *)
      steps := !steps + probes + rank;
      Coder.Mtf_state.value_at state si rank
    in
    let instrs = Coder.decode_instrs read in
    (instrs, { Coder.bits = !bits; steps = !steps })

  let table_bits { mtf_per_stream; alphabets } =
    (* Rank codes are cheap to describe, but the alphabets must ship too. *)
    huffman_table_bits mtf_per_stream
    + List.fold_left
        (fun acc stream ->
          let si = Instr.stream_index stream in
          acc + (Coder.stream_value_bits stream * Array.length alphabets.(si)))
        0 Instr.all_streams

  let stream_stats { mtf_per_stream; _ } = huffman_stream_stats mtf_per_stream

  let stream_bits { mtf_per_stream; alphabets } regions =
    symbol_stream_bits mtf_per_stream (rank_walker alphabets) regions
end

(* What-if accounting for the ablation: each stream's values move-to-front
   coded as one sequence (no region resets) over its sorted alphabet. *)
let mtf_gain_bits regions =
  let values = Coder.stream_values regions in
  let state = Coder.Mtf_state.create (Array.map sorted_alphabet values) in
  let huffman_bits syms = Huffman.total_encoded_bits (Coder.freqs_of_values syms) in
  List.map
    (fun stream ->
      let si = Instr.stream_index stream in
      match values.(si) with
      | [] -> (Instr.stream_name stream, 0)
      | vs ->
        let ranks = List.map (Coder.Mtf_state.rank_of state si) vs in
        (Instr.stream_name stream, huffman_bits ranks - huffman_bits vs))
    Instr.all_streams
