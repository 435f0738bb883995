(* The two model builders and what each charges for its tables.  Encode,
   decode and the per-stream accounting are {!Coder}'s, the same for both. *)

type backend = [ `Split_stream | `Context ]
type work = Coder.work = { bits : int; steps : int }

let coders : (string * backend) list =
  [ ("huffman", `Split_stream); ("context", `Context) ]

type codes = { backend : backend; model : Coder.model }

let backend_of codes = codes.backend
let backend_name backend = fst (List.find (fun (_, b) -> b = backend) coders)
let coder_name codes = backend_name codes.backend

let code_of_symbols syms = Canonical.of_freqs (Coder.freqs_of_values syms)

(* The paper's model: one code per stream over its values. *)
let single_code_model regions =
  let syms = Array.make Coder.stream_count [] in
  Coder.iter_symbols ~alphabets:Coder.no_alphabets
    (fun si _ sym -> syms.(si) <- sym :: syms.(si))
    regions;
  let code = function
    | [] -> None
    | s -> Some { Coder.default = Some (code_of_symbols s); dedicated = [||] }
  in
  { Coder.per_stream = Array.map code syms; alphabets = Coder.no_alphabets }

(* ------------------------------------------------------------------ *)
(* The context model.  Conditioning splits a stream's code into up to 64
   per-context codes, and every dedicated code ships its own N/D table, so
   a context gets one only when the bits it saves exceed the table it
   costs (measured against a code over the stream's whole distribution);
   the remaining contexts share a default code rebuilt over exactly the
   residual symbols.  With no dedicated context a stream degenerates to
   the paper's single code, so the scheme loses at most its flat
   accounting (a 6-bit dedicated count and a 1-bit MTF flag per stream).
   A register stream is move-to-front coded over per-region recency lists
   seeded with the register file, so no alphabet ships, but only where the
   measured bits (payload + tables) drop.  Register reuse locality never
   beats the skewed static distribution on the 11 workloads at any θ of
   the grid, but does on about one generated-program cell in seven
   (EXPERIMENTS.md, "Coders"). *)

let ctx_id_bits = 6
let is_reg_stream s = Coder.stream_value_bits s = 5

let register_alphabets =
  Array.map
    (fun s -> if is_reg_stream s then Array.init Reg.count Fun.id else [||])
    Coder.stream_of_index

let bits_under code syms =
  List.fold_left
    (fun acc s ->
      match Canonical.codeword code s with
      | Some (_, len) -> acc + len
      | None -> failwith "Compress: symbol outside alphabet")
    0 syms

(* Per stream: context -> its symbols under the given alphabets. *)
let gather ~alphabets regions =
  let by_ctx = Array.init Coder.stream_count (fun _ -> Hashtbl.create 16) in
  Coder.iter_symbols ~alphabets
    (fun si ctx sym ->
      let tbl = by_ctx.(si) in
      let syms = Option.value ~default:[] (Hashtbl.find_opt tbl ctx) in
      Hashtbl.replace tbl ctx (sym :: syms))
    regions;
  by_ctx

let context_table_bits ~value_bits (cc : Coder.ccode) =
  (ctx_id_bits * (1 + Array.length cc.dedicated)) + Coder.code_tables_bits ~value_bits cc

(* One stream's code over its (context -> symbols) table: a context gets a
   dedicated code only when the dedicated bits plus its table undercut the
   shared code's bits on that context's symbols. *)
let build_ccode ~value_bits tbl =
  let contexts =
    Hashtbl.fold (fun ctx syms acc -> (ctx, syms) :: acc) tbl [] |> List.sort compare
  in
  let global = code_of_symbols (List.concat_map snd contexts) in
  let dedicated, residual =
    List.fold_left
      (fun (ded, res) (ctx, syms) ->
        let cand = code_of_symbols syms in
        let cost =
          bits_under cand syms + Canonical.table_bits ~value_bits cand + ctx_id_bits
        in
        if cost < bits_under global syms then ((ctx, cand) :: ded, res)
        else (ded, List.rev_append syms res))
      ([], []) contexts
  in
  let default = match residual with [] -> None | _ -> Some (code_of_symbols residual) in
  { Coder.default; dedicated = Array.of_list (List.rev dedicated) }

(* Payload + tables of one stream under [cc]. *)
let ccode_cost ~value_bits si cc tbl =
  let payload ctx syms acc = acc + bits_under (Coder.code_for cc si ctx) syms in
  Hashtbl.fold payload tbl 0 + context_table_bits ~value_bits cc

let context_model regions =
  let raw = gather ~alphabets:Coder.no_alphabets regions in
  let ranked = gather ~alphabets:register_alphabets regions in
  let alphabets = Array.make Coder.stream_count [||] in
  let per_stream =
    Array.init Coder.stream_count (fun si ->
        if Hashtbl.length raw.(si) = 0 then None
        else begin
          let value_bits = Coder.stream_value_bits Coder.stream_of_index.(si) in
          let cc_raw = build_ccode ~value_bits raw.(si) in
          if not (is_reg_stream Coder.stream_of_index.(si)) then Some cc_raw
          else begin
            let cc_mtf = build_ccode ~value_bits ranked.(si) in
            let cost cc tbl = ccode_cost ~value_bits si cc tbl in
            if cost cc_mtf ranked.(si) < cost cc_raw raw.(si) then begin
              alphabets.(si) <- register_alphabets.(si);
              Some cc_mtf
            end
            else Some cc_raw
          end
        end)
  in
  { Coder.per_stream; alphabets }

(* ------------------------------------------------------------------ *)

let build_codes ?(backend = `Split_stream) regions =
  let model =
    match backend with
    | `Split_stream -> single_code_model regions
    | `Context -> context_model regions
  in
  { backend; model }

let table_bits { backend; model } =
  let total = ref 0 in
  Array.iteri
    (fun si cc ->
      Option.iter
        (fun cc ->
          let stream = Coder.stream_of_index.(si) in
          let value_bits = Coder.stream_value_bits stream in
          total :=
            !total
            +
            match backend with
            | `Split_stream -> Coder.code_tables_bits ~value_bits cc
            | `Context ->
              (* +1: the shipped MTF flag of a register stream. *)
              (if is_reg_stream stream then 1 else 0) + context_table_bits ~value_bits cc)
        cc)
    model.Coder.per_stream;
  !total

let encode_regions codes regions = Coder.encode_regions codes.model regions

let decode_region codes blob ~bit_offset ?bit_end () =
  let (_, work) as decoded = Coder.decode_region codes.model blob ~bit_offset in
  match bit_end with
  | Some e when bit_offset + work.bits > e ->
    raise
      (Bitio.Corrupt_stream
         (Printf.sprintf "Compress.decode_region: region read %d bits past its end"
            (bit_offset + work.bits - e)))
  | _ -> decoded

let compressed_bits codes regions =
  let blob, _ = encode_regions codes regions in
  8 * String.length blob

let stream_stats codes = Coder.stream_stats codes.model
let stream_bits codes regions = Coder.stream_bits codes.model regions
