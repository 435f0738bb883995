(* Backend dispatch for the coder abstraction.  The model data lives in a
   plain variant; [pack] wraps it in a first-class {!Coder.S} module at
   each use site. *)

type backend = [ `Split_stream | `Split_stream_mtf | `Context ]
type work = Coder.work = { bits : int; steps : int }

let coders : (string * backend) list =
  [ ("huffman", `Split_stream); ("mtf", `Split_stream_mtf); ("context", `Context) ]

type codes =
  | Huffman of Coder_split.plain_model
  | Huffman_mtf of Coder_split.mtf_model
  | Context_codes of Coder_context.model

type packed = Packed : (module Coder.S with type model = 'm) * 'm -> packed

let pack = function
  | Huffman m -> Packed ((module Coder_split.Plain), m)
  | Huffman_mtf m -> Packed ((module Coder_split.Mtf), m)
  | Context_codes m -> Packed ((module Coder_context.M), m)

let backend_of = function
  | Huffman _ -> `Split_stream
  | Huffman_mtf _ -> `Split_stream_mtf
  | Context_codes _ -> `Context

let backend_name backend = fst (List.find (fun (_, b) -> b = backend) coders)
let coder_name codes = backend_name (backend_of codes)

let build_codes ?(backend = `Split_stream) regions =
  match backend with
  | `Split_stream -> Huffman (Coder_split.Plain.build regions)
  | `Split_stream_mtf -> Huffman_mtf (Coder_split.Mtf.build regions)
  | `Context -> Context_codes (Coder_context.M.build regions)

let encode_regions codes regions =
  let (Packed ((module C), m)) = pack codes in
  C.encode_regions m regions

let decode_region codes blob ~bit_offset ?bit_end () =
  let (Packed ((module C), m)) = pack codes in
  let (_, work) as decoded = C.decode_region m blob ~bit_offset in
  match bit_end with
  | Some e when bit_offset + work.bits > e ->
    raise
      (Bitio.Corrupt_stream
         (Printf.sprintf "Compress.decode_region: region read %d bits past its end"
            (bit_offset + work.bits - e)))
  | _ -> decoded

let table_bits codes =
  let (Packed ((module C), m)) = pack codes in
  C.table_bits m

let compressed_bits codes regions =
  let blob, _ = encode_regions codes regions in
  8 * String.length blob

let stream_stats codes =
  let (Packed ((module C), m)) = pack codes in
  C.stream_stats m

let stream_bits codes regions =
  let (Packed ((module C), m)) = pack codes in
  C.stream_bits m regions

let mtf_gain_bits = Coder_split.mtf_gain_bits
