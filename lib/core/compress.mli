(** Compression of instruction sequences, with three interchangeable
    backends dispatched through the {!Coder.S} signature:

    - [`Split_stream] (the paper's scheme, Section 3): each of the 15
      instruction field types gets its own canonical Huffman code, built
      over all compressible regions at once.  Because the opcode determines
      the remaining fields of an instruction, the per-stream codeword
      sequences merge into a single bitstream per region.
    - [`Split_stream_mtf] (the paper's move-to-front variant): each stream
      is move-to-front transformed before Huffman coding.  The recency
      lists reset at every region boundary so regions stay independently
      decodable.  It trades better compression on some streams for a
      larger, slower decompressor — exactly the trade-off the paper notes.
    - [`Context] (beyond the paper): order-1 context modeling.  Opcodes are
      conditioned on the previous opcode, every other stream on the current
      opcode, and register streams are move-to-front coded over per-region
      recency lists that never ship.  See {!Coder_context}.

    Each region's stream ends with an encoded [Sentinel], at which
    decompression stops (paper, Section 2.1).  {!coders} is the one table
    of backend names. *)

type backend = [ `Split_stream | `Split_stream_mtf | `Context ]

val coders : (string * backend) list
(** Every backend under its stable lower-case name ("huffman", "mtf",
    "context"), in that order.  The CLI's [--coder], the experiment memo
    keys and {!coder_name} all read this table. *)

type work = Coder.work = {
  bits : int;  (** Bits consumed from the blob. *)
  steps : int;  (** Model steps: table probes, MTF walks, context-table picks. *)
}

type codes
(** Pure data: a backend tag plus its model. *)

val build_codes : ?backend:backend -> Instr.t list array -> codes
(** Build the coder model from all region instruction sequences (the
    sentinels are added internally).  Default backend: [`Split_stream]. *)

val backend_of : codes -> backend

val backend_name : backend -> string
(** The backend's name in {!coders}. *)

val coder_name : codes -> string
(** [backend_name (backend_of codes)]. *)

val encode_regions : codes -> Instr.t list array -> string * int array
(** [(blob, offsets)]: the compressed bytes and each region's starting bit
    offset.  Regions are laid out back to back. *)

val decode_region :
  codes -> string -> bit_offset:int -> ?bit_end:int -> unit -> Instr.t list * work
(** Decode one region (the sentinel is consumed but not returned).  Returns
    the instructions and the decode {!work}, which the runtime converts
    into cycles.  [bit_end] is where the region must end at the latest:
    the next region's offset.  A decode that consumes bits past it
    ([bit_offset + work.bits > bit_end]) is corrupt.
    @raise Bitio.Corrupt_stream on a corrupt stream. *)

val table_bits : codes -> int
(** Footprint of the code representations that must ship with the blob:
    [N]/[D] arrays per code (plus the move-to-front alphabets and the
    context ids). *)

val compressed_bits : codes -> Instr.t list array -> int
(** Total encoded size of the given regions in bits (whole bytes),
    excluding tables. *)

val stream_stats : codes -> (string * int * float) list
(** Per stream: name, distinct symbols, max codeword length. *)

val stream_bits : codes -> Instr.t list array -> (string * int) list
(** Encoded bits contributed by each stream over the given regions
    (excluding tables); streams that contribute nothing are omitted. *)

val mtf_gain_bits : Instr.t list array -> (string * int) list
(** For each stream, the change in total Huffman-coded bits if the stream
    were move-to-front transformed first (negative = MTF helps).  Used by
    the ablation bench. *)
