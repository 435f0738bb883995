(** Compression of instruction sequences: two backends that build one
    {!Coder.model} and share its one encode/decode path.

    - [`Split_stream] (the paper's scheme, Section 3): each of the 15
      instruction field types gets its own canonical Huffman code, built
      over all compressible regions at once.  Because the opcode determines
      the remaining fields of an instruction, the per-stream codeword
      sequences merge into a single bitstream per region.
    - [`Context] (beyond the paper): order-1 context modeling.  A context
      (the previous opcode for an opcode, the current opcode for a field)
      gets a dedicated code where the bits it saves pay for its table, and
      a register stream is move-to-front coded over the register file
      (which never ships) where that measures cheaper.

    The paper also weighs move-to-front coding every stream and leaves it
    out: the ranks compress no better and the decoder grows larger and
    slower.  Here move-to-front is only the context model's per-register-
    stream choice.

    The backends differ only in how {!build_codes} builds the model and
    what {!table_bits} charges for shipping it.  Each region's stream ends
    with an encoded [Sentinel], at which decompression stops (paper,
    Section 2.1).  {!coders} is the one table of backend names. *)

type backend = [ `Split_stream | `Context ]

val coders : (string * backend) list
(** Every backend under its stable lower-case name ("huffman",
    "context"), in that order.  The CLI's [--coder], the experiment memo
    keys and {!coder_name} all read this table. *)

type work = Coder.work = {
  bits : int;  (** Bits consumed from the blob. *)
  steps : int;  (** Model steps: table probes, MTF walks, context-table picks. *)
}

type codes
(** Pure data: a backend tag plus its {!Coder.model}. *)

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
    [N]/[D] arrays per code (plus the context coder's context ids and
    move-to-front flags). *)

val compressed_bits : codes -> Instr.t list array -> int
(** Total encoded size of the given regions in bits (whole bytes),
    excluding tables. *)

val stream_stats : codes -> (string * int * float) list
(** Per stream: name, distinct symbols, max codeword length. *)

val stream_bits : codes -> Instr.t list array -> (string * int) list
(** Encoded bits contributed by each stream over the given regions
    (excluding tables); streams that contribute nothing are omitted. *)
