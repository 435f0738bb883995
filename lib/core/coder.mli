(** The coder abstraction: the contract every compression backend satisfies.

    A {e coder} turns the instruction sequences of all compressible regions
    into one blob plus per-region offsets, and decodes any single region back,
    reporting the work done.  The three instances are the split-stream
    Huffman coder and its move-to-front variant ({!Coder_split}) and the
    order-1 context coder ({!Coder_context}).  {!Compress} holds a pure-data
    model value for the selected backend and dispatches through first-class
    modules.

    Every backend is sentinel-terminated: [build]/[encode_regions] append an
    encoded {!Instr.Sentinel} to each region, and {!decode_instrs}, the one
    decode loop they all share, consumes it and stops there (paper,
    Section 2.1). *)

type work = {
  bits : int;  (** Bits consumed from the blob (DECODE-loop iterations). *)
  steps : int;
      (** Model steps: decode-table probes, move-to-front list walks and
          context-table selections.  The runtime charges them at
          {!Cost.model.decomp_per_step} cycles each. *)
}

module type S = sig
  type model
  (** Pure data: no closures or packed modules. *)

  val build : Instr.t list array -> model
  (** Build the model from all region instruction sequences at once
      (sentinels are added internally). *)

  val encode_regions : model -> Instr.t list array -> string * int array
  (** [(blob, offsets)]: the compressed bytes and each region's starting
      bit offset.  Regions are laid out back to back, so each one ends
      where the next starts. *)

  val decode_region : model -> string -> bit_offset:int -> Instr.t list * work
  (** Decode one region (the sentinel is consumed but not returned).
      @raise Bitio.Corrupt_stream on a corrupt stream. *)

  val table_bits : model -> int
  (** Footprint of the code representations that must ship with the
      blob. *)

  val stream_stats : model -> (string * int * float) list
  (** Per stream: name, distinct symbols, max codeword length. *)

  val stream_bits : model -> Instr.t list array -> (string * int) list
  (** Encoded bits contributed by each stream over the given regions
      (excluding tables); the per-stream breakdown of [squashc squash
      --stream-bits] and the coder-ablation experiment. *)
end

(** {1 Shared helpers}

    The stream-view plumbing every split-stream backend uses. *)

val stream_count : int

val stream_of_index : Instr.stream array
(** Every stream at its {!Instr.stream_index}. *)

val stream_value_bits : Instr.stream -> int
(** Field width of a stream's raw values, for storing code-table [D]
    entries. *)

val with_sentinel : Instr.t list -> Instr.t list

val iter_fields : (int -> int -> unit) -> Instr.t -> unit
(** Visit every (stream index, value) of an instruction, opcode first. *)

val stream_values : Instr.t list array -> int list array
(** Per stream (indexed by {!Instr.stream_index}): every value of all
    regions, in encoding order. *)

val freqs_of_values : int list -> (int * int) list
(** Sorted (value, count) pairs. *)

val render_stream_bits : int array -> (string * int) list
(** Per-stream bit totals (indexed by {!Instr.stream_index}) as the
    [stream_bits] list: in stream order, zero totals omitted. *)

val decode_instrs : (Instr.stream -> int) -> Instr.t list
(** The decode loop of every backend: [decode_instrs read] reads an opcode,
    then the fields it implies, until the sentinel, and returns the
    instructions before it.  [read stream] decodes the next symbol of
    [stream].  Streams are read in encoding order, so the last opcode [read]
    returned is the previous instruction's when it is asked for an opcode
    and the current instruction's when it is asked for a field: a reader
    that conditions on opcodes ({!Coder_context}) keeps its own context.
    @raise Bitio.Corrupt_stream if the symbols do not form an instruction,
    and whatever [read] raises. *)

(** Move-to-front state: one recency array per stream. *)
module Mtf_state : sig
  type t

  val create : int array array -> t
  (** One recency array per stream; [[||]] where the stream is absent. *)

  val reset : t -> int array array -> unit
  (** Restore the initial alphabets (region boundary). *)

  val rank_of : t -> int -> int -> int
  (** [rank_of t si v]: rank of [v] in stream [si], then move it to the
      front.  @raise Failure if [v] is not in the alphabet. *)

  val value_at : t -> int -> int -> int
  (** [value_at t si rank]: value at [rank] in stream [si], then move it to
      the front.  @raise Bitio.Corrupt_stream if the rank is out of
      range. *)
end
