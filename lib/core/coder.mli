(** The coder model and its one encode/decode path.

    Every compression backend ({!Compress.coders}) builds the same model.
    Each of the 15 field streams gets a {!ccode}: a default canonical
    Huffman code plus any codes dedicated to single contexts.  An opcode's
    context is the previous opcode of its region (the sentinel's at region
    start); every other field's context is the current opcode, which the
    decoder always knows before it reads the field.  A stream may also be
    move-to-front coded over a per-stream alphabet: it then codes each
    value's rank in a recency list that restarts from the alphabet at every
    region, so regions stay independently decodable.  The paper's coder
    (Section 3) is the model with default codes only and no alphabets;
    the backends differ only in how {!Compress.build_codes} builds the
    model and what {!Compress.table_bits} charges for shipping it.

    Every region is sentinel-terminated: {!encode_regions} appends an
    encoded {!Instr.Sentinel} to each region, and {!decode_region} consumes
    it and stops there (paper, Section 2.1). *)

type work = {
  bits : int;  (** Bits consumed from the blob (DECODE-loop iterations). *)
  steps : int;
      (** Model steps: decode-table probes, one per dedicated-table pick
          and the rank of every move-to-front step.  The runtime charges
          them at {!Cost.model.decomp_per_step} cycles each. *)
}

type ccode = {
  default : Canonical.t option;
      (** The code of every context without a dedicated one; [None] when
          every context has one. *)
  dedicated : (int * Canonical.t) array;  (** (context, code), by context. *)
}

type model = {
  per_stream : ccode option array;
      (** At {!Instr.stream_index}; [None] for a stream no region uses. *)
  alphabets : int array array;
      (** At {!Instr.stream_index}: the move-to-front alphabet of the
          stream, or [[||]] for a stream coded by value. *)
}
(** Pure data: no closures or packed modules. *)

val stream_count : int

val stream_of_index : Instr.stream array
(** Every stream at its {!Instr.stream_index}. *)

val stream_value_bits : Instr.stream -> int
(** Field width of a stream's raw values, for storing code-table [D]
    entries. *)

val no_alphabets : int array array
(** Every stream coded by value. *)

val freqs_of_values : int list -> (int * int) list
(** Sorted (value, count) pairs. *)

val iter_symbols :
  alphabets:int array array ->
  ?at_region:(int -> unit) ->
  (int -> int -> int -> unit) ->
  Instr.t list array ->
  unit
(** The one symbol walk: [iter_symbols ~alphabets f regions] calls
    [f stream_index context symbol] for every field of every region,
    sentinel included, in encoding order, and [at_region i] before region
    [i]'s first symbol.  A stream with a non-empty alphabet hands over
    move-to-front ranks, the others raw values. *)

val code_for : ccode -> int -> int -> Canonical.t
(** [code_for cc stream_index context]: the code of a symbol of stream
    [stream_index] in [context].
    @raise Bitio.Corrupt_stream if [cc] has none. *)

val code_tables_bits : value_bits:int -> ccode -> int
(** The [N]/[D] tables of a stream's codes. *)

val encode_regions : model -> Instr.t list array -> string * int array
(** [(blob, offsets)]: the compressed bytes and each region's starting bit
    offset.  Regions are laid out back to back, so each one ends where the
    next starts. *)

val decode_region : model -> string -> bit_offset:int -> Instr.t list * work
(** Decode one region (the sentinel is consumed but not returned).
    @raise Bitio.Corrupt_stream on a corrupt stream. *)

val stream_stats : model -> (string * int * float) list
(** Per stream: name, distinct symbols over all its codes, max codeword
    length. *)

val stream_bits : model -> Instr.t list array -> (string * int) list
(** Encoded bits contributed by each stream over the given regions
    (excluding tables), in stream order; zero totals are omitted. *)

(** Move-to-front state: one recency array per stream. *)
module Mtf_state : sig
  type t

  val create : int array array -> t
  (** One recency array per stream, starting as a copy of its alphabet;
      [[||]] where the stream is not move-to-front coded. *)

  val rank_of : t -> int -> int -> int
  (** [rank_of t si v]: rank of [v] in stream [si], then move it to the
      front.  @raise Failure if [v] is not in the alphabet. *)

  val value_at : t -> int -> int -> int
  (** [value_at t si rank]: value at [rank] in stream [si], then move it to
      the front.  @raise Bitio.Corrupt_stream if the rank is out of
      range. *)
end
