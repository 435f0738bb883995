(** Bit-level I/O.  Bits are written and read MSB-first within each byte,
    matching the order in which canonical Huffman codewords are compared in
    the DECODE loop. *)

exception Corrupt_stream of string
(** The one error every corrupt compressed stream surfaces as: a reader
    running past the end of its data, or a decoder ({!Canonical.decode})
    meeting bits that no codeword explains.  The VM and lint layers catch
    this single exception instead of pattern-matching on
    [Invalid_argument] / [Failure] strings. *)

module Writer : sig
  type t

  val create : unit -> t

  val put : t -> bits:int -> int -> unit
  (** Append the low [bits] bits of the value, most significant first.
      [bits] may be 0 (writes nothing). *)

  val length_bits : t -> int

  val contents : t -> string
  (** The bit string padded with zero bits to a whole number of bytes. *)
end

module Reader : sig
  type t

  val of_string : ?start_bit:int -> string -> t

  val next_bit : t -> int
  (** @raise Corrupt_stream when reading past the end. *)

  val read : t -> bits:int -> int

  val peek : t -> bits:int -> int
  (** The next [bits] bits without consuming them, MSB-first, assembled
      through a whole-byte accumulator (at most ⌈([bits]+7)/8⌉+1 byte
      loads).  Bits past the end of the data read as zero, so a probe near
      the end never raises — only {!advance} commits to consumption.
      [bits] ≤ 56 so the window fits an OCaml int. *)

  val advance : t -> bits:int -> unit
  (** Consume [bits] bits previously inspected with {!peek}.
      @raise Corrupt_stream when the move would pass the end. *)

  val pos : t -> int
  (** Current position in bits from the start of the string. *)

  val seek : t -> int -> unit
  val remaining_bits : t -> int
end
