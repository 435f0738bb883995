(** Canonical Huffman codes (paper, Section 3).

    A canonical code is fully determined by [N.(i)] — the number of
    codewords of each length [i] — plus the symbol array [D] ordered by
    codeword value.  Codewords of length [i] are the consecutive [i]-bit
    values [b_i, b_i + 1, ...] where [b_1 = 0] and
    [b_i = 2 (b_(i-1) + N.(i-1))].

    Decoding is table-driven: construction builds a first-[N]-bits lookup
    table (a code-length-limited canonical table, at most [2^9] entries)
    mapping every probe value that starts with a short codeword straight to
    its (symbol, length); codewords longer than the probe width fall back
    to the paper's DECODE loop, which consumes one bit per iteration and
    needs no pointer-based tree.  The table is plain data that ships with
    the model inside squash results. *)

type t

exception Invalid_code of string
(** Raised by {!of_lengths} on a length multiset no prefix code can have:
    a length outside [1, 48], or a Kraft sum above 1 (which would assign
    overlapping codewords that silently decode to wrong symbols).
    Under-full codes — e.g. the single length-1 codeword of a one-symbol
    alphabet — are legal; their unused codeword space decodes as a corrupt
    stream. *)

val of_lengths : (int * int) list -> t
(** Build from [(symbol, length)] pairs as returned by
    {!Huffman.code_lengths} (sorted by (length, symbol)), validating the
    Kraft inequality and building the decode table.
    @raise Invalid_code on an invalid length multiset. *)

val of_freqs : (int * int) list -> t
(** [of_lengths (Huffman.code_lengths freqs)]. *)

val symbol_count : t -> int
val max_length : t -> int

val symbols : t -> int array
(** [D]: symbols in codeword order. *)

val codeword : t -> int -> (int * int) option
(** [(code, length)] for a symbol, if the symbol is in the alphabet. *)

val encode : t -> Bitio.Writer.t -> int -> unit
(** Append a symbol's codeword.
    @raise Invalid_argument on a symbol outside the alphabet. *)

val decode : t -> Bitio.Reader.t -> int * int * int
(** [decode t r] returns [(symbol, bits, probes)]: [bits] is the number of
    bits consumed (the codeword length) and [probes] the decode-table work
    — 1 for a table hit, [1 + bits] when the codeword was longer than the
    table and the bit loop ran.  [probes] feeds the coder's
    {!Coder.work.steps} so [Cost.decomp_per_step] keeps pricing real
    decoder effort.  @raise Bitio.Corrupt_stream on a corrupt or truncated
    stream. *)

val decode_bitloop : t -> Bitio.Reader.t -> int * int
(** The paper's DECODE loop, kept as the executable specification and the
    slow path of {!decode}: [(symbol, bits)] where [bits] equals the
    loop-iteration count.  @raise Bitio.Corrupt_stream on a corrupt or
    truncated stream. *)

val table_bits : value_bits:int -> t -> int
(** Size of the code representation that must ship with the compressed
    stream: the [N] array (16 bits per entry plus a 6-bit length count) and
    the [D] array at [value_bits] bits per symbol.  The decode table is
    rebuilt from those at load time, so it adds nothing here. *)
