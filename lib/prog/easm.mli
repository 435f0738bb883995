(** A tiny two-pass emission assembler.

    Every text image ({!Layout.emit}, which squash's rewrite also emits
    through) is made of machine words from this module: raw words,
    concrete instructions, and label-relative items (PC-relative branches,
    absolute address words, and [lda]/[ldah] address-materialisation pairs)
    whose displacements are patched once all labels are bound.  A label is
    a plain value, not tied to one assembler, so a caller can make the
    labels that code emitted through another module will reference.

    Every emitted word carries an optional {e owner} tag — [(function name,
    block index)] — used to map execution profiles back to basic blocks. *)

type t
type label

val create : base:int -> t
(** [base] is the byte address of the first emitted word; it must be
    word-aligned. *)

val fresh_label : string -> label
(** Create an unbound label; the string is only for error messages. *)

val label_at : string -> int -> label
(** A label pre-bound to an absolute byte address outside the emitted
    stream. *)

val address : label -> int option
(** The byte address a label is bound to; [None] while unbound. *)

val bind : t -> label -> unit
(** Bind a label to the current position.  @raise Invalid_argument if the
    label is already bound. *)

val here : t -> int
(** Byte address of the next word to be emitted. *)

val set_owner : t -> (string * int) option -> unit
(** Owner stamped on subsequently emitted words. *)

val word : t -> Word.t -> unit
val instr : t -> Instr.t -> unit

val branch : t -> [ `Br | `Bsr | `Bsrx ] -> Reg.t -> label -> unit
(** PC-relative branch to a label. *)

val cbranch : t -> Instr.cond -> Reg.t -> label -> unit
val addr_word : t -> label -> unit
(** Emit the label's absolute address as a data word (jump-table entry). *)

val load_addr : t -> Reg.t -> label -> unit
(** Emit the 2-instruction [ldah]/[lda] pair materialising the label's
    absolute address. *)

type image = {
  words : int array;
  owners : (string * int) option array;
}

val finish : t -> image
(** Resolve all fixups.
    @raise Failure if a label was never bound or a displacement does not
    fit its field. *)

val split_addr : int -> int * int
(** [split_addr a = (hi, lo)] such that [(hi lsl 16) + sext16 lo = a], for
    the [ldah]/[lda] pair.  Only valid for addresses below 2 GiB (all code
    and data addresses are). *)

val split_const : int -> int * int
(** Like {!split_addr} but for arbitrary 32-bit constants: the identity
    only holds modulo 2{^32}, and both halves fit their signed 16-bit
    fields. *)
