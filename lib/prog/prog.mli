(** Symbolic program representation.

    A program is a list of functions; a function is an array of basic blocks;
    a basic block is a straight-line sequence of non-control-flow items plus
    a single terminator.  Control flow is symbolic (block indices and
    function names), so passes can move code freely; {!Layout} later pins
    every block to an address and resolves displacements.

    This plays the role that relocation information plays for the paper's
    binary-rewriting implementation: it lets us rebuild a reliable CFG.
    Jump tables are first-class ({!field:Func.tables}) and are emitted into
    the text segment after their function's code, as on the paper's
    platform. *)

type sym =
  | Func_addr of string  (** Address of a function's entry point. *)
  | Table_addr of int  (** Address of one of this function's jump tables. *)

type item =
  | Instr of Instr.t
      (** Any non-control-transfer instruction.  It is a structural error
          ({!validate}) for this to be a branch, jump, call or return. *)
  | Load_addr of Reg.t * sym
      (** Materialise a code address into a register; emitted as an
          [lda]/[ldah] pair (2 instructions). *)

type dest = int
(** Index of a basic block within the same function. *)

type term =
  | Fallthrough of dest
      (** Emits nothing if [dest] is laid out next, else a [br]. *)
  | Jump of dest
  | Branch of Instr.cond * Reg.t * dest * dest
      (** [Branch (op, ra, taken, fallthrough)]. *)
  | Call of { ra : Reg.t; callee : string; return_to : dest }
  | Call_indirect of { ra : Reg.t; rb : Reg.t; return_to : dest }
  | Jump_indirect of { rb : Reg.t; table : int option }
      (** Indirect jump; [table = Some tid] when the possible targets are
          exactly the entries of jump table [tid] (the analysable case of
          the paper's Section 6.2), [None] when unknown. *)
  | Return of { rb : Reg.t }
  | No_return
      (** Control never reaches the end of this block (it ends in [exit] or
          [longjmp]).  Emits nothing. *)

module Block : sig
  type t = { items : item list; term : term }

  val size : next:dest option -> t -> int
  (** Number of emitted instructions when the block laid out immediately
      after this one is [next] ([None] at the end of a function).  A
      fallthrough edge to a non-adjacent block costs one extra [br]; so does
      the fallthrough side of a conditional branch. *)

  val instr_count : t -> int
  (** Size assuming the fallthrough successor is laid out next (the
      canonical [|b|] used in the paper's cost function). *)
end

module Func : sig
  type t = {
    name : string;
    blocks : Block.t array;  (** Block 0 is the entry. *)
    tables : dest array array;  (** Jump tables, indexed by table id. *)
  }

  val table_words : t -> int
  (** Total words occupied by this function's jump tables. *)
end

type t = {
  funcs : Func.t list;  (** In layout order. *)
  entry : string;  (** Name of the start function. *)
  data_words : int;  (** Size of the data segment in 32-bit words. *)
  data_init : (int * Word.t) list;
      (** Initial data contents as (word offset, value) pairs. *)
}

val find_func : t -> string -> Func.t option
val func_names : t -> string list

val text_words : t -> int
(** Total text-segment size in words under the canonical layout, including
    jump tables. *)

val func_instr_count : Func.t -> int
(** Emitted instructions of one function, excluding jump-table data
    words. *)

val instr_count : t -> int
(** Total emitted instructions, excluding jump-table data words. *)

val validate : t -> (unit, string list) result
(** Check structural invariants and report {e every} violation, in
    program order: the entry function defined, no duplicate function,
    every [dest], table id and register in range, every callee and
    addressed function defined, no empty jump table, no control-transfer
    instruction hiding in [Instr], and — because the hardware return
    address is simply [pc + 4] — every call's [return_to] the lexically
    next block.  It also rejects the decompressor-reserved marker
    encodings ([Sentinel], [Bsrx], [Jsr] with hint 1) in a block body:
    they exist only inside compressed streams. *)

val successors : Func.t -> int -> dest list
(** Intra-function CFG successors of a block (call terminators fall through
    to [return_to]; indirect jumps through a known table yield its entries;
    unknown indirect jumps yield all blocks, conservatively). *)

val pp : Format.formatter -> t -> unit
val pp_func : Format.formatter -> Func.t -> unit
