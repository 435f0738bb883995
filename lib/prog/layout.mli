(** Canonical layout: pin every block of a {!Prog.t} to an address and emit
    the executable image that the VM runs and the profiler attributes counts
    against.  A squashed image is the same layout with some blocks
    swapped for entry stubs or dropped ({!placement}), so squash's rewrite
    emits its never-compressed text through {!emit} too and carries the
    same {!image} record.

    Memory map (byte addresses):
    - text segment at {!text_base}, functions in program order, each
      function's jump tables right after its code;
    - data segment at {!data_base}; the heap starts immediately after the
      initialised data and grows via [sbrk];
    - the stack starts at {!stack_top} and grows down. *)

val text_base : int
val data_base : int
val stack_top : int
val mem_bytes : int
(** Total simulated memory size. *)

type image = {
  text_base : int;
  text : int array;  (** Raw words: instructions and jump-table entries. *)
  owners : (string * int) option array;
      (** Per text word: the (function, block) that owns it; [None] for
          jump-table data words and anything emitted after the functions. *)
  entry_addr : int;  (** Address of the entry function's block 0. *)
  block_addr : (string * int, int) Hashtbl.t;
      (** Address of the first word of each placed (function, block); a
          function's entry is its block 0.  Blocks placed {!Absent} have
          none. *)
  table_addr : (string * int, int) Hashtbl.t;
      (** Address of each (function, table id). *)
  data_base : int;
  data_words : int;
  data_init : (int * Word.t) list;
}

(** What {!emit} puts at one block's position. *)
type placement =
  | Code  (** The block's items and terminator (the canonical layout). *)
  | Stub of (Easm.t -> unit)
      (** Other words, emitted by the function at the block's label and
          owned by the block: squash's entry stub for a region block. *)
  | Absent
      (** Nothing, and no address: the block's code lives outside the text
          (a region interior).  A reference to it fails to emit. *)

val emit :
  ?place:(Prog.Func.t -> int -> placement) -> ?tail:(Easm.t -> unit) -> Prog.t -> image
(** Emit every function in program order: each block at its position as
    [place f i] says (default: all {!Code}, the canonical layout), then the
    function's jump tables, whose entries point at the blocks' labels.
    [place] is applied to each function once, before its blocks.  [tail]
    (default: nothing) emits further words after the last function, with no
    owner; squash's rewrite ([Rewrite.build]) shares this emitter, adding
    its entry stubs through [place] and its decompressor area through
    [tail].
    @raise Failure on a call to an undefined function, on unbound labels
    (a reference to an {!Absent} block) or displacement overflow; run
    {!Prog.validate} first for friendlier errors. *)

val text_words : image -> int
(** Code size of the image in words (the paper's size metric counts
    everything in the text segment, including jump tables). *)
