(** Canonical layout: pin every block of a {!Prog.t} to an address and emit
    the executable image that the VM runs and the profiler attributes counts
    against.

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
          jump-table data words. *)
  entry_addr : int;
  func_entry : (string, int) Hashtbl.t;
  block_addr : (string * int, int) Hashtbl.t;
      (** Address of the first word of each (function, block). *)
  table_addr : (string * int, int) Hashtbl.t;
      (** Address of each (function, table id). *)
  data_base : int;
  data_words : int;
  data_init : (int * Word.t) list;
}

val emit : Prog.t -> image
(** Emit under the canonical layout (blocks in index order).
    @raise Failure on unbound labels or displacement overflow;
    run {!Prog.validate} first for friendlier errors. *)

val text_words : image -> int
(** Code size of the image in words (the paper's size metric counts
    everything in the text segment, including jump tables). *)
