(** Construction of the squashed executable image (paper, Section 2).

    Memory map of a squashed program (byte addresses):

    {v
    0x01_0000  never-compressed code, entry stubs, retained jump
               tables, then the decompressor's code area (whose entry
               points the VM hooks; its words are sentinels so that a
               stray jump into it traps)
    0x20_0000  function offset table (one word per region), then the
               compressed code as raw words
    0x30_0000  restore-stub area (max_stubs slots of 4 words)
    0x31_0000  runtime buffer
    0x40_0000  data segment (unchanged)
    v}

    Entry stubs are emitted {e in place} — at the position their block
    would have occupied — so fallthrough edges and call-return paths from
    never-compressed code land on the right stub with no extra jumps.  A
    2-word stub uses a register that the liveness analysis proves dead at
    the block entry; when none exists the 3-word push form is used
    (paper, Section 2.3). *)

type region_image = {
  rid : int;
  buffer_words : int;  (** Total buffer words needed (expansions counted). *)
  stream : Instr.t list;
      (** The region's code in marker form, as fed to the compressor: one
          instruction per buffer word, except that an expanding call is one
          marker that {!materialise} turns into two words — a [Bsrx]
          becomes [bsr ra, CreateStub ; br disp], a [Jsr] with hint 1
          becomes [bsr ra, CreateStub ; jmp (rb)]. *)
  block_offset : (string * int, int) Hashtbl.t;
}

type t = {
  prog : Prog.t;  (** The (unswitched) program the image was built from. *)
  text : Easm.image;
  images : region_image array;
  blob : string;  (** Compressed bitstream bytes. *)
  blob_offsets : int array;  (** Bit offset of each region. *)
  codes : Compress.codes;
  regions : Regions.t;
  (* Fixed addresses: *)
  blob_base : int;
  stub_base : int;
  max_stubs : int;
  buffer_base : int;
  buffer_words : int;  (** Allocated buffer size (max region + 2). *)
  decomp_base : int;
  decomp_words : int;
  entry_addr : int;
  (* Stub accounting: *)
  entry_stub_words : int;  (** Total words spent on entry stubs. *)
  push_form_stubs : int;  (** Entry stubs that had to use the 3-word form. *)
  stub_addrs : ((string * int) * int) list;
      (** Address of each entry point's stub, keyed by (function, block). *)
  func_entry_addrs : (string * int) list;
      (** Address of each function's block-0 label — real code or an entry
          stub.  Functions whose block 0 was removed as a region interior
          (possible only for uncalled functions) are omitted.  This is the
          reverse map {!Verify} uses to name the callee of a plain [bsr]
          the rewrite left in compressed code. *)
  block_addrs : ((string * int) * int) list;
      (** Text address of every {e bound} block label — hot blocks and
          region entry stubs.  Region interiors have no address (their
          code exists only in the compressed stream), so they are absent.
          This is the address oracle the equivalence prover ({!Prove})
          resolves external branch and call targets against. *)
  table_addrs : ((string * int) * int) list;
      (** Text address of each retained jump table, keyed by
          [(function, table id)]. *)
}

val decomp_entry : t -> Reg.t -> int
(** Address of the decompressor entry point for return-address register
    [r]. *)

val decomp_entry_push : t -> int
val create_stub_entry : t -> Reg.t -> int

val is_marker : Instr.t -> bool
(** [Bsrx] and [Jsr] with hint 1: the stream words that materialise as
    two buffer words. *)

val materialise :
  t -> Instr.t list -> base:int -> delta:int -> put:(int -> Instr.t -> unit) -> int
(** [materialise t stream ~base ~delta ~put] lays a region's decoded
    stream out for a buffer slot starting at byte address [base]: markers
    expand through the CreateStub entries, and every pc-relative
    displacement that leaves the buffer is re-aimed by [delta] words (the
    slot's offset from slot 0, [buffer_words * slot]).  [put i ins]
    receives buffer word [i]; the result is the number of words put.  The
    runtime decompressor encodes each word into VM memory, and the prover
    executes them symbolically, so both see the same code. *)

val blob_base : int
val stub_base : int
val buffer_base : int
val default_decomp_words : int
val default_max_stubs : int

val build :
  Prog.t ->
  regions:Regions.t ->
  buffer_safe:Buffer_safe.t ->
  ?decomp_words:int ->
  ?max_stubs:int ->
  ?coder:Compress.backend ->
  unit ->
  t

val blob_words : t -> int
val offset_table_words : t -> int
val code_table_words : t -> int
val never_compressed_words : t -> int
(** Includes entry stubs, retained tables and the decompressor area. *)

val total_words : t -> int
(** The full squashed footprint in words: never-compressed part, offset
    table, compressed code, code tables, stub area, runtime buffer. *)
