(** The SQ32 simulator.

    The VM executes a loaded image word by word, counting dynamic
    instructions and cycles (using a {!Cost.model}).  Three features exist
    specifically for this paper's system:

    - {b self-modifying text}: stores may target the text segment (the
      squash runtime buffer lives there); a per-word decode cache is
      invalidated on writes;
    - {b hooks}: an address range can be registered so that fetching from it
      runs an OCaml intrinsic instead of decoding a word — squash mounts its
      decompressor/CreateStub runtime this way while still charging
      simulated cycles;
    - {b profiling}: optional per-text-word execution counts, from which
      {!Profile} derives basic-block frequencies; a {!sampler} degrades
      the exact counts to deterministic periodic samples.

    {b Memory model.}  The {!Layout.mem_bytes} address space is
    demand-paged: memory is a table of {!page_bytes}-byte pages, and every
    entry starts at one shared zero page that is never written.  A page
    gets its own storage on the first non-zero store into it (a store of 0
    to an untouched page does nothing), so creating a VM costs time and
    space in proportion to its image, not to the address space.  The
    decode cache is kept per page the same way: a page's cache is
    allocated on the first fetch from it, and every store drops the cached
    decode of the word it writes.  Paging is invisible to programs: the
    alignment and range traps are those of a flat memory. *)

type t

exception Trap of { pc : int; reason : string }

type sampler = { period : int; seed : int }
(** Statistical profiling: instead of counting every executed text word,
    count roughly one in [period] (the stride is [period] plus a small
    jitter drawn from a [seed]ed xorshift generator, so sampling does not
    phase-lock with loop bodies yet stays fully reproducible).  A period
    of 1 degenerates to exact counting. *)

(** {1 Construction} *)

val create :
  ?cost:Cost.model ->
  ?fuel:int ->
  ?profile:bool ->
  ?sampler:sampler ->
  text_base:int ->
  text:int array ->
  entry:int ->
  data_base:int ->
  data_words:int ->
  data_init:(int * Word.t) list ->
  input:string ->
  unit ->
  t
(** [fuel] bounds the number of executed instructions (default 1e9);
    exceeding it raises [Trap].  [input] is the byte stream served by the
    [getc]/[getw] syscalls.  [sampler] only matters with [~profile:true].
    @raise Invalid_argument if the sampler's period is < 1, if [text_base]
    is unaligned, if [text] does not fit in memory at [text_base]
    (["Vm.create: text out of range"]), or if a [data_init] word falls
    outside memory. *)

val of_image :
  ?cost:Cost.model ->
  ?fuel:int ->
  ?profile:bool ->
  ?sampler:sampler ->
  Layout.image ->
  input:string ->
  t

val page_bytes : int
(** The size of one memory page (4 KiB); a constant of the simulator. *)

(** {1 Execution} *)

type outcome = {
  exit_code : int;
  output : string;
  icount : int;  (** Dynamic instructions executed (hooks not included). *)
  cycles : int;  (** Simulated cycles, including cycles charged by hooks. *)
  hook_invocations : int;
      (** Times the PC landed on a registered hook and its intrinsic ran. *)
}

val run : t -> outcome
(** Execute until the program exits.  @raise Trap on any machine trap. *)

val step : t -> bool
(** Execute one instruction (or one hook invocation); [false] once the
    program has exited. *)

(** {1 State access (used by the squash runtime and by tests)} *)

val pc : t -> int
val set_pc : t -> int -> unit
val reg : t -> Reg.t -> Word.t
val set_reg : t -> Reg.t -> Word.t -> unit
val load_word : t -> int -> Word.t
val store_word : t -> int -> Word.t -> unit
val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit
val add_cycles : t -> int -> unit
val icount : t -> int
val cycles : t -> int
val hook_invocations : t -> int

val install_hook : t -> addr:int -> (t -> unit) -> unit
(** Register an intrinsic at a word-aligned text address.  When the PC
    reaches it the intrinsic runs instead of an instruction fetch; it must
    set the PC itself. *)

val counts : t -> int array option
(** Per-text-word execution counts when created with [~profile:true];
    index [i] counts executions of the word at [text_base + 4*i].  Under a
    {!sampler} these are sampled hit counts, not exact executions. *)

val sample_hits : t -> int
(** Instructions the sampler chose to record (0 without a sampler). *)

val sample_skips : t -> int
(** Instructions the sampler skipped (0 without a sampler; with one,
    [sample_hits + sample_skips] equals the profiled instruction count). *)
