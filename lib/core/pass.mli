(** The pass abstraction underlying the squash pipeline.

    The paper's tool is a sequence of distinct transformations — cold-block
    identification (§5), jump-table unswitching (§6.2), region formation
    (§4), buffer-safe analysis (§6.1) and the stub/decompressor rewrite
    (§2–3).  Each becomes a named {!t} over an explicit {!state} record
    that carries the program, the profile and every accumulated analysis.
    {!Pipeline} runs them in that fixed order, timing each and optionally
    validating the IR after each; {!Squash.run} is a thin wrapper over
    that list. *)

type options = {
  theta : float;  (** Cold-code threshold θ ∈ [0, 1]. *)
  k_bytes : int;  (** Runtime-buffer bound K (default 512). *)
  gamma : float;  (** Assumed compression factor for profitability. *)
  pack : bool;  (** Region packing pass (Section 4). *)
  use_buffer_safe : bool;  (** Buffer-safe call optimisation (Section 6.1). *)
  sharp_buffer_safe : bool;
      (** Use the sharpened buffer-safe analysis
          ({!Buffer_safe.analyze_sharp}): indirect calls contribute their
          resolved candidate-target edges instead of poisoning the whole
          call chain.  Only meaningful with [use_buffer_safe]; default
          off. *)
  unswitch : bool;  (** Jump-table unswitching (Section 6.2). *)
  decomp_words : int;
  max_stubs : int;
  coder : Compress.backend;  (** Compression backend (Section 3 and its
                                 variants); default [`Split_stream]. *)
  regions_strategy : Regions.strategy;  (** Region construction algorithm. *)
}

val default_options : options
(** θ = 0.0, K = 512, γ = 0.66, all optimisations on, split-stream
    Huffman. *)

type state = {
  prog : Prog.t;  (** The working program; unswitching replaces it. *)
  profile : Profile.t;
  options : options;
  seed_excluded : string list;
      (** Caller-supplied setjmp callers (call sites hidden behind
          indirection that the syscall scan cannot see). *)
  original_words : int;  (** Footprint of the input program, fixed at
                             {!init} time. *)
  cold : Cold.t option;
  resolved_jumps : (string * int) list;
      (** [(func, block)] sites whose [table = None] indirect jump the
          resolve pass annotated with its inferred jump table. *)
  unswitched : (string * int) list;
  unmatched : string list;
  excluded : string list option;  (** [Some l] once exclusions ran;
                                      sorted. *)
  regions : Regions.t option;
  buffer_safe : Buffer_safe.t option;
  squashed : Rewrite.t option;
  lint : Verify.diag list option;
      (** The lint level's diagnostics (warnings only, since errors stop
          the pipeline), once the ["lint"] pass ran. *)
  proof : Prove.report option;  (** The prove level's report, once the
                                    ["prove"] pass ran. *)
}

val init :
  ?options:options -> ?setjmp_callers:string list -> Prog.t -> Profile.t ->
  state
(** The state every pipeline starts from: no analyses computed yet. *)

type t = {
  name : string;  (** Names the pass in stats, traces and
                      {!Pipeline.Check_failed}. *)
  transform : state -> state;
  note : state -> string;
      (** One-line summary of what the pass did, read off the post-state
          (shown by [--trace-passes] and recorded in {!stats}). *)
}

type stats = {
  pass_name : string;
  cost : Obs.cost;  (** Time and allocation of [transform]. *)
  instrs_before : int;  (** [Prog.instr_count] of the working program. *)
  instrs_after : int;
  words_before : int;  (** {!footprint} — program text words, or the full
                           squashed footprint once the rewrite ran. *)
  words_after : int;
  note : string;
}

val footprint : state -> int
(** The current size in words: [Rewrite.total_words] of the squashed image
    when present, [Prog.text_words] of the working program otherwise. *)

val get_cold : who:string -> state -> Cold.t
val get_regions : who:string -> state -> Regions.t
val get_buffer_safe : who:string -> state -> Buffer_safe.t
val get_excluded : who:string -> state -> string list
val get_squashed : who:string -> state -> Rewrite.t
(** Accessors that fail with [Invalid_argument] naming [who] and the
    missing pass when the analysis has not been computed. *)
