(** The squash driver: profile-guided code compression end to end.

    Given a (typically squeezed) program and an execution profile, identify
    cold code at threshold [θ], form compressible regions bounded by [K],
    compress them with the split-stream canonical-Huffman coder, and build
    the rewritten executable with its runtime.

    The size metric follows the paper: a squashed program's footprint
    includes the never-compressed code, the entry stubs, the decompressor,
    the function offset table, the compressed code and its code tables, the
    restore-stub area, and the runtime buffer. *)

type options = Pass.options = {
  theta : float;  (** Cold-code threshold θ ∈ [0, 1]. *)
  k_bytes : int;  (** Runtime-buffer bound K (default 512). *)
  gamma : float;  (** Assumed compression factor for profitability. *)
  pack : bool;  (** Region packing pass (Section 4). *)
  use_buffer_safe : bool;  (** Buffer-safe call optimisation (Section 6.1). *)
  sharp_buffer_safe : bool;
      (** Sharpened buffer-safe analysis: indirect calls contribute their
          resolved candidate targets instead of poisoning the chain.  See
          {!Buffer_safe.analyze_sharp}. *)
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

type result = {
  squashed : Rewrite.t;
  cold : Cold.t;
  regions : Regions.t;
  buffer_safe : Buffer_safe.t;
  resolved_jumps : (string * int) list;
      (** Indirect-jump sites the resolve pass annotated with an inferred
          jump table. *)
  unswitched : (string * int) list;
  excluded_funcs : string list;
      (** Functions exempted from compression: the entry function, setjmp
          callers, functions with unanalysable indirect jumps. *)
  original_words : int;  (** Footprint of the input program (words). *)
  squashed_words : int;
  options : options;
  stats : Pipeline.run_stats;
      (** Per-pass wall-clock timing and size deltas from the pipeline
          run; render with {!Pipeline.render_stats} or
          {!Pipeline.stats_json}. *)
}

val run :
  ?options:options -> ?setjmp_callers:string list -> ?check_each:bool ->
  ?lint:bool -> ?prove:bool -> ?trace:(string -> unit) -> ?obs:Obs.t ->
  Prog.t -> Profile.t -> result
(** A thin composition of the squash pass list: equivalent to
    [Pipeline.execute ~passes:(Pipeline.of_options options)] over
    [Pass.init].

    [setjmp_callers] names functions that call [setjmp]; the paper never
    compresses them (Section 2.2).  They are also detected directly from
    the program's [Sys setjmp] instructions, so the argument is only needed
    for call sites hidden behind indirection.

    [check_each] validates the IR ({!Prog.validate}, plus the profile's
    block indices) after every pass and raises {!Pipeline.Check_failed}
    naming the pass that broke an invariant.  The other two flags are the
    levels of the image gate ({!Verify}).  [lint] appends {!Pipeline.lint_pass}
    ({!Verify.run} over the finished image), raising
    {!Pipeline.Check_failed} as pass ["lint"] on any error-severity
    diagnostic.  [prove] appends {!Pipeline.prove_pass}, the symbolic
    equivalence prover ({!Prove}) over two cache slots, raising
    {!Pipeline.Check_failed} as pass ["prove"] on any unproved region.
    [trace] receives a one-line report per pass as it completes; [obs]
    receives pass-span events (see {!Pipeline.execute}). *)

val size_reduction : result -> float
(** [(original - squashed) / original], the quantity of Figures 6/7(a). *)

type size_breakdown = {
  never_compressed : int;
  entry_stubs : int;  (** Included in [never_compressed]; shown separately. *)
  decompressor : int;
  offset_table : int;
  compressed_code : int;
  code_tables : int;
  stub_area : int;
  runtime_buffer : int;
}

val breakdown : result -> size_breakdown
(** All fields in words. *)

val compressed_instr_count : result -> int
val gamma_achieved : result -> float
(** Actual compressed size / original size of the compressed regions
    (including code tables) — the paper reports ≈ 0.66. *)

val pp_summary : Format.formatter -> result -> unit
