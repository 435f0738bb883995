(** The instrumented pass pipeline behind {!Squash.run}.

    The standard pipeline is the paper's transformation sequence, one
    {!Pass.t} per stage:

    - ["resolve"] — constant-propagation resolution of unannotated
      indirect jumps: a [Jump_indirect { table = None; _ }] whose register
      provably holds an entry of one jump table gains that table
      annotation, shrinking both the never-compress set and every
      successor over-approximation downstream (§6.2)
    - ["cold"] — cold-block identification (§5)
    - ["unswitch"] — jump-table unswitching (§6.2); omitted by
      {!of_options} when [options.unswitch] is false
    - ["exclude"] — never-compress set: the entry function, setjmp
      callers, functions with unanalysable indirect jumps, and unmatched
      dispatches (§2.2, §6.2)
    - ["regions"] — compressible-region formation and packing (§4)
    - ["buffer-safe"] — buffer-safety analysis (§6.1); honours
      [options.use_buffer_safe] by treating every function as unsafe when
      the optimisation is off, and [options.sharp_buffer_safe] by running
      {!Buffer_safe.analyze_sharp} instead of the conservative analysis
    - ["rewrite"] — the stub/decompressor image build (§2–3)

    {!execute} runs a pass list over a {!Pass.state}, recording per-pass
    wall-clock time and instruction/word deltas, optionally tracing each
    pass and validating the IR (and, once present, the squashed image)
    after every pass.

    The image gate has three levels, all reporting {!Verify.diag} values:
    structure ({!Verify.structure}, after every pass under
    [~check_each:true]), lint ({!lint_pass}) and prove ({!prove_pass}).
    Each gate pass stores its result in the state ([Pass.lint],
    [Pass.proof]), and its note reads it back rather than checking
    again. *)

exception Check_failed of { pass : string; errors : string list }
(** Raised by [execute ~check_each:true] when validation fails after a
    pass: the damage happened in exactly [pass]. *)

val resolve_pass : Pass.t
val cold_pass : Pass.t
val unswitch_pass : Pass.t
val exclude_pass : Pass.t
val regions_pass : Pass.t
val buffer_safe_pass : Pass.t
val rewrite_pass : Pass.t

val lint_pass : Pass.t
(** The lint level: {!Verify.run} over the squashed image; raises
    {!Check_failed} (as pass ["lint"]) when any error-severity diagnostic
    fires.  Not part of {!standard}; append it (or pass [~lint:true] to
    {!Squash.run}) to lint as part of the pipeline. *)

val prove_pass : Pass.t
(** The prove level: {!Prove.run} with two cache slots over the squashed
    image; raises {!Check_failed} (as pass ["prove"]) when any region block
    cannot be proved equivalent to its materialised rewrite.  Ordered after
    ["lint"] when both run, so structural diagnostics surface before
    equivalence ones. *)

val standard : Pass.t list
(** All seven passes, in paper order. *)

val of_options : Pass.options -> Pass.t list
(** The standard list with option-disabled passes removed (currently:
    ["unswitch"] when [options.unswitch] is false).  This replaces the old
    ad-hoc [if options.unswitch then … else] branch. *)

val skip : string list -> Pass.t list -> Pass.t list
(** Remove passes by name. *)

val by_name : string -> Pass.t option
(** Look up a standard pass, ["lint"] or ["prove"]. *)

val names : Pass.t list -> string list

type run_stats = {
  passes : Pass.stats list;  (** One record per executed pass, in order. *)
  total_s : float;  (** Wall-clock total across all passes. *)
}

val execute :
  ?check_each:bool ->
  ?trace:(string -> unit) ->
  ?obs:Obs.t ->
  passes:Pass.t list ->
  Pass.state ->
  Pass.state * run_stats
(** Run [passes] in order.

    Ordering is validated up front: every [requires] of a pass must appear
    earlier in the list, every [after] constraint must hold, and no name
    may repeat — violations raise [Invalid_argument] before anything runs.

    With [~check_each:true], {!Prog_check.check} (against the state's
    profile) runs after every pass, plus the gate's structure level
    ({!Verify.structure}, error-severity diagnostics only) once a squashed
    image exists; a failure raises {!Check_failed} naming the offending
    pass.  [trace] receives one line per pass as it completes.  [obs]
    receives {!Obs.Event.Pass_begin}/{!Obs.Event.Pass_end} span events
    (wall clock) and a ["pipeline.passes_run"] counter bump per pass. *)

val render_stats : run_stats -> string
(** An aligned text table of the per-pass statistics. *)

val stats_json : run_stats -> Report.Json.t
(** Machine-readable form: [{"total_s": …, "passes": [{"name": …,
    "elapsed_s": …, "instrs_before": …, "instrs_after": …,
    "words_before": …, "words_after": …, "note": …}, …]}]. *)
