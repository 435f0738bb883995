(** The instrumented pass pipeline behind {!Squash.run}.

    The squash pipeline is the paper's transformation sequence, one
    {!Pass.t} per stage, always in this order:

    - ["resolve"] — constant-propagation resolution of unannotated
      indirect jumps: a [Jump_indirect { table = None; _ }] whose register
      provably holds an entry of one jump table gains that table
      annotation, shrinking both the never-compress set and every
      successor over-approximation downstream (§6.2)
    - ["cold"] — cold-block identification (§5)
    - ["unswitch"] — jump-table unswitching (§6.2); present only when
      [options.unswitch] is true
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
    pass and validating the IR after every pass.

    The image is checked by two gate passes, both reporting {!Verify.diag}
    values: lint ({!lint_pass}) and prove ({!prove_pass}).  Each stores
    its result in the state ([Pass.lint], [Pass.proof]), and its note
    reads it back rather than checking again. *)

exception Check_failed of { pass : string; errors : string list }
(** Raised by [execute ~check_each:true] when validation fails after a
    pass (the damage happened in exactly [pass]), and by the gate passes
    when the image fails them. *)

val of_options : Pass.options -> Pass.t list
(** The squash passes for [options], in the order above. *)

val lint_pass : Pass.t
(** The lint level: {!Verify.run} over the squashed image; raises
    {!Check_failed} (as pass ["lint"]) when any error-severity diagnostic
    fires.  Append it to {!of_options} (or pass [~lint:true] to
    {!Squash.run}) to lint as part of the pipeline. *)

val prove_pass : Pass.t
(** The prove level: {!Prove.run} with two cache slots over the squashed
    image; raises {!Check_failed} (as pass ["prove"]) when any region block
    cannot be proved equivalent to its materialised rewrite.
    {!Squash.run} appends it after ["lint"], so structural diagnostics
    surface before equivalence ones. *)

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
(** Run [passes] in order.  Any pass list runs; {!of_options} gives the
    squash pipeline, and tests insert passes of their own into it.

    With [~check_each:true], {!Prog.validate} runs after every pass,
    together with a check that every block the state's profile names still
    exists; a failure raises {!Check_failed} naming the offending pass.
    [trace] receives one line per pass as it completes.  [obs] receives
    {!Obs.Event.Pass_begin}/{!Obs.Event.Pass_end} span events (wall clock)
    and a ["pipeline.passes_run"] counter bump per pass. *)

val render_stats : run_stats -> string
(** An aligned text table of the per-pass statistics. *)

val stats_json : run_stats -> Report.Json.t
(** Machine-readable form: [{"total_s": …, "passes": [{"name": …,
    "elapsed_s": …, "instrs_before": …, "instrs_after": …,
    "words_before": …, "words_after": …, "note": …}, …]}]. *)
