(** Memoized per-workload pipeline artifacts that experiment cells
    share: each workload is compiled, compacted and profiled once, its
    baseline run once per input, each derived profile once, and each
    distinct squash configuration is built once (S7's four slot counts
    share one squash; every timing cell of a workload shares one
    baseline).  A timing run is not memoized: it belongs to exactly one
    {!Exp_grid} cell.

    Every memo table here is domain-safe and compute-once ({!Memo}), so
    the {!Engine} can evaluate experiment cells concurrently, and every
    entry is keyed by a {e content digest} of exactly the workload parts
    it reads (the source text and profiling input; for a baseline run,
    also that run's input; for an oracle profile, also the drift input)
    plus the full option record ({!options_key}), never by workload name
    alone: a changed workload hashes to a different key and can never
    serve a stale artifact, and preparing or squashing a workload never
    generates its timing or drift input.  The memos live only in this
    process; {!reset} empties them, so the next call recomputes from the
    workload source.

    The θ scale: the paper's thresholds are fractions of the {e profiled}
    dynamic instruction count, and its profiling runs execute billions of
    instructions, so interesting thresholds sit at 1e-5..5e-5.  Our
    profiling inputs run 0.3–15 million instructions, so the same
    "a block executed a handful of times is still cold" cutoff corresponds
    to θ about two orders of magnitude larger.  {!theta_grid} spans both
    regimes; {!fig7_thetas} are the three paper points mapped to our
    scale. *)

type prepared = {
  wl : Workload.t;
  digest : string;
      (** Content digest of [wl]'s source text and profiling input; the
          memo key root. *)
  input_prog : Prog.t;
      (** After unreachable-code and no-op elimination only — the paper's
          Table 1 "Input" column. *)
  squeezed : Prog.t;
  squeeze_stats : Squeeze.stats;
  profile : Profile.t;
  profile_outcome : Vm.outcome;
}

val workload_digest : Workload.t -> string
(** Hex MD5 of the source text and the profiling, timing and drift
    inputs, each length-prefixed so that two workloads whose fields
    concatenate to the same string still get different digests.  It names
    the whole workload (the performance benchmark pins it); the memos key
    by the same scheme over only the parts each one reads. *)

val options_key : Squash.options -> string
(** Canonical fingerprint of the full option record (every field). *)

(** Which profile guides compression (the P8 lifecycle axis).  The spec's
    {!spec_label} is folded into every downstream memo key, so results built from estimated profiles never alias exact ones. *)
type profile_spec =
  | Pexact  (** The exact profile from the profiling input (status quo). *)
  | Poracle
      (** Exact profile collected on the {e drift} input — the best case
          for a drift-input run, upper-bounding every other spec. *)
  | Psampled of { period : int; seed : int }
      (** {!Profile.collect_sampled} on the profiling input. *)
  | Pdecayed of { factor : float; steps : int }
      (** The exact profile aged by [steps] applications of
          {!Profile_ops.decay}. *)
  | Ptruncated of { keep : int }  (** {!Profile_ops.truncate_top}. *)

val spec_label : profile_spec -> string
(** Canonical key fragment, e.g. ["sampled;p=64;s=7"]. *)

type run_input = [ `Timing | `Drift ]
(** Which canonical input a timing/baseline run executes. *)

val run_label : run_input -> string

val profile_for : prepared -> profile_spec -> Profile.t
(** Materialise the spec'd profile (memoized by [digest] + spec label,
    plus the drift input's digest for [Poracle]). *)

val reset : unit -> unit
(** Clear every memo table, so each later call recomputes its artifact.
    The bench harness calls it before every timed sample; tests call it to
    compare a recomputed run with an earlier one.  Do not call it
    concurrently with the functions below. *)

val prepare : Workload.t -> prepared
(** Memoized by workload name + the digest of the source text and
    profiling input.  Forces neither the timing nor the drift input. *)

val baseline_timing : ?on:run_input -> prepared -> Vm.outcome
(** The squeezed program on the selected run input (default [`Timing]);
    memoized per workload and input. *)

val squash_result :
  ?trace:Obs.Trace.t ->
  ?pspec:profile_spec ->
  prepared ->
  Squash.options ->
  Squash.result
(** Memoized by (content digest, full option record, profile spec).
    [pspec] (default [Pexact]) selects the guiding profile via
    {!profile_for}.  [trace] receives the squash's pass events only when
    this call computes the entry; a memo hit emits nothing, and the trace
    is not part of the key. *)

val squash_with_profile :
  prepared -> Squash.options -> Profile.t -> Squash.result
(** Unmemoized squash under an arbitrary caller-supplied profile — for
    iterative re-profiling loops whose profiles are not spec-addressable. *)

val timing_run :
  ?trace:Obs.Trace.t ->
  ?slots:int ->
  ?on:run_input ->
  prepared ->
  Squash.result ->
  Vm.outcome * Runtime.stats
(** Run the squashed program on the selected run input (default
    [`Timing]), checking that its output and exit code match the memoized
    baseline's exactly.  [slots] (default 1) is the runtime's region-cache
    slot count.  Not memoized: every timing run belongs to exactly one
    {!Exp_grid} cell, so nothing shares it.  [trace] receives the run's
    runtime events (decompressions).
    @raise Failure on a behaviour mismatch. *)

val reprofile_squashed : Squash.result -> input:string -> Profile.t * Vm.outcome
(** Re-profile an already-squashed image: run it with per-word counting
    and map counts back to source blocks through the image's owner
    array.  Code executed inside the decompression buffer is unattributed
    (it lies outside the owned words), mirroring a PC sampler that cannot
    see scratch addresses.  The profile's source is [Derived "reprofile"];
    the outcome is the squashed run's, for behaviour verification. *)

val theta_grid : float list
(** [0.0; 1e-5; 5e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0] *)

val theta_rescale : float
(** Multiplier taking a paper θ to our profiling regime (DESIGN.md §4,
    "θ scale"). *)

val fig7_thetas : (string * float) list
(** Paper label → our θ, derived as
    [snap-to-grid (paper · theta_rescale)]:
    [("0.0", 0.0); ("1e-5", 1e-4); ("5e-5", 1e-3)]. *)

val theta_label : float -> string
