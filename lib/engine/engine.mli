(** A Domain-pool job scheduler for embarrassingly-parallel experiment
    grids.

    A batch of independent jobs is pushed onto a [Mutex]/[Condition] work
    queue and drained by a pool of OCaml 5 [Domain]s ([--jobs N]; the
    default honours the [JOBS] environment variable, then
    [Domain.recommended_domain_count]).  Jobs are crash-isolated: an
    exception escaping a job marks {e that job} failed with a structured
    {!job_error} — classified by the caller-supplied [classify], so the
    engine itself stays ignorant of VM traps and pipeline invariants — and
    the rest of the batch completes.

    With [jobs = 1] (or a single job) everything runs inline on the calling
    domain, with no spawning: the sequential path the determinism
    regression compares against.

    Observability: per-job time and allocation ({!Obs.measure}) and
    worker assignment, queue-depth
    high-water mark, and success/failure counts, renderable as a table
    ({!render_stats}) or as JSON ({!stats_json}). *)

type error_kind =
  [ `Trap  (** The simulated machine trapped. *)
  | `Fuel  (** The instruction budget ran out. *)
  | `Invariant  (** A pipeline/image invariant check failed. *)
  | `Failed  (** An explicit [Failure] (e.g. behaviour divergence). *)
  | `Exception  (** Anything else. *) ]

type job_error = { label : string; kind : error_kind; message : string }

val kind_to_string : error_kind -> string
val error_to_string : job_error -> string
val error_json : job_error -> Report.Json.t

type job_stat = {
  label : string;
  cost : Obs.cost;
      (** {!Obs.measure} of the job on the domain that ran it.  Its
          allocation is attribution, not an exact per-job account: other
          domains' promotions can move the major counters. *)
  worker : int;  (** Index of the pool worker that ran it (0 = caller). *)
}

type stats = {
  pool : int;  (** Worker count actually used. *)
  submitted : int;
  succeeded : int;
  failed : int;
  wall_s : float;  (** Wall clock of the whole batch. *)
  busy_s : float;  (** Summed per-job wall clock (parallel speedup is
                       [busy_s /. wall_s]). *)
  max_queue_depth : int;  (** High-water mark of jobs waiting in the
                              queue. *)
  job_stats : job_stat list;  (** In submission order. *)
}

val stats_json : stats -> Report.Json.t
val render_stats : stats -> string
(** One summary line plus an aligned per-job table. *)

val default_jobs : unit -> int
(** [$JOBS] if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  ?trace:Obs.Trace.t ->
  ?classify:(exn -> error_kind * string) ->
  ?label:(int -> string) ->
  (unit -> 'a) list ->
  ('a, job_error) result array * stats
(** Evaluate every thunk; the result array is in submission order.
    [classify] turns an escaped exception into a structured error (default:
    [`Exception] with [Printexc.to_string]); [label] names job [i] for
    error messages and per-job stats.  [trace] receives submit and finish
    job events (monotonic host clock). *)
