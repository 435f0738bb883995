(** Experiment cells and their parallel evaluation.

    A {e cell} is one point of the paper's evaluation grid — a workload
    under one full squash configuration, optionally including the timing
    run.  {!run} evaluates a batch of cells on the {!Engine} domain pool,
    backed by the thread-safe {!Exp_data} memos.  Cells are crash-isolated: a VM trap, fuel
    exhaustion or invariant failure marks that cell failed with a
    structured {!Engine.job_error} and the rest of the grid completes.

    The fig/table drivers in {!Experiments} submit their cell sets here
    before rendering; [squashc grid] and the determinism regression drive
    {!run} directly. *)

type cell = {
  wl : Workload.t;
  options : Squash.options;
  timing : bool;
  slots : int;  (** Runtime region-cache slots for the timing run. *)
  pspec : Exp_data.profile_spec;  (** Which profile guides compression. *)
  run_on : Exp_data.run_input;  (** Input for the timing run/baseline. *)
}

val cell :
  ?timing:bool ->
  ?slots:int ->
  ?pspec:Exp_data.profile_spec ->
  ?run_on:Exp_data.run_input ->
  Workload.t ->
  Squash.options ->
  cell
(** [pspec] defaults to [Pexact] and [run_on] to [`Timing] — the
    historical grid cell.  The P8 lifecycle cells vary both. *)


val cell_label : cell -> string

type metrics = {
  original_words : int;
  squashed_words : int;
  size_ratio : float;  (** squashed / original (squeezed) words. *)
  size_reduction : float;
  coder : string;  (** Backend name ({!Compress.coder_name}). *)
  table_bits : int;  (** Shipped code-table footprint in bits. *)
  cycles : int option;  (** Timing-run cycles (when [timing]). *)
  baseline_cycles : int option;
  time_ratio : float option;
  decompressions : int option;
  runtime : Runtime.stats option;  (** Full runtime stats (when [timing]). *)
}

type outcome = (metrics, Engine.job_error) result
type results = (cell * outcome) list

val set_jobs : int option -> unit
(** Fix the pool size used when [run]'s [?jobs] is omitted ([None] returns
    to {!Engine.default_jobs}). *)

val set_obs : Obs.t option -> unit
(** Install an observability sink for subsequent {!run} calls: the engine
    emits job submit/start/finish spans into it, and each timing cell
    replays its runtime aggregates into the metrics registry (via
    {!Runtime.observe_stats}, so memoized and live evaluations produce the
    same snapshot). *)

val jobs : unit -> int

val set_injected_failure : (string * float) option ->  unit
(** Fault injection for crash-isolation tests: the cell of this (workload
    name, θ) raises a trap instead of evaluating.  Initialised from
    [PGCC_INJECT_TRAP] ("name@theta"). *)

val eval_cell : cell -> metrics
(** Evaluate one cell on the calling domain (raises on failure). *)

val classify : exn -> Engine.error_kind * string
(** Map [Vm.Trap] (fuel vs machine trap), [Pipeline.Check_failed],
    [Bitio.Corrupt_stream] and [Failure] to structured error kinds. *)

val run : ?jobs:int -> cell list -> results * Engine.stats
(** Evaluate every cell; results are in submission order. *)

val failures : results -> Engine.job_error list

val render_table : results -> string
(** One row per cell: θ, K, sizes, ratios, cycles, status. *)

val to_json : results -> Report.Json.t
(** Per-cell status and metrics (machine-readable; failed cells carry
    their structured error). *)

val to_csv : results -> string
