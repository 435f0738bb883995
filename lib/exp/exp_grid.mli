(** Experiment cells and their parallel evaluation.

    A {e cell} is one point of the paper's evaluation grid — a workload
    under one full squash configuration, optionally including the timing
    run.  {!run} evaluates a batch of cells on the {!Engine} domain pool,
    backed by the thread-safe {!Exp_data} memos.  Cells are crash-isolated: a VM trap, fuel
    exhaustion or invariant failure marks that cell failed with a
    structured {!Engine.job_error} and the rest of the grid completes.

    A cell's [Ok] value is what the cell computed, so a consumer renders
    from {!run}'s results and nothing else: the drivers in {!Experiments}
    declare their cells and read each one back through {!lookup};
    [squashc grid] and the determinism regression render the results with
    {!render_table} and {!to_json}, the one machine-readable form. *)

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
(** Workload, θ, K, then every option that differs from
    {!Squash.default_options} (as its {!Exp_data.options_key} fragment),
    the slot count, profile and run input when not the defaults, and
    [+timing]. *)

type timing = {
  outcome : Vm.outcome;  (** The verified squashed run. *)
  stats : Runtime.stats;
  baseline : Vm.outcome;  (** The squeezed program on the same input. *)
}

type value = {
  prepared : Exp_data.prepared;
  result : Squash.result;
  timed : timing option;  (** [Some] exactly when the cell is a timing cell. *)
}

val size_ratio : Squash.result -> float
(** Squashed / original (squeezed) words. *)

val time_ratio : timing -> float
(** Squashed cycles / baseline cycles. *)

type outcome = (value, Engine.job_error) result
type results = (cell * outcome) list

val classify : exn -> Engine.error_kind * string
(** Map [Vm.Trap] (fuel vs machine trap), [Pipeline.Check_failed],
    [Bitio.Corrupt_stream] and [Failure] to structured error kinds. *)

val run : ?jobs:int -> ?trace:Obs.Trace.t -> cell list -> results * Engine.stats
(** Evaluate every cell on [jobs] workers (default
    {!Engine.default_jobs}); results are in submission order.  [trace]
    receives the engine's job submit and finish events (see
    {!Engine.run}), each cell's timing-run decompressions and the pass
    events of each squash the cell computes: a squash served from the
    {!Exp_data} memos adds none. *)

val lookup : results -> cell -> outcome
(** [lookup results] indexes the results by every field of the cell
    (workload name, full {!Exp_data.options_key}, slots, profile spec, run
    input and timing flag); the returned function finds a cell's outcome.
    @raise Invalid_argument for a cell that is not in [results]. *)

val failures : results -> Engine.job_error list

val render_table : results -> string
(** One row per cell: θ, K, sizes, ratios, cycles, status. *)

val to_json : results -> Report.Json.t
(** Per-cell status and metrics (machine-readable; failed cells carry
    their structured error). *)
