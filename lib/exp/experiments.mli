(** One driver per table/figure of the paper's evaluation (see DESIGN.md's
    experiment index).  A driver is a value: the {!Exp_grid} cells it
    reads, and a render function that builds its report from those cells'
    outcomes alone.  {!run} evaluates the cells on the engine and renders.
    A failed cell renders as [FAILED], and so does every aggregate over it
    (a geometric mean, a sum, "context wins"); every other row renders as
    it would with no failure.  Timing cells verify that every squashed run
    produces byte-identical output to its baseline. *)

type report = {
  text : string;  (** The rendered tables and charts. *)
  metrics : (string * Report.Json.t) list;
      (** Key metrics for the bench harness's [--json] output, in order;
          a metric built from a failed aggregate is [null]. *)
}

type lookup = Exp_grid.cell -> Exp_grid.outcome

type driver = {
  cells : Exp_grid.cell list;  (** Every cell the render function reads. *)
  render : lookup -> report;
}

val render : driver -> Exp_grid.results * Engine.stats -> report
(** Render the driver from {!Exp_grid.lookup} over [results], which must
    hold every cell the driver declares.  The report's metrics start with
    [engine] ({!Engine.stats_json}) and, when a cell failed,
    [engine_failures] (the failed cells' {!Engine.error_json}); a driver
    without cells records neither. *)

val run : jobs:int -> driver -> report
(** [render] the driver's cells as {!Exp_grid.run} evaluates them on
    [jobs] workers. *)

type sampled = {
  report : report;  (** The first sample's report. *)
  seconds : float list;  (** Wall-clock seconds of every sample, in order. *)
}

val sample : repeat:int -> (unit -> report) -> sampled
(** Time [repeat] (>= 1) runs of [f], each after {!Exp_data.reset}, so
    every sample recomputes its artifacts and its time does not depend on
    what ran before it.  Later samples' reports are discarded, so each
    metric key appears as often as one run records it. *)

val all : (string * driver) list
(** Every experiment, keyed by the id DESIGN.md §5 indexes: T1, F3–F7,
    S3-gamma, S2-stubs, S6-bsafe, A1-ablation, C1-coders, P1-passes,
    S7-slots and P8-lifecycle. *)
