(** One driver per table/figure of the paper's evaluation (see DESIGN.md's
    experiment index).  Each function runs the necessary pipeline stages
    (memoized in {!Exp_data}) and returns a rendered report.  Timing
    experiments also verify that every squashed run produces byte-identical
    output to its baseline. *)

val table1 : unit -> string
(** Table 1: code size (instructions) per benchmark, before ("Input") and
    after squeeze. *)

val fig3 : unit -> string
(** Figure 3: overall squashed size (normalised to squeezed) as the buffer
    bound K sweeps 64..4096 bytes, at three thresholds plus their mean. *)

val fig4 : unit -> string
(** Figure 4: normalised amount of cold and compressible code vs θ
    (geometric mean over the workloads). *)

val fig5 : unit -> string
(** Figure 5: the profiling and timing inputs (name, kind, size). *)

val fig6 : unit -> string
(** Figure 6: code-size reduction vs θ for every benchmark, plus the
    mean. *)

val fig7 : unit -> string
(** Figure 7: code size and execution time at the paper's three reporting
    thresholds, relative to squeezed code, with geometric means.  Runs the
    timing inputs through the squash runtime. *)

val gamma : unit -> string
(** Section 3's claim: the compressed representation is ≈ 66% of the
    original size of the compressed code. *)

val stubs : unit -> string
(** Section 2.2's claims: what compile-time restore stubs would cost, and
    the maximum number of live runtime stubs at an aggressive threshold. *)

val bsafe : unit -> string
(** Section 6.1: buffer-safe functions and the share of compressed-region
    call sites they cover. *)

val ablation : unit -> string
(** Each design feature toggled off at a mid threshold: packing,
    buffer-safety, unswitching; plus the move-to-front variant's effect on
    the compressed size. *)

val passes : unit -> string
(** Where squash time goes: per-pass wall-clock timing of the pipeline
    across the workload suite, with each pass's share of the total; plus a
    before/after of region formation at θ=1.0 (per-round rescan reference
    vs the incremental packer, identical partitions checked). *)

val slots_surface : unit -> string
(** The region-cache surface: slowdown vs squeezed for slot counts
    1/2/4/8 at two aggressive thresholds, with decompression and
    cache-hit counts and the extra RAM cost of the added slots. *)

val lifecycle : unit -> string
(** P8: robustness of profile-guided compression across the profile
    lifecycle.  Every workload is compressed under exact (cross-input),
    oracle, sampled (periods 1/16/64/256), decayed (0.5ⁿ staleness chain)
    and top-K-truncated profiles, then run on the distribution-shifted
    drift input with behaviour verified against the unsquashed baseline;
    reports footprint, slowdown and profile distance to the oracle, the
    degradation surfaces vs sampling period and staleness, and an
    iterative-stability pass (squash → re-profile the squashed image →
    re-squash, asserting footprint convergence). *)

val record_metric : string -> Report.Json.t -> unit
(** Record a key metric (e.g. geo-mean size reduction, region-formation
    seconds) for the bench harness's [--json] output; {!sample} collects
    it. *)

type sampled = {
  report : string;  (** The first sample's rendered report. *)
  seconds : float list;  (** Wall-clock seconds of every sample, in order. *)
  metrics : (string * Report.Json.t) list;
      (** The metrics the first sample recorded, in order; later samples'
          are discarded, so each key appears as often as one run records
          it. *)
}

val sample : repeat:int -> (unit -> string) -> sampled
(** Time [repeat] (>= 1) runs of [f], each after {!Exp_data.reset}, so
    every sample recomputes its artifacts and its time does not depend on
    what ran before it. *)

val all : (string * (unit -> string)) list
(** Every experiment, keyed by the id used in DESIGN.md. *)
