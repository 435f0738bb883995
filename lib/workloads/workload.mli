(** The benchmark workload abstraction.

    Each workload mirrors one MediaBench program from the paper's evaluation
    (Figure 5 / Table 1): a MiniC source program, a smaller {e profiling}
    input used to collect the execution profile that guides compression, and
    a larger {e timing} input — with somewhat different characteristics —
    used to measure execution time.  The split matters: code that is cold
    during profiling may still run at timing time, which is what produces
    the paper's runtime overhead curve.

    A third {e drift} input exists for the profile-lifecycle experiments
    (P8): it is deliberately distribution-shifted relative to both the
    profiling and timing inputs (different generator seed and size), so
    "train on A, run on B" cells have a genuine A/B axis. *)

type t = {
  name : string;  (** Matches the paper's benchmark name, e.g. "adpcm". *)
  description : string;
  source : string;  (** MiniC source text. *)
  profiling_input : string Lazy.t;
  timing_input : string Lazy.t;
  drift_input : string Lazy.t;
}

val compile : t -> Prog.t
(** Compile the source (raises [Failure] on error — workload sources are
    part of the library and must compile). *)

val profiling_input : t -> string
(** The forced input; safe to call from several domains at once.  The
    same holds for {!timing_input} and {!drift_input}. *)

val timing_input : t -> string
val drift_input : t -> string
