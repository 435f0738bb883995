(** Differential span profiles over exported traces.

    Loads a trace in either export format — the Chrome trace-event JSON or
    the JSONL stream (both schema [pgcc-trace-v3]; a v1 or v2 JSONL
    stream's begin events load as zero-duration instants) — and reduces
    it to a {e span profile}: per span name, how
    many times it fired and the total duration in microseconds (simulated
    cycles render as 1 cycle = 1 µs, matching the Chrome exporter).  Two
    profiles then diff name-by-name, which answers "where did the time
    go between these two runs" without opening a trace viewer.  Instant
    events appear with zero duration so count drifts are visible too. *)

type span = { count : int; total_us : float }

type profile = {
  schema : string option;
  emitted : int option;  (** From the export header, when present. *)
  dropped : int option;
  spans : (string * span) list;  (** Sorted by span name. *)
}

val of_string : string -> (profile, string) result
(** Accepts a Chrome trace document or JSONL text (auto-detected). *)

val load_file : string -> (profile, string) result

type delta = {
  name : string;
  count_a : int;
  count_b : int;
  us_a : float;
  us_b : float;
}

val diff : profile -> profile -> delta list
(** Union of both profiles' span names (absent side contributes zeros),
    sorted by absolute duration delta descending, then name. *)

val render : ?top:int -> profile -> profile -> string
(** Comparison table (optionally truncated to the [top] largest deltas)
    with per-side provenance and a warning when either trace dropped
    events. *)
