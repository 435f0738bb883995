(** Differential span profiles over exported traces.

    Loads a Chrome trace-event export ({!Obs.Trace.to_chrome}, schema
    [pgcc-trace-v3]) and reduces it to a {e span profile}: per span name, how
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
(** Reads a Chrome trace document. *)

val load_file : string -> (profile, string) result
(** {!of_string} of a file, read through {!Report.Json.load_file}; errors
    begin with the path. *)

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
