(** Per-region runtime-overhead attribution (the paper's Section 7
    analysis as a first-class artifact).

    Given a squash result and the {!Runtime.stats} of a timing run,
    break the decompression overhead down by region: how often each
    region was decompressed, how many simulated cycles that cost, and
    how that relates to the region's static size and coldness.  The
    totals reconcile exactly with the aggregate stats — [sum
    decompressions = stats.decompressions] and [sum cycles = sum
    stats.per_region_cycles]. *)

type row = {
  rid : int;
  blocks : int;  (** Blocks packed into the region. *)
  stream_words : int;  (** Stored (marker-form) words fed to the coder. *)
  buffer_words : int;  (** Words materialised per decompression. *)
  bits : int;  (** Compressed size of the region in the blob, bits. *)
  max_freq : int;
      (** Hottest profile frequency among the region's blocks (0 when no
          profile was supplied): the region's "coldness". *)
  decompressions : int;
  cycles : int;  (** Simulated cycles charged decompressing this region. *)
  share : float;  (** [cycles] / total overhead cycles (0 if none). *)
  funcs : string list;  (** Distinct functions contributing blocks. *)
}

type t = {
  rows : row list;  (** Sorted by [cycles] descending, then region id. *)
  total_decompressions : int;
  total_cycles : int;  (** Total decompression-overhead cycles. *)
}

val compute : ?profile:Profile.t -> Squash.result -> Runtime.stats -> t

val render : t -> string
(** Aligned table, one row per region plus a totals line. *)

val to_json :
  ?params:(string * Report.Json.t) list -> ?run_cycles:int -> t ->
  Report.Json.t
(** Schema [pgcc-attrib-v1].  [params] records provenance (workload,
    theta, ...) and [run_cycles] the timing run's total simulated cycles;
    both make the saved file usable as one side of a {!diff}. *)

(** A saved attribution, as reloaded from [squashc attrib --json] output —
    the subset that supports region-by-region comparison of two runs.  A
    live attribution enters a diff the same way, as
    [Saved.of_json (to_json ~params ~run_cycles a)]: the JSON floats round
    trip exactly. *)
module Saved : sig
  type row = { rid : int; decompressions : int; cycles : int; share : float }

  type t = {
    rows : row list;
    total_decompressions : int;
    total_cycles : int;
    run_cycles : int option;
        (** Total simulated cycles of the timing run, when recorded. *)
    params : (string * string) list;
        (** Provenance (workload, theta, ...) as printable strings. *)
  }

  val of_json : Report.Json.t -> (t, string) result
  val load_file : string -> (t, string) result

  val overhead_share : t -> float option
  (** [total_cycles / run_cycles] — the decompression overhead as a share
      of the whole run; [None] when [run_cycles] was not recorded. *)
end

type delta = {
  drid : int;
  cycles_a : int;
  cycles_b : int;
  share_a : float;
  share_b : float;
  decomp_a : int;
  decomp_b : int;
}

val diff : Saved.t -> Saved.t -> delta list
(** Union of both runs' regions (absent side contributes zeros), sorted by
    absolute cycle delta descending, then region id. *)

val render_diff : Saved.t -> Saved.t -> string
(** Signed per-region table (regions idle on both sides are omitted)
    plus, when both sides recorded [run_cycles], the overall
    overhead-share-of-run shift. *)
