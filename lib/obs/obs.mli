(** End-to-end observability: typed trace events and a host-span meter.

    The counts themselves live in each layer's stats record
    ({!Runtime.stats}, {!Vm.outcome}, [Pass.stats], [Engine.stats]); the
    trace is the one sink for what happened when.  It is optional and
    {e disabled means free}: every instrumented call site in the squash
    runtime, the pass pipeline and the experiment engine guards its
    emission behind a single branch on an optional {!Trace.t}.

    {b Trace} is one bounded ring buffer of {!Event.t} values behind one
    mutex.  When the ring wraps, its oldest events are overwritten and
    counted as dropped — a long run keeps its tail, which is what the
    runtime-overhead analysis wants, and memory stays bounded.  The ring
    holds end events only: each span event carries its own duration, so
    no consumer pairs begins with ends and a wrapped ring never holds half
    a span.  Export sorts events by (clock track, timestamp, emission
    order), so engine workers emitting concurrently cannot reorder an
    export whose timestamps differ.  Timestamps are heterogeneous by
    design: the runtime stamps events in {e simulated cycles} (the clock
    the paper's overhead model runs on), the pipeline and engine stamp in
    host {e monotonic} seconds ({!Clock}).  The one export format is
    Chrome trace-event JSON (loadable in Perfetto / [chrome://tracing];
    simulated and host clocks become separate process tracks), whose
    header carries the schema version, the drop accounting and the
    monotonic clock's epoch offset; {!Tracediff} reads it back.

    {b Measurement}: {!measure} is the one meter for a host span — its
    start and duration on {!Clock}, and the words it allocated. *)

module Clock : sig
  val now : unit -> float
  (** Monotonic host time in seconds since an arbitrary origin (the OS
      monotonic clock; never jumps backwards, unlike
      [Unix.gettimeofday]). *)

  val epoch_offset : unit -> float
  (** [wall - mono] sampled once per process: add it to a {!now} value to
      recover an approximate Unix-epoch timestamp.  Recorded in every
      export header. *)
end

type cost = {
  start : float;  (** {!Clock.now} when the span began. *)
  elapsed_s : float;  (** Monotonic seconds the span took. *)
  alloc_words : int;
      (** Heap words allocated by the calling domain while the span ran:
          [Gc.minor_words ()] plus major minus promoted words from
          [Gc.counters ()].  Not [Gc.counters]' minor count, which on
          OCaml 5.1 stops at the last minor collection and so misses
          whatever the span allocated since. *)
  major_collections : int;  (** Major GC cycles completed meanwhile. *)
}

val measure : (unit -> 'a) -> 'a * cost
(** [measure f] runs [f ()] and returns its result with its {!cost}.  An
    exception from [f] propagates unmeasured. *)

module Event : sig
  type clock =
    | Cycles of int  (** Simulated cycles (VM-side events). *)
    | Mono of float  (** Host monotonic seconds ({!Clock.now}). *)

  type payload =
    | Decomp_end of { region : int; bits : int; words : int; cycles : int }
        (** [cycles] is the simulated cost charged for this decompression. *)
    | Buffer_enter of { region : int; offset : int; pc : int }
        (** Control entered the runtime buffer at word [offset]. *)
    | Stub_create of { region : int; ret : int; live : int }
    | Stub_reuse of { region : int; ret : int; live : int }
    | Stub_free of { region : int; ret : int; live : int }
        (** [live] is the live-stub depth {e after} the transition. *)
    | Cache_evict of { region : int; slot : int }
        (** A resident region was evicted from a buffer cache slot to make
            room for another materialisation. *)
    | Pass_end of { name : string; elapsed_s : float }
    | Job_submit of { label : string }
    | Job_finish of { label : string; worker : int; ok : bool; wall_s : float }

  type t = { ts : clock; payload : payload }

  val name : t -> string
  (** Short type tag, e.g. ["decomp_end"]. *)
end

module Trace : sig
  type t

  val schema_version : int
  (** 3: one ring and end events only (2 had a ring per domain and
      begin events). *)

  val create : ?capacity:int -> unit -> t
  (** A ring of [capacity] events (default 65536).
      @raise Invalid_argument if [capacity < 1]. *)

  val emit : t -> Event.t -> unit
  (** Append, overwriting the oldest event once full.  Thread-safe. *)

  val emitted : t -> int
  (** Total events ever emitted (retained + dropped). *)

  val dropped : t -> int
  val length : t -> int

  val events : t -> Event.t list
  (** The retained events sorted by clock track (host {!Event.Mono} first,
      then simulated {!Event.Cycles}), then timestamp, then emission
      order. *)

  val to_chrome : t -> Report.Json.t
  (** Chrome trace-event JSON: spans ([ph:"X"]) for decompressions, passes
      and jobs, instants for stub transitions, buffer entries and job
      submissions.  Simulated-cycle events live on pid 0 (1 cycle = 1 µs
      tick); host events on pid 1, rebased to the earliest host span
      start.  [otherData] carries the emitted/dropped counts and the
      monotonic clock's epoch offset.  Each span comes from one end event
      and its duration. *)
end
