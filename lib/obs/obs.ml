module Clock = struct
  (* Host-side timestamps come from the OS monotonic clock (via bechamel's
     noalloc binding), so spans can never go negative under NTP slew the
     way Unix.gettimeofday stamps could.  Values are seconds since an
     arbitrary origin; [epoch_offset] (sampled once, lazily) rebases them
     onto the Unix epoch for human consumption in export headers. *)
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

  let epoch_offset =
    let off = lazy (Unix.gettimeofday () -. now ()) in
    fun () -> Lazy.force off
end

type cost = {
  start : float;
  elapsed_s : float;
  alloc_words : int;
  major_collections : int;
}

(* Words allocated so far by this domain.  On OCaml 5.1 the minor count in
   both [Gc.quick_stat] and [Gc.counters] advances only at a minor
   collection, so it reads what was allocated up to the last one;
   [Gc.minor_words ()] adds the live part of the minor heap and is exact.
   [Gc.counters]' major and promoted counts are current ([quick_stat]'s
   major count is not): their difference is what went straight to the
   major heap. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let measure f =
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let a0 = allocated () in
  let start = Clock.now () in
  let v = f () in
  let elapsed_s = Clock.now () -. start in
  let alloc_words = int_of_float (allocated () -. a0) in
  ( v,
    { start; elapsed_s; alloc_words;
      major_collections = (Gc.quick_stat ()).Gc.major_collections - majors0 } )

module Event = struct
  type clock = Cycles of int | Mono of float

  type payload =
    | Decomp_end of { region : int; bits : int; words : int; cycles : int }
    | Buffer_enter of { region : int; offset : int; pc : int }
    | Stub_create of { region : int; ret : int; live : int }
    | Stub_reuse of { region : int; ret : int; live : int }
    | Stub_free of { region : int; ret : int; live : int }
    | Cache_evict of { region : int; slot : int }
    | Pass_end of { name : string; elapsed_s : float }
    | Job_submit of { label : string }
    | Job_finish of { label : string; worker : int; ok : bool; wall_s : float }

  type t = { ts : clock; payload : payload }

  let name e =
    match e.payload with
    | Decomp_end _ -> "decomp_end"
    | Buffer_enter _ -> "buffer_enter"
    | Stub_create _ -> "stub_create"
    | Stub_reuse _ -> "stub_reuse"
    | Stub_free _ -> "stub_free"
    | Cache_evict _ -> "cache_evict"
    | Pass_end _ -> "pass_end"
    | Job_submit _ -> "job_submit"
    | Job_finish _ -> "job_finish"

  (* The payload fields as JSON key/value pairs: the Chrome "args"
     object. *)
  let fields e =
    let open Report.Json in
    match e.payload with
    | Decomp_end { region; bits; words; cycles } ->
      [ ("region", Int region); ("bits", Int bits); ("words", Int words);
        ("cycles", Int cycles) ]
    | Buffer_enter { region; offset; pc } ->
      [ ("region", Int region); ("offset", Int offset); ("pc", Int pc) ]
    | Stub_create { region; ret; live }
    | Stub_reuse { region; ret; live }
    | Stub_free { region; ret; live } ->
      [ ("region", Int region); ("ret", Int ret); ("live", Int live) ]
    | Cache_evict { region; slot } ->
      [ ("region", Int region); ("slot", Int slot) ]
    | Pass_end { name; elapsed_s } ->
      [ ("pass", String name); ("elapsed_s", Float elapsed_s) ]
    | Job_submit { label } -> [ ("job", String label) ]
    | Job_finish { label; worker; ok; wall_s } ->
      [ ("job", String label); ("worker", Int worker); ("ok", Bool ok);
        ("wall_s", Float wall_s) ]
end

module Trace = struct
  (* v3: one ring, end events only. *)
  let schema_version = 3

  (* One bounded ring behind one mutex.  [next] counts every emission;
     slot [i mod capacity] holds emission [i], so once [next > capacity]
     the oldest [next - capacity] events have been overwritten
     (= dropped). *)
  type t = {
    buf : Event.t array;
    capacity : int;
    mutable next : int;
    m : Mutex.t;
  }

  let dummy =
    { Event.ts = Event.Cycles 0;
      payload = Event.Cache_evict { region = -1; slot = -1 } }

  let create ?(capacity = 65536) () =
    if capacity < 1 then invalid_arg "Obs.Trace.create: capacity < 1";
    { buf = Array.make capacity dummy; capacity; next = 0; m = Mutex.create () }

  let emit t e =
    Mutex.lock t.m;
    t.buf.(t.next mod t.capacity) <- e;
    t.next <- t.next + 1;
    Mutex.unlock t.m

  let emitted t = t.next
  let dropped t = max 0 (t.next - t.capacity)
  let length t = min t.next t.capacity

  (* Export order: the host (Mono) track first, then the simulated
     (Cycles) track, each ordered by clock, ties kept in emission order.
     Engine workers emit concurrently, so emission order alone would
     depend on scheduling; the clock-first key makes every export with
     distinct timestamps independent of it. *)
  let events t =
    Mutex.lock t.m;
    let n = length t in
    let first = t.next - n in
    let keyed =
      List.init n (fun i ->
          let seq = first + i in
          let e = t.buf.(seq mod t.capacity) in
          let track, clock =
            match e.Event.ts with
            | Event.Mono m -> (0, m)
            | Event.Cycles c -> (1, float_of_int c)
          in
          ((track, clock, seq), e))
    in
    Mutex.unlock t.m;
    List.map snd (List.sort (fun (ka, _) (kb, _) -> compare ka kb) keyed)

  (* --- Chrome trace-event export ---------------------------------- *)

  (* Two clock domains become two Chrome "processes": pid 0 is the
     simulated machine (1 cycle rendered as 1 µs), pid 1 is the host
     (monotonic seconds rebased to the earliest host span start; add the
     header's mono_epoch_offset to recover absolute wall time).  Every
     span event is an end event carrying its own duration, so a wrapped
     ring can never leave half a span. *)
  let sim_pid = 0
  let host_pid = 1

  let to_chrome t =
    let open Report.Json in
    let evs = events t in
    (* The earliest host instant is a span's start, not an event's
       timestamp: span events are stamped at their end. *)
    let mono_base =
      List.fold_left
        (fun acc (e : Event.t) ->
          match (e.Event.ts, e.Event.payload) with
          | Event.Mono m, Event.Pass_end { elapsed_s = d; _ }
          | Event.Mono m, Event.Job_finish { wall_s = d; _ } ->
            Float.min acc (m -. d)
          | Event.Mono m, _ -> Float.min acc m
          | Event.Cycles _, _ -> acc)
        Float.infinity evs
    in
    let mono_us m = 1e6 *. (m -. mono_base) in
    let ts_us (e : Event.t) =
      match e.Event.ts with
      | Event.Cycles c -> Float (float_of_int c)
      | Event.Mono m -> Float (mono_us m)
    in
    let ev ~name ~cat ~ph ~ts ~pid ~tid ?(extra = []) args =
      Obj
        ([ ("name", String name); ("cat", String cat); ("ph", String ph);
           ("ts", ts); ("pid", Int pid); ("tid", Int tid) ]
        @ extra
        @ [ ("args", Obj args) ])
    in
    let instant ?(pid = sim_pid) ?(tid = 0) ~cat e =
      ev ~name:(Event.name e) ~cat ~ph:"i" ~ts:(ts_us e) ~pid ~tid
        ~extra:[ ("s", String "t") ]
        (Event.fields e)
    in
    let rows =
      List.map
        (fun (e : Event.t) ->
          match e.Event.payload with
          | Event.Decomp_end { region; cycles; _ } ->
            let start =
              match e.Event.ts with
              | Event.Cycles c -> float_of_int (c - cycles)
              | Event.Mono m -> mono_us m
            in
            ev ~name:(Printf.sprintf "decompress r%d" region)
              ~cat:"runtime" ~ph:"X" ~ts:(Float start) ~pid:sim_pid ~tid:0
              ~extra:[ ("dur", Float (float_of_int cycles)) ]
              (Event.fields e)
          | Event.Buffer_enter _ | Event.Stub_create _ | Event.Stub_reuse _
          | Event.Stub_free _ | Event.Cache_evict _ ->
            instant ~cat:"runtime" e
          | Event.Pass_end { name; elapsed_s } ->
            let end_us =
              match e.Event.ts with
              | Event.Mono m -> mono_us m
              | Event.Cycles c -> float_of_int c
            in
            ev ~name:("pass " ^ name) ~cat:"pipeline" ~ph:"X"
              ~ts:(Float (end_us -. (1e6 *. elapsed_s)))
              ~pid:host_pid ~tid:0
              ~extra:[ ("dur", Float (1e6 *. elapsed_s)) ]
              (Event.fields e)
          | Event.Job_submit _ -> instant ~pid:host_pid ~cat:"engine" e
          | Event.Job_finish { label; worker; wall_s; _ } ->
            let end_us =
              match e.Event.ts with
              | Event.Mono m -> mono_us m
              | Event.Cycles c -> float_of_int c
            in
            ev ~name:("job " ^ label) ~cat:"engine" ~ph:"X"
              ~ts:(Float (end_us -. (1e6 *. wall_s)))
              ~pid:host_pid ~tid:(worker + 1)
              ~extra:[ ("dur", Float (1e6 *. wall_s)) ]
              (Event.fields e))
        evs
    in
    let process_name pid name =
      ev ~name:"process_name" ~cat:"__metadata" ~ph:"M" ~ts:(Float 0.0) ~pid
        ~tid:0
        [ ("name", String name) ]
    in
    Obj
      [ ("schema", String (Printf.sprintf "pgcc-trace-v%d" schema_version));
        ("displayTimeUnit", String "ms");
        ( "otherData",
          Obj
            [ ("emitted", Int (emitted t)); ("dropped", Int (dropped t));
              ("mono_epoch_offset", Float (Clock.epoch_offset ())) ] );
        ( "traceEvents",
          List
            (process_name sim_pid "sq32 simulated cycles"
            :: process_name host_pid "host monotonic clock"
            :: rows) ) ]
end
