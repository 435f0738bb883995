(* In-memory span recording for the benchmark's traced runs.

   The benchmark wraps every call it makes into a layer in a span: name,
   start, end, the enclosing span and the job it belongs to.  Spans are kept
   in memory and exported once, when the run ends, so recording costs two
   clock reads and two allocation-counter reads per call.  When the recorder
   is off, [span] is a single branch. *)

type phase = Setup | Timed | Replay

let phase_name = function Setup -> "setup" | Timed -> "timed" | Replay -> "replay"

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 for a root span *)
  job : int;  (* 0 outside any job *)
  phase : phase;
  start : float;  (* Obs.Clock seconds *)
  stop : float;
  alloc_words : float;  (* heap words allocated while the span was open *)
}

type t = {
  mutable on : bool;
  mutable phase : phase;
  mutable job : int;
  mutable open_spans : int list;  (* innermost first *)
  mutable next_id : int;
  mutable spans : span list;  (* newest first *)
  counters : (phase * string, float) Hashtbl.t;
}

let create () =
  { on = false; phase = Setup; job = 0; open_spans = []; next_id = 1; spans = [];
    counters = Hashtbl.create 64 }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_spans with p :: _ -> p | [] -> 0 in
    t.open_spans <- id :: t.open_spans;
    let a0 = allocated () in
    let start = Obs.Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Obs.Clock.now () in
        t.open_spans <- List.tl t.open_spans;
        t.spans <-
          { id; name; parent; job = t.job; phase = t.phase; start; stop;
            alloc_words = allocated () -. a0 }
          :: t.spans)
  end

(* A span named [name] for job [id]; spans opened inside it carry the id. *)
let job t ~id name f =
  let outer = t.job in
  t.job <- id;
  Fun.protect (fun () -> span t name f) ~finally:(fun () -> t.job <- outer)

let count t name v =
  if t.on then
    let key = (t.phase, name) in
    Hashtbl.replace t.counters key
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters key))

let counter t phase name =
  Option.value ~default:0.0 (Hashtbl.find_opt t.counters (phase, name))

let duration s = s.stop -. s.start

(* A span's duration minus the part of its interval that its children's
   spans cover (children may not overlap their parent exactly: each is
   clipped to the parent, and overlapping children count once). *)
let self_time ~children s =
  let intervals =
    List.filter_map
      (fun c ->
        let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, Float.neg_infinity) intervals
  in
  duration s -. covered

let children_index spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let siblings = Option.value ~default:[] (Hashtbl.find_opt tbl s.parent) in
      Hashtbl.replace tbl s.parent (s :: siblings))
    spans;
  fun s -> Option.value ~default:[] (Hashtbl.find_opt tbl s.id)

(* Chrome trace-event JSON (one complete "X" event per span, microseconds
   from the first span), the format [squashc tracediff] loads. *)
let to_chrome t =
  let open Report.Json in
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun m s -> Float.min m s.start) Float.infinity spans in
  let us x = Float (1e6 *. (x -. origin)) in
  let event s =
    Obj
      [ ("name", String s.name); ("cat", String (phase_name s.phase));
        ("ph", String "X"); ("ts", us s.start);
        ("dur", Float (1e6 *. duration s)); ("pid", Int 1); ("tid", Int 1);
        ( "args",
          Obj
            [ ("id", Int s.id); ("parent", Int s.parent); ("job", Int s.job);
              ("alloc_words", Float s.alloc_words) ] ) ]
  in
  Obj
    [ ("schema", String "pgcc-perf-trace-v1");
      ("displayTimeUnit", String "ms");
      ("traceEvents", List (List.map event spans));
      ( "otherData",
        Obj [ ("emitted", Int (List.length spans)); ("dropped", Int 0) ] ) ]
