type error_kind = [ `Trap | `Fuel | `Invariant | `Failed | `Exception ]

type job_error = { label : string; kind : error_kind; message : string }

let kind_to_string = function
  | `Trap -> "trap"
  | `Fuel -> "fuel-exhausted"
  | `Invariant -> "invariant"
  | `Failed -> "failed"
  | `Exception -> "exception"

let error_to_string e =
  Printf.sprintf "%s: [%s] %s" e.label (kind_to_string e.kind) e.message

let error_json e =
  Report.Json.Obj
    [ ("job", Report.Json.String e.label);
      ("kind", Report.Json.String (kind_to_string e.kind));
      ("message", Report.Json.String e.message) ]

type job_stat = { label : string; cost : Obs.cost; worker : int }

type stats = {
  pool : int;
  submitted : int;
  succeeded : int;
  failed : int;
  wall_s : float;
  busy_s : float;
  max_queue_depth : int;
  job_stats : job_stat list;
}

let stats_json s =
  Report.Json.Obj
    [ ("pool", Report.Json.Int s.pool);
      ("submitted", Report.Json.Int s.submitted);
      ("succeeded", Report.Json.Int s.succeeded);
      ("failed", Report.Json.Int s.failed);
      ("wall_seconds", Report.Json.Float s.wall_s);
      ("busy_seconds", Report.Json.Float s.busy_s);
      ("max_queue_depth", Report.Json.Int s.max_queue_depth);
      ("jobs",
       Report.Json.List
         (List.map
            (fun j ->
              Report.Json.Obj
                [ ("label", Report.Json.String j.label);
                  ("wall_seconds", Report.Json.Float j.cost.Obs.elapsed_s);
                  ("worker", Report.Json.Int j.worker);
                  ("alloc_words", Report.Json.Int j.cost.Obs.alloc_words) ])
            s.job_stats)) ]

let render_stats s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "engine: %d jobs on %d workers in %.2fs (busy %.2fs, %.1fx, %d failed, \
        queue depth %d)\n"
       s.submitted s.pool s.wall_s s.busy_s
       (if s.wall_s > 0.0 then s.busy_s /. s.wall_s else 1.0)
       s.failed s.max_queue_depth);
  let width =
    List.fold_left (fun acc j -> max acc (String.length j.label)) 3 s.job_stats
  in
  List.iter
    (fun j ->
      Buffer.add_string b
        (Printf.sprintf "  %-*s %8.1f ms  worker %d\n" width j.label
           (1000.0 *. j.cost.Obs.elapsed_s) j.worker))
    s.job_stats;
  Buffer.contents b

let default_jobs () =
  match Sys.getenv_opt "JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* The work queue: all jobs are enqueued before the workers start, but the
   queue is written in the general producer/consumer form (close + condition)
   so a streaming submitter can reuse it later. *)
type queue = {
  q : int Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable max_depth : int;
}

let queue_create () =
  { q = Queue.create (); m = Mutex.create (); nonempty = Condition.create ();
    closed = false; max_depth = 0 }

let queue_push qu i =
  Mutex.lock qu.m;
  Queue.push i qu.q;
  qu.max_depth <- max qu.max_depth (Queue.length qu.q);
  Condition.signal qu.nonempty;
  Mutex.unlock qu.m

let queue_close qu =
  Mutex.lock qu.m;
  qu.closed <- true;
  Condition.broadcast qu.nonempty;
  Mutex.unlock qu.m

let queue_pop qu =
  Mutex.lock qu.m;
  let rec go () =
    match Queue.take_opt qu.q with
    | Some i ->
      Mutex.unlock qu.m;
      Some i
    | None ->
      if qu.closed then begin
        Mutex.unlock qu.m;
        None
      end
      else begin
        Condition.wait qu.nonempty qu.m;
        go ()
      end
  in
  go ()

let run ?jobs ?trace ?(classify = fun e -> (`Exception, Printexc.to_string e))
    ?(label = fun i -> Printf.sprintf "job-%d" i) thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let jobs =
    match jobs with Some j when j >= 1 -> j | Some _ | None -> default_jobs ()
  in
  let pool = max 1 (min jobs (max n 1)) in
  let results =
    Array.make n (Error { label = "unset"; kind = `Exception; message = "job never ran" })
  in
  let job_stats =
    let no_cost =
      { Obs.start = 0.0; elapsed_s = 0.0; alloc_words = 0; major_collections = 0 }
    in
    Array.init n (fun i -> { label = label i; cost = no_cost; worker = 0 })
  in
  let t0 = Obs.Clock.now () in
  let run_one ~worker i =
    let result, cost =
      Obs.measure (fun () ->
          match thunks.(i) () with
          | v -> Ok v
          | exception e ->
            let kind, message = classify e in
            Error { label = label i; kind; message })
    in
    results.(i) <- result;
    job_stats.(i) <- { (job_stats.(i)) with cost; worker };
    match trace with
    | None -> ()
    | Some t ->
      let { Obs.start; elapsed_s; _ } = cost in
      Obs.Trace.emit t
        { ts = Obs.Event.Mono (start +. elapsed_s);
          payload =
            Obs.Event.Job_finish
              { label = label i; worker; ok = Result.is_ok result; wall_s = elapsed_s } }
  in
  let submit i =
    match trace with
    | None -> ()
    | Some t ->
      Obs.Trace.emit t
        { ts = Obs.Event.Mono (Obs.Clock.now ());
          payload = Obs.Event.Job_submit { label = label i } }
  in
  let qu = queue_create () in
  if pool = 1 then
    for i = 0 to n - 1 do
      submit i;
      run_one ~worker:0 i
    done
  else begin
    for i = 0 to n - 1 do
      submit i;
      queue_push qu i
    done;
    queue_close qu;
    let worker w =
      let rec loop () =
        match queue_pop qu with
        | None -> ()
        | Some i ->
          run_one ~worker:w i;
          loop ()
      in
      loop ()
    in
    let spawned =
      Array.init (pool - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned
  end;
  let wall_s = Obs.Clock.now () -. t0 in
  let busy_s =
    Array.fold_left (fun acc j -> acc +. j.cost.Obs.elapsed_s) 0.0 job_stats
  in
  let failed =
    Array.fold_left
      (fun acc -> function Error _ -> acc + 1 | Ok _ -> acc)
      0 results
  in
  ( results,
    { pool; submitted = n; succeeded = n - failed; failed; wall_s; busy_s;
      max_queue_depth = qu.max_depth; job_stats = Array.to_list job_stats } )
