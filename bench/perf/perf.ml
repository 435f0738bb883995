(* The performance benchmark (see README.md).

     dune exec bench/perf/perf.exe -- [--workload NAME] [--seed N]
                                      [--seconds S] [--trace 0|1]

   With --workload, runs that workload in this process and prints its
   metrics, then, as the last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 (the default)
   reports the end-to-end metrics; --trace 1 alternates untraced and traced
   passes, reports the per-layer metrics and writes the spans to
   _bench/perf/<workload>-seed<N>.trace.json (Chrome trace-event format,
   readable by [squashc tracediff]) and the per-layer table beside it.

   Without --workload, runs every workload, each in its own child process so
   that each reports its own peak RSS. *)

let default_seconds = 8

let usage () =
  prerr_endline
    "usage: perf.exe [--workload sweep|corpus|run-hot|run-cold] [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

type args = { workload : string option; seed : int; seconds : int; trace : bool }

let parse argv =
  let int_arg v = match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage () in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = Some v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = int_arg v } rest
    | "--trace" :: "0" :: rest -> go { a with trace = false } rest
    | "--trace" :: "1" :: rest -> go { a with trace = true } rest
    | _ -> usage ()
  in
  let a = go { workload = None; seed = 1; seconds = default_seconds; trace = false } argv in
  if a.seed < 1 then usage ();
  a

(* Recompute the pinned digests; print them, and fail on any difference,
   including a program added to or removed from the workload registry. *)
let check_pins ~seed =
  let bad = ref [] in
  let show label actual expected =
    let status =
      match expected with
      | None -> "unpinned"
      | Some e when e = actual -> "ok"
      | Some e ->
        bad := label :: !bad;
        "MISMATCH, pinned " ^ e
    in
    Printf.printf "pin %-16s %s %s\n" label actual status
  in
  List.iter
    (fun (wl : Workload.t) ->
      let name = wl.Workload.name in
      show name (Exp_data.workload_digest wl)
        (Some (Option.value ~default:"(none)" (List.assoc_opt name Pins.workloads))))
    Workloads.all;
  List.iter
    (fun (name, expected) ->
      if Workloads.find name = None then show name "(none)" (Some expected))
    Pins.workloads;
  let corpus s =
    Bench.corpus_digest (Bench.corpus_sources ~seed:s ~size:Bench.default_corpus_size)
  in
  List.iter
    (fun (s, expected) ->
      show (Printf.sprintf "corpus-seed%d" s) (corpus s) (Some expected))
    Pins.corpus;
  if not (List.mem_assoc seed Pins.corpus) then
    show (Printf.sprintf "corpus-seed%d" seed) (corpus seed) None;
  match !bad with
  | [] -> ()
  | labels ->
    Printf.eprintf
      "pinned benchmark inputs changed (%s): update bench/perf/pins.ml in a change of \
       its own\n"
      (String.concat ", " (List.rev labels));
    exit 3

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect (fun () -> output_string oc contents) ~finally:(fun () -> close_out oc)

let run_one a (w : Bench.workload) =
  check_pins ~seed:a.seed;
  Printf.printf "workload %s seed %d seconds %d trace %d\n%!" w.Bench.name a.seed a.seconds
    (if a.trace then 1 else 0);
  let r =
    Bench.run ~seed:a.seed ~seconds:(float_of_int a.seconds) ~trace:a.trace w
  in
  List.iter print_endline (List.rev r.Bench.ctx.Bench.notes);
  List.iter (Printf.printf "setup error: %s\n") (List.rev r.Bench.ctx.Bench.setup_errors);
  List.iter (Printf.printf "job failed: %s\n") (Bench.failures r);
  let ms = Bench.job_ms r in
  let n = List.length ms in
  let seconds l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.printf
    "setup: %d reps (s: %s)\n\
     timed: %d passes, %d jobs (s: %s%s)\n\
     job_ms_p90 over %d samples, %d beyond it%s\n\
     failed_share %.4f (%d/%d); unproved_share %.4f\n"
    (List.length r.Bench.setup_s) (seconds r.Bench.setup_s) (List.length r.Bench.passes)
    (Bench.attempted r)
    (seconds (List.map (fun p -> p.Bench.seconds) r.Bench.passes))
    (if a.trace then "; every second pass traced" else "")
    n (Pstats.beyond ~pct:90 n)
    (if Pstats.supported ~pct:90 n then ""
     else " (fewer than 10: a single job's time, not a tail)")
    (Bench.failed_share r) (List.length (Bench.failures r)) (Bench.attempted r)
    (Bench.unproved_share r);
  let metrics =
    if a.trace then begin
      let layers = Bench.per_layer r in
      let table = Bench.render_metrics ~title:(w.Bench.name ^ " per-layer") layers in
      let dir = Filename.concat "_bench" "perf" in
      mkdir_p dir;
      let base = Filename.concat dir (Printf.sprintf "%s-seed%d" w.Bench.name a.seed) in
      write_file (base ^ ".trace.json")
        (Report.Json.to_string (Spans.to_chrome r.Bench.ctx.Bench.spans) ^ "\n");
      write_file (base ^ ".layers.txt") table;
      print_string table;
      Printf.printf "wrote %s.trace.json and %s.layers.txt\n" base base;
      layers
    end
    else begin
      let e2e = Bench.end_to_end r in
      print_string (Bench.render_metrics ~title:(w.Bench.name ^ " end-to-end") e2e);
      e2e
    end
  in
  print_endline (Bench.result_line r metrics)

let run_children a =
  let status =
    List.fold_left
      (fun status (w : Bench.workload) ->
        let argv =
          [| Sys.executable_name; "--workload"; w.Bench.name;
             "--seed"; string_of_int a.seed; "--seconds"; string_of_int a.seconds;
             "--trace"; (if a.trace then "1" else "0") |]
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> status
        | Unix.WEXITED c -> max status c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> max status 1)
      0 Bench.all
  in
  exit status

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  match a.workload with
  | None -> run_children a
  | Some name -> (
    match List.find_opt (fun (w : Bench.workload) -> w.Bench.name = name) Bench.all with
    | Some w -> run_one a w
    | None -> usage ())
