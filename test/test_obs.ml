(* Observability: the trace ring buffer, the metrics registry, both
   exporters, the instrumented VM/runtime/pipeline/engine sites, and the
   zero-cost-when-off guarantee across the stock workloads. *)

let fuel = 500_000_000

(* ------------------------------------------------------------------ *)
(* Trace ring buffer. *)

let pass_ev i =
  { Obs.Event.ts = Obs.Event.Mono (float_of_int i);
    payload =
      Obs.Event.Pass_end { name = Printf.sprintf "p%d" i; elapsed_s = 0.0 } }

let pass_name (e : Obs.Event.t) =
  match e.Obs.Event.payload with
  | Obs.Event.Pass_end { name; _ } -> name
  | _ -> "?"

let ring_tests =
  [
    Alcotest.test_case "capacity must be positive" `Quick (fun () ->
        match Obs.Trace.create ~capacity:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "no drops below capacity" `Quick (fun () ->
        let tr = Obs.Trace.create ~capacity:8 () in
        for i = 0 to 4 do
          Obs.Trace.emit tr (pass_ev i)
        done;
        Alcotest.(check int) "emitted" 5 (Obs.Trace.emitted tr);
        Alcotest.(check int) "dropped" 0 (Obs.Trace.dropped tr);
        Alcotest.(check int) "length" 5 (Obs.Trace.length tr);
        Alcotest.(check (list string))
          "oldest first"
          [ "p0"; "p1"; "p2"; "p3"; "p4" ]
          (List.map pass_name (Obs.Trace.events tr)));
    Alcotest.test_case "a wrapped ring keeps the newest events" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~capacity:4 () in
        for i = 0 to 9 do
          Obs.Trace.emit tr (pass_ev i)
        done;
        Alcotest.(check int) "emitted" 10 (Obs.Trace.emitted tr);
        Alcotest.(check int) "dropped" 6 (Obs.Trace.dropped tr);
        Alcotest.(check int) "length" 4 (Obs.Trace.length tr);
        Alcotest.(check (list string))
          "tail retained"
          [ "p6"; "p7"; "p8"; "p9" ]
          (List.map pass_name (Obs.Trace.events tr)));
    Alcotest.test_case "clock ties keep emission order" `Quick (fun () ->
        let at name ts =
          { Obs.Event.ts = Obs.Event.Mono ts;
            payload = Obs.Event.Pass_end { name; elapsed_s = 0.0 } }
        in
        let tr = Obs.Trace.create ~capacity:16 () in
        List.iter (Obs.Trace.emit tr)
          [ at "b" 5.0; at "c" 5.0; at "a" 4.0; at "d" 5.0 ];
        Alcotest.(check (list string))
          "clock, then emission order"
          [ "a"; "b"; "c"; "d" ]
          (List.map pass_name (Obs.Trace.events tr)));
    Alcotest.test_case "both clock tracks export host-track first" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~capacity:16 () in
        Obs.Trace.emit tr
          { Obs.Event.ts = Obs.Event.Cycles 1;
            payload = Obs.Event.Cache_evict { region = 7; slot = 0 } };
        Obs.Trace.emit tr (pass_ev 3);
        (* Mono events (track 0) sort before Cycles events (track 1)
           whatever their numeric clock values. *)
        match List.map (fun (e : Obs.Event.t) -> e.Obs.Event.ts)
                (Obs.Trace.events tr)
        with
        | [ Obs.Event.Mono _; Obs.Event.Cycles 1 ] -> ()
        | _ -> Alcotest.fail "expected Mono track before Cycles track");
  ]

(* ------------------------------------------------------------------ *)
(* Exporters, validated through the test suite's own JSON reader. *)

let mixed_trace () =
  let tr = Obs.Trace.create ~capacity:64 () in
  let emit ts p = Obs.Trace.emit tr { Obs.Event.ts; payload = p } in
  emit (Obs.Event.Cycles 140)
    (Obs.Event.Decomp_end { region = 0; bits = 33; words = 7; cycles = 40 });
  emit (Obs.Event.Cycles 141)
    (Obs.Event.Buffer_enter { region = 0; offset = 0; pc = 4096 });
  emit (Obs.Event.Cycles 150)
    (Obs.Event.Stub_create { region = 1; ret = 8; live = 1 });
  emit (Obs.Event.Cycles 190)
    (Obs.Event.Stub_free { region = 1; ret = 8; live = 0 });
  emit (Obs.Event.Mono 10.25)
    (Obs.Event.Pass_end { name = "huffman"; elapsed_s = 0.25 });
  emit (Obs.Event.Mono 10.3) (Obs.Event.Job_submit { label = "cell" });
  emit (Obs.Event.Mono 10.9)
    (Obs.Event.Job_finish { label = "cell"; worker = 2; ok = true; wall_s = 0.5 });
  tr

let num_exn j =
  match j with
  | Json_check.Num f -> f
  | _ -> Alcotest.fail "expected a number"

let str_exn j =
  match j with
  | Json_check.Str s -> s
  | _ -> Alcotest.fail "expected a string"

let exporter_tests =
  [
    Alcotest.test_case "chrome export is valid and span-balanced" `Quick
      (fun () ->
        let tr = mixed_trace () in
        let doc =
          Json_check.parse (Report.Json.to_string (Obs.Trace.to_chrome tr))
        in
        Alcotest.(check string)
          "schema" "pgcc-trace-v3"
          (str_exn (Json_check.member_exn "schema" doc));
        let other = Json_check.member_exn "otherData" doc in
        Alcotest.(check (float 0.0))
          "emitted" 7.0
          (num_exn (Json_check.member_exn "emitted" other));
        let rows =
          match Json_check.member_exn "traceEvents" doc with
          | Json_check.Arr rows -> rows
          | _ -> Alcotest.fail "traceEvents not a list"
        in
        let ph r = str_exn (Json_check.member_exn "ph" r) in
        let count p = List.length (List.filter (fun r -> ph r = p) rows) in
        (* Decomp_end, Pass_end, Job_finish become spans; Buffer_enter,
           Stub_create, Stub_free, Job_submit become instants. *)
        Alcotest.(check int) "metadata rows" 2 (count "M");
        Alcotest.(check int) "spans" 3 (count "X");
        Alcotest.(check int) "instants" 4 (count "i");
        Alcotest.(check int) "total rows" 9 (List.length rows);
        (* The decompression span starts where its cycle charge began. *)
        let decomp =
          List.find
            (fun r -> str_exn (Json_check.member_exn "name" r) = "decompress r0")
            rows
        in
        Alcotest.(check (float 0.0))
          "span start" 100.0
          (num_exn (Json_check.member_exn "ts" decomp));
        Alcotest.(check (float 0.0))
          "span duration" 40.0
          (num_exn (Json_check.member_exn "dur" decomp));
        (* Host rows are rebased to the earliest host event. *)
        let pass =
          List.find
            (fun r -> str_exn (Json_check.member_exn "name" r) = "pass huffman")
            rows
        in
        Alcotest.(check (float 1e-3))
          "rebased pass start" 0.0
          (num_exn (Json_check.member_exn "ts" pass));
        Alcotest.(check (float 1e-3))
          "pass duration us" 250_000.0
          (num_exn (Json_check.member_exn "dur" pass)));
    Alcotest.test_case "chrome export survives a wrapped ring" `Quick (fun () ->
        (* Capacity 2: the first decompression is overwritten.  The
           survivors still export whole — one span, one instant. *)
        let tr = Obs.Trace.create ~capacity:2 () in
        let emit ts p = Obs.Trace.emit tr { Obs.Event.ts; payload = p } in
        emit (Obs.Event.Cycles 50)
          (Obs.Event.Decomp_end { region = 0; bits = 8; words = 2; cycles = 40 });
        emit (Obs.Event.Cycles 55)
          (Obs.Event.Buffer_enter { region = 0; offset = 0; pc = 4096 });
        emit (Obs.Event.Cycles 100)
          (Obs.Event.Decomp_end { region = 1; bits = 8; words = 2; cycles = 40 });
        let doc =
          Json_check.parse (Report.Json.to_string (Obs.Trace.to_chrome tr))
        in
        let rows =
          match Json_check.member_exn "traceEvents" doc with
          | Json_check.Arr rows -> rows
          | _ -> Alcotest.fail "traceEvents not a list"
        in
        let ph r = str_exn (Json_check.member_exn "ph" r) in
        match List.filter (fun r -> ph r = "X") rows with
        | [ span ] ->
          Alcotest.(check string) "newest span" "decompress r1"
            (str_exn (Json_check.member_exn "name" span));
          Alcotest.(check (float 0.0)) "span start" 60.0
            (num_exn (Json_check.member_exn "ts" span));
          Alcotest.(check int) "one instant" 1
            (List.length (List.filter (fun r -> ph r = "i") rows))
        | spans -> Alcotest.failf "%d spans, expected one" (List.length spans));
    Alcotest.test_case "jsonl export parses line by line" `Quick (fun () ->
        let tr = mixed_trace () in
        let lines =
          Obs.Trace.to_jsonl tr |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check int) "header + events" 8 (List.length lines);
        let parsed = List.map Json_check.parse lines in
        let header = List.hd parsed in
        Alcotest.(check string)
          "schema" "pgcc-trace-v3"
          (str_exn (Json_check.member_exn "schema" header));
        Alcotest.(check (float 0.0))
          "dropped" 0.0
          (num_exn (Json_check.member_exn "dropped" header));
        let decomp_end =
          List.find
            (fun j ->
              match Json_check.member "ev" j with
              | Some (Json_check.Str "decomp_end") -> true
              | _ -> false)
            (List.tl parsed)
        in
        Alcotest.(check (float 0.0))
          "cycles charged" 40.0
          (num_exn (Json_check.member_exn "cycles" decomp_end));
        Alcotest.(check string)
          "clock domain" "cycles"
          (str_exn (Json_check.member_exn "clock" decomp_end)));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let metrics_tests =
  [
    Alcotest.test_case "counters accumulate" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "a";
        Obs.Metrics.incr m ~by:41 "a";
        Alcotest.(check int) "a" 42 (Obs.Metrics.counter_value m "a");
        Alcotest.(check int) "unknown" 0 (Obs.Metrics.counter_value m "b"));
    Alcotest.test_case "max_gauge keeps the maximum" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.max_gauge m "g" 5;
        Obs.Metrics.max_gauge m "g" 3;
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        let gauges = Json_check.member_exn "gauges" doc in
        Alcotest.(check (float 0.0))
          "kept max" 5.0
          (num_exn (Json_check.member_exn "g" gauges));
        Obs.Metrics.max_gauge m "g" 9;
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        Alcotest.(check (float 0.0))
          "raised" 9.0
          (num_exn (Json_check.member_exn "g" (Json_check.member_exn "gauges" doc))));
    Alcotest.test_case "histograms bucket by powers of two" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        List.iter (Obs.Metrics.observe m "h") [ 0; 1; 2; 3; 4 ];
        Alcotest.(check int) "count" 5 (Obs.Metrics.histogram_count m "h");
        Alcotest.(check int) "sum" 10 (Obs.Metrics.histogram_sum m "h");
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        let h =
          Json_check.member_exn "h" (Json_check.member_exn "histograms" doc)
        in
        Alcotest.(check (float 0.0))
          "min" 0.0
          (num_exn (Json_check.member_exn "min" h));
        Alcotest.(check (float 0.0))
          "max" 4.0
          (num_exn (Json_check.member_exn "max" h));
        let buckets =
          match Json_check.member_exn "buckets" h with
          | Json_check.Arr bs ->
            List.map
              (fun b ->
                ( int_of_float (num_exn (Json_check.member_exn "lo" b)),
                  int_of_float (num_exn (Json_check.member_exn "hi" b)),
                  int_of_float (num_exn (Json_check.member_exn "count" b)) ))
              bs
          | _ -> Alcotest.fail "buckets not a list"
        in
        (* 0 and 1 share bucket 0; 2 and 3 fill [2,3]; 4 opens [4,7]. *)
        Alcotest.(check (list (triple int int int)))
          "buckets"
          [ (0, 1, 2); (2, 3, 2); (4, 7, 1) ]
          buckets);
    Alcotest.test_case "quantiles on a concentrated distribution" `Quick
      (fun () ->
        (* All mass on one value: every quantile is clamped to it. *)
        let m = Obs.Metrics.create () in
        for _ = 1 to 100 do
          Obs.Metrics.observe m "h" 5
        done;
        List.iter
          (fun q ->
            Alcotest.(check (option (float 0.0)))
              (Printf.sprintf "q=%.2f" q)
              (Some 5.0)
              (Obs.Metrics.histogram_quantile m "h" q))
          [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
        Alcotest.(check (option (float 0.0)))
          "empty histogram" None
          (Obs.Metrics.histogram_quantile m "missing" 0.5));
    Alcotest.test_case "quantiles on a skewed distribution" `Quick (fun () ->
        (* 90 fast observations at 1, 10 slow at 1000: the median sits in
           the fast bucket, the tail quantiles in the slow one. *)
        let m = Obs.Metrics.create () in
        for _ = 1 to 90 do
          Obs.Metrics.observe m "h" 1
        done;
        for _ = 1 to 10 do
          Obs.Metrics.observe m "h" 1000
        done;
        let q p = Option.get (Obs.Metrics.histogram_quantile m "h" p) in
        Alcotest.(check (float 0.0)) "p50 fast" 1.0 (q 0.5);
        Alcotest.(check bool) "p95 in the slow bucket" true (q 0.95 >= 512.0);
        Alcotest.(check bool) "p99 below the observed max" true
          (q 0.99 <= 1000.0);
        Alcotest.(check (float 0.0)) "p100 is the max" 1000.0 (q 1.0);
        (* The snapshot carries the estimates alongside the buckets. *)
        let doc =
          Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m))
        in
        let h =
          Json_check.member_exn "h" (Json_check.member_exn "histograms" doc)
        in
        Alcotest.(check (float 0.0))
          "p50 in snapshot" 1.0
          (num_exn (Json_check.member_exn "p50" h));
        Alcotest.(check bool) "p99 in snapshot" true
          (num_exn (Json_check.member_exn "p99" h) >= 512.0));
    Alcotest.test_case "quantile interpolates within a bucket" `Quick
      (fun () ->
        (* Four values spread across bucket [8,15]: interior quantiles stay
           inside the bucket and respect min/max clamps. *)
        let m = Obs.Metrics.create () in
        List.iter (Obs.Metrics.observe m "h") [ 8; 10; 12; 15 ];
        let q p = Option.get (Obs.Metrics.histogram_quantile m "h" p) in
        Alcotest.(check bool) "p50 inside bucket" true
          (q 0.5 >= 8.0 && q 0.5 <= 15.0);
        Alcotest.(check (float 0.0)) "p0 is the min" 8.0 (q 0.0);
        Alcotest.(check (float 0.0)) "p100 is the max" 15.0 (q 1.0));
    Alcotest.test_case "empty registry serialises cleanly" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let doc = Json_check.parse (Report.Json.to_string (Obs.Metrics.to_json m)) in
        Alcotest.(check bool) "empty counters" true
          (Json_check.member_exn "counters" doc = Json_check.Obj []));
    Alcotest.test_case "an empty sink is inert" `Quick (fun () ->
        let o = Obs.create () in
        Obs.event o (pass_ev 0);
        Obs.incr o "x";
        Obs.observe o "y" 3;
        let doc = Json_check.parse (Report.Json.to_string (Obs.snapshot_json o)) in
        Alcotest.(check bool) "metrics null" true
          (Json_check.member_exn "metrics" doc = Json_check.Null);
        Alcotest.(check bool) "trace null" true
          (Json_check.member_exn "trace" doc = Json_check.Null));
  ]

(* ------------------------------------------------------------------ *)
(* Instrumented sites: pipeline pass spans and engine job spans. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let fib_src =
  {|
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { putint(fib(14)); return 0; }
|}

let squash_fib ?obs () =
  let p, _ = Squeeze.run (compile fib_src) in
  let profile, _ = Profile.collect p ~input:"" in
  let options = { Squash.default_options with Squash.theta = 1.0 } in
  (Squash.run ~options ?obs p profile, profile)

let span_tests =
  [
    Alcotest.test_case "the pipeline emits one pass_end per pass" `Quick
      (fun () ->
        let obs = Obs.full () in
        let r, _ = squash_fib ~obs () in
        let evs = Obs.Trace.events (Option.get obs.Obs.trace) in
        let ends =
          List.filter_map
            (fun (e : Obs.Event.t) ->
              match e.Obs.Event.payload with
              | Obs.Event.Pass_end { name; elapsed_s } ->
                Alcotest.(check bool)
                  (name ^ " elapsed non-negative")
                  true (elapsed_s >= 0.0);
                Some name
              | _ -> None)
            evs
        in
        Alcotest.(check (list string))
          "one end event per pass, in order"
          (List.map
             (fun (s : Pass.stats) -> s.Pass.pass_name)
             r.Squash.stats.Pipeline.passes)
          ends;
        Alcotest.(check int)
          "counter matches" (List.length ends)
          (Obs.Metrics.counter_value
             (Option.get obs.Obs.metrics)
             "pipeline.passes_run"));
    Alcotest.test_case "the engine emits job submit and finish events" `Quick
      (fun () ->
        let obs = Obs.full () in
        let results, stats =
          Engine.run ~jobs:2 ~obs
            ~label:(Printf.sprintf "j%d")
            [ (fun () -> 1); (fun () -> 2); (fun () -> failwith "boom") ]
        in
        Alcotest.(check int) "submitted" 3 stats.Engine.submitted;
        Alcotest.(check bool) "third failed" true
          (match results.(2) with Error _ -> true | Ok _ -> false);
        let m = Option.get obs.Obs.metrics in
        Alcotest.(check int) "submit counter" 3
          (Obs.Metrics.counter_value m "engine.jobs_submitted");
        Alcotest.(check int) "succeeded counter" 2
          (Obs.Metrics.counter_value m "engine.jobs_succeeded");
        Alcotest.(check int) "failed counter" 1
          (Obs.Metrics.counter_value m "engine.jobs_failed");
        let evs = Obs.Trace.events (Option.get obs.Obs.trace) in
        let count f = List.length (List.filter f evs) in
        Alcotest.(check int) "submits" 3
          (count (fun e ->
               match e.Obs.Event.payload with
               | Obs.Event.Job_submit _ -> true
               | _ -> false));
        let finishes =
          List.filter_map
            (fun (e : Obs.Event.t) ->
              match e.Obs.Event.payload with
              | Obs.Event.Job_finish { label; ok; _ } -> Some (label, ok)
              | _ -> None)
            evs
        in
        Alcotest.(check int) "finishes" 3 (List.length finishes);
        Alcotest.(check (option bool)) "failure recorded" (Some false)
          (List.assoc_opt "j2" finishes));
    Alcotest.test_case "stats_to_json and observe_stats agree with a run"
      `Quick (fun () ->
        let r, _ = squash_fib () in
        let outcome, stats =
          Runtime.run ~fuel r.Squash.squashed ~input:""
        in
        Alcotest.(check string) "fib output" "377\n" outcome.Vm.output;
        let doc =
          Json_check.parse (Report.Json.to_string (Runtime.stats_to_json stats))
        in
        Alcotest.(check (float 0.0))
          "decompressions"
          (float_of_int stats.Runtime.decompressions)
          (num_exn (Json_check.member_exn "decompressions" doc));
        Alcotest.(check (float 0.0))
          "per_region length"
          (float_of_int (Array.length stats.Runtime.per_region))
          (match Json_check.member_exn "per_region" doc with
          | Json_check.Arr l -> float_of_int (List.length l)
          | _ -> -1.0);
        (* Replaying the aggregates must reproduce the live counters. *)
        let m = Obs.Metrics.create () in
        Runtime.observe_stats (Obs.create ~metrics:m ()) stats;
        Alcotest.(check int) "replayed decompressions"
          stats.Runtime.decompressions
          (Obs.Metrics.counter_value m "runtime.decompressions");
        Alcotest.(check int) "replayed stub creates" stats.Runtime.stub_creates
          (Obs.Metrics.counter_value m "runtime.stub_creates"));
  ]

(* ------------------------------------------------------------------ *)
(* The one meter, at both sites that use it.  A 1000-cell list is 3000
   words (a header and two fields per cell), allocated in the minor heap
   and kept live; a meter that reads the minor count only as of the last
   minor collection reports next to nothing for it. *)

let cells = 1000

let measure_tests =
  [
    Alcotest.test_case "a pass's allocation is counted to the word" `Quick
      (fun () ->
        let keep = ref [] in
        let alloc_pass =
          { Pass.name = "alloc";
            transform = (fun st -> keep := List.init cells Fun.id; st);
            note = (fun _ -> "") }
        in
        let p, _ = Squeeze.run (compile fib_src) in
        let profile, _ = Profile.collect p ~input:"" in
        let obs = Obs.full () in
        let _, stats =
          Pipeline.execute ~obs ~passes:[ alloc_pass ] (Pass.init p profile)
        in
        let stat = (List.hd stats.Pipeline.passes).Pass.cost.Obs.alloc_words in
        let hist =
          Obs.Metrics.histogram_sum (Option.get obs.Obs.metrics)
            "pipeline.pass_alloc_words"
        in
        Alcotest.(check int) "list kept" cells (List.length !keep);
        Alcotest.(check bool)
          (Printf.sprintf "stats read %d words" stat) true (stat >= 3 * cells);
        Alcotest.(check bool)
          (Printf.sprintf "histogram reads %d words" hist) true
          (hist >= 3 * cells));
    Alcotest.test_case "an engine job's allocation is counted to the word"
      `Quick (fun () ->
        let results, stats =
          Engine.run ~jobs:1 [ (fun () -> List.init cells Fun.id) ]
        in
        let words = (List.hd stats.Engine.job_stats).Engine.cost.Obs.alloc_words in
        Alcotest.(check (result int reject)) "list kept" (Ok cells)
          (Result.map List.length results.(0));
        Alcotest.(check bool)
          (Printf.sprintf "job_stat reads %d words" words) true
          (words >= 3 * cells));
  ]

(* ------------------------------------------------------------------ *)
(* The workload-wide checks.  One squeeze/profile/squash per workload at
   θ = 0.01, then a timing run with and without a sink attached; the
   batch is computed once (in parallel, honouring $JOBS) and shared by
   the regression tests below. *)

type wl_check = {
  wl_name : string;
  plain : Vm.outcome;  (* no sink attached *)
  traced : Vm.outcome;
  plain_stats : Runtime.stats;
  traced_stats : Runtime.stats;
  emitted : int;
  metrics_decomp : int;
  vm_hook_counter : int;
  attrib : Attrib.t;
  region_count : int;
}

let check_workload (wl : Workload.t) =
  let p, _ = Squeeze.run (Workload.compile wl) in
  let profile, _ =
    Profile.collect ~fuel p ~input:(Workload.profiling_input wl)
  in
  let options = { Squash.default_options with Squash.theta = 0.01 } in
  let r = Squash.run ~options p profile in
  let timing = Workload.timing_input wl in
  let plain, plain_stats = Runtime.run ~fuel r.Squash.squashed ~input:timing in
  let obs = Obs.full () in
  let traced, traced_stats =
    Runtime.run ~fuel ~obs r.Squash.squashed ~input:timing
  in
  let m = Option.get obs.Obs.metrics in
  {
    wl_name = wl.Workload.name;
    plain;
    traced;
    plain_stats;
    traced_stats;
    emitted = Obs.Trace.emitted (Option.get obs.Obs.trace);
    metrics_decomp = Obs.Metrics.counter_value m "runtime.decompressions";
    vm_hook_counter = Obs.Metrics.counter_value m "vm.hook_invocations";
    attrib = Attrib.compute ~profile r traced_stats;
    region_count = Array.length r.Squash.regions.Regions.regions;
  }

let batch =
  lazy
    (let results, _ =
       Engine.run
         ~label:(fun i -> (List.nth Workloads.all i).Workload.name)
         (List.map (fun wl () -> check_workload wl) Workloads.all)
     in
     Array.to_list results
     |> List.map (function
          | Ok r -> r
          | Error e ->
            Alcotest.failf "workload job failed: %s" (Engine.error_to_string e)))

let workload_tests =
  [
    Alcotest.test_case "tracing off is byte-identical across workloads" `Slow
      (fun () ->
        List.iter
          (fun c ->
            let n = c.wl_name in
            Alcotest.(check string) (n ^ " output") c.plain.Vm.output
              c.traced.Vm.output;
            Alcotest.(check int) (n ^ " exit") c.plain.Vm.exit_code
              c.traced.Vm.exit_code;
            Alcotest.(check int) (n ^ " icount") c.plain.Vm.icount
              c.traced.Vm.icount;
            Alcotest.(check int) (n ^ " cycles") c.plain.Vm.cycles
              c.traced.Vm.cycles;
            Alcotest.(check int)
              (n ^ " hook invocations")
              c.plain.Vm.hook_invocations c.traced.Vm.hook_invocations;
            Alcotest.(check bool)
              (n ^ " stats identical")
              true
              (c.plain_stats = c.traced_stats))
          (Lazy.force batch));
    Alcotest.test_case "max live stubs stay within bounds at theta=0.01" `Slow
      (fun () ->
        List.iter
          (fun c ->
            let v = c.traced_stats.Runtime.max_live_stubs in
            if v > 9 then
              Alcotest.failf "%s: max_live_stubs = %d exceeds the bound of 9"
                c.wl_name v)
          (Lazy.force batch));
    Alcotest.test_case "hook invocations equal runtime-driven invocations"
      `Slow (fun () ->
        List.iter
          (fun c ->
            let s = c.traced_stats in
            let expected =
              s.Runtime.decompressions + s.Runtime.cache_hits
              + s.Runtime.stub_creates + s.Runtime.stub_reuses
            in
            Alcotest.(check int)
              (c.wl_name ^ " outcome counter")
              expected c.traced.Vm.hook_invocations;
            Alcotest.(check int)
              (c.wl_name ^ " metrics counter")
              c.traced.Vm.hook_invocations c.vm_hook_counter;
            Alcotest.(check int)
              (c.wl_name ^ " decompression counter")
              s.Runtime.decompressions c.metrics_decomp;
            Alcotest.(check bool)
              (c.wl_name ^ " events were emitted")
              true (c.emitted > 0))
          (Lazy.force batch));
    Alcotest.test_case "attribution reconciles with runtime stats" `Slow
      (fun () ->
        List.iter
          (fun c ->
            let a = c.attrib in
            let n = c.wl_name in
            Alcotest.(check int)
              (n ^ " total decompressions")
              c.traced_stats.Runtime.decompressions a.Attrib.total_decompressions;
            Alcotest.(check int)
              (n ^ " total cycles")
              (Array.fold_left ( + ) 0 c.traced_stats.Runtime.per_region_cycles)
              a.Attrib.total_cycles;
            Alcotest.(check int)
              (n ^ " one row per region")
              c.region_count
              (List.length a.Attrib.rows);
            Alcotest.(check int)
              (n ^ " rows sum to the total")
              a.Attrib.total_decompressions
              (List.fold_left
                 (fun acc (r : Attrib.row) -> acc + r.Attrib.decompressions)
                 0 a.Attrib.rows);
            if a.Attrib.total_cycles > 0 then
              Alcotest.(check (float 1e-9))
                (n ^ " shares sum to 1")
                1.0
                (List.fold_left
                   (fun acc (r : Attrib.row) -> acc +. r.Attrib.share)
                   0.0 a.Attrib.rows))
          (Lazy.force batch));
  ]

(* ------------------------------------------------------------------ *)
(* Tracing must not change results: a traced JOBS=8 grid is byte-identical
   in outcomes to an untraced one.  The memos are reset so both runs
   really execute. *)

let grid_determinism_tests =
  [
    Alcotest.test_case "a traced JOBS=8 grid matches an untraced one" `Slow
      (fun () ->
        let cells () =
          List.map
            (fun wl ->
              Exp_grid.cell ~timing:true ~slots:1 wl
                { Squash.default_options with Squash.theta = 0.01 })
            [ List.hd Workloads.all ]
        in
        let run_with obs =
          Exp_data.reset ();
          Exp_grid.set_obs obs;
          Fun.protect
            ~finally:(fun () -> Exp_grid.set_obs None)
            (fun () ->
              let results, _ = Exp_grid.run ~jobs:8 (cells ()) in
              results)
        in
        let plain = run_with None in
        let obs = Obs.full () in
        let traced = run_with (Some obs) in
        Alcotest.(check string)
          "cell outcomes byte-identical"
          (Exp_grid.to_csv plain) (Exp_grid.to_csv traced);
        Alcotest.(check string)
          "cell json byte-identical"
          (Report.Json.to_string (Exp_grid.to_json plain))
          (Report.Json.to_string (Exp_grid.to_json traced));
        Alcotest.(check bool) "events recorded" true
          (Obs.Trace.emitted (Option.get obs.Obs.trace) > 0));
  ]

let suite =
  [
    ("obs.trace", ring_tests);
    ("obs.export", exporter_tests);
    ("obs.metrics", metrics_tests);
    ("obs.spans", span_tests);
    ("obs.measure", measure_tests);
    ("obs.grid", grid_determinism_tests);
    ("obs.workloads", workload_tests);
  ]
