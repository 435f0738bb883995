(* Observability: the trace ring buffer, the Chrome exporter, the instrumented
   runtime/pipeline/engine sites, and the zero-cost-when-off guarantee
   across the stock workloads. *)

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
(* The exporter, validated through the test suite's own JSON reader. *)

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
        Alcotest.(check (float 0.0))
          "dropped" 0.0
          (num_exn (Json_check.member_exn "dropped" other));
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
        Alcotest.(check (float 0.0))
          "cycles charged" 40.0
          (num_exn
             (Json_check.member_exn "cycles"
                (Json_check.member_exn "args" decomp)));
        Alcotest.(check (float 0.0))
          "simulated-cycle track" 0.0
          (num_exn (Json_check.member_exn "pid" decomp));
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

let squash_fib ?trace () =
  let p, _ = Squeeze.run (compile fib_src) in
  let profile, _ = Profile.collect p ~input:"" in
  let options = { Squash.default_options with Squash.theta = 1.0 } in
  (Squash.run ~options ?trace p profile, profile)

let span_tests =
  [
    Alcotest.test_case "the pipeline emits one pass_end per pass" `Quick
      (fun () ->
        let trace = Obs.Trace.create () in
        let r, _ = squash_fib ~trace () in
        let evs = Obs.Trace.events trace in
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
          ends);
    Alcotest.test_case "the engine emits job submit and finish events" `Quick
      (fun () ->
        let trace = Obs.Trace.create () in
        let results, stats =
          Engine.run ~jobs:2 ~trace
            ~label:(Printf.sprintf "j%d")
            [ (fun () -> 1); (fun () -> 2); (fun () -> failwith "boom") ]
        in
        Alcotest.(check int) "submitted" 3 stats.Engine.submitted;
        Alcotest.(check bool) "third failed" true
          (match results.(2) with Error _ -> true | Ok _ -> false);
        Alcotest.(check int) "succeeded" 2 stats.Engine.succeeded;
        Alcotest.(check int) "failed" 1 stats.Engine.failed;
        let evs = Obs.Trace.events trace in
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
    Alcotest.test_case "stats_to_json and a run agree"
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
          | _ -> -1.0));
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
        let _, stats =
          Pipeline.execute ~passes:[ alloc_pass ] (Pass.init p profile)
        in
        let stat = (List.hd stats.Pipeline.passes).Pass.cost.Obs.alloc_words in
        Alcotest.(check int) "list kept" cells (List.length !keep);
        Alcotest.(check bool)
          (Printf.sprintf "stats read %d words" stat) true (stat >= 3 * cells));
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
   θ = 0.01, then a timing run with and without a trace attached; the
   batch is computed once (in parallel, honouring $JOBS) and shared by
   the regression tests below. *)

type wl_check = {
  wl_name : string;
  plain : Vm.outcome;  (* no trace attached *)
  traced : Vm.outcome;
  plain_stats : Runtime.stats;
  traced_stats : Runtime.stats;
  emitted : int;
  dropped : int;
  event_counts : (string * int) list;  (* trace events per name *)
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
  let trace = Obs.Trace.create () in
  let traced, traced_stats =
    Runtime.run ~fuel ~trace r.Squash.squashed ~input:timing
  in
  let event_counts =
    List.fold_left
      (fun acc e ->
        let n = Obs.Event.name e in
        let c = Option.value ~default:0 (List.assoc_opt n acc) in
        (n, c + 1) :: List.remove_assoc n acc)
      [] (Obs.Trace.events trace)
  in
  {
    wl_name = wl.Workload.name;
    plain;
    traced;
    plain_stats;
    traced_stats;
    emitted = Obs.Trace.emitted trace;
    dropped = Obs.Trace.dropped trace;
    event_counts;
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
        let batch = Lazy.force batch in
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
            Alcotest.(check bool)
              (c.wl_name ^ " events were emitted")
              true (c.emitted > 0))
          batch;
        (* A trace that dropped nothing holds one event per counted
           transition, so it must agree with the stats record. *)
        let complete = List.filter (fun c -> c.dropped = 0) batch in
        List.iter
          (fun c ->
            let s = c.traced_stats in
            let count name =
              Option.value ~default:0 (List.assoc_opt name c.event_counts)
            in
            List.iter
              (fun (name, n) ->
                Alcotest.(check int) (c.wl_name ^ " " ^ name) n (count name))
              [ ("decomp_end", s.Runtime.decompressions);
                ("stub_create", s.Runtime.stub_creates);
                ("stub_reuse", s.Runtime.stub_reuses);
                ("cache_evict", s.Runtime.cache_evictions) ])
          complete;
        Alcotest.(check bool) "some trace dropped nothing" true (complete <> []));
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
   in outcomes to an untraced one, and its trace holds the cells' pass and
   decompression events as well as the engine's.  Four cells (two
   workloads x two θ) make the engine spawn a real pool, so the traced run
   emits from several domains at once.  The memos are reset so both runs
   really execute. *)

let grid_determinism_tests =
  [
    Alcotest.test_case "a traced JOBS=8 grid matches an untraced one" `Slow
      (fun () ->
        let cells () =
          List.concat_map
            (fun name ->
              List.map
                (fun theta ->
                  Exp_grid.cell ~timing:true ~slots:1
                    (Option.get (Workloads.find name))
                    { Squash.default_options with Squash.theta })
                [ 0.001; 0.01 ])
            [ "gsm"; "adpcm" ]
        in
        let run_with ?trace () =
          Exp_data.reset ();
          Exp_grid.run ~jobs:8 ?trace (cells ())
        in
        let plain, _ = run_with () in
        let trace = Obs.Trace.create () in
        let traced, stats = run_with ~trace () in
        Alcotest.(check string)
          "cell json byte-identical"
          (Report.Json.to_string (Exp_grid.to_json plain))
          (Report.Json.to_string (Exp_grid.to_json traced));
        Alcotest.(check bool)
          (Printf.sprintf "pool of %d workers" stats.Engine.pool)
          true (stats.Engine.pool > 1);
        let count name =
          List.length
            (List.filter (fun e -> Obs.Event.name e = name) (Obs.Trace.events trace))
        in
        Alcotest.(check int) "one job_finish per cell" (List.length traced)
          (count "job_finish");
        (* After the reset every cell computes its squash and its timing
           run, so the cells' own events reach the grid's trace. *)
        Alcotest.(check bool) "pass_end events" true (count "pass_end" > 0);
        Alcotest.(check bool) "decomp_end events" true (count "decomp_end" > 0));
  ]

let suite =
  [
    ("obs.trace", ring_tests);
    ("obs.export", exporter_tests);
    ("obs.spans", span_tests);
    ("obs.measure", measure_tests);
    ("obs.grid", grid_determinism_tests);
    ("obs.workloads", workload_tests);
  ]
