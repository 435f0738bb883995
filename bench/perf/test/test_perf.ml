(* Tests of the performance benchmark's statistics, span accounting and
   metric emission. *)

let percentile_tests =
  [ Alcotest.test_case "interpolated percentiles" `Quick (fun () ->
        let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
        Alcotest.(check (float 1e-12)) "p50" 5.5 (Pstats.percentile ~pct:50 xs);
        Alcotest.(check (float 1e-12)) "p90" 9.1 (Pstats.percentile ~pct:90 xs);
        Alcotest.(check (float 0.0)) "p100" 10.0 (Pstats.percentile ~pct:100 xs);
        Alcotest.(check (float 0.0)) "p0" 1.0 (Pstats.percentile ~pct:0 xs);
        Alcotest.(check (float 0.0)) "odd count" 2.0 (Pstats.median [ 3.0; 1.0; 2.0 ]);
        Alcotest.(check (float 0.0)) "one sample" 7.0 (Pstats.median [ 7.0 ]);
        Alcotest.(check int) "rank is exact" 90 (Pstats.rank ~pct:90 100));
    Alcotest.test_case "a tail needs ten samples beyond it" `Quick (fun () ->
        Alcotest.(check int) "100 samples" 10 (Pstats.beyond ~pct:90 100);
        Alcotest.(check bool) "p90 of 100" true (Pstats.supported ~pct:90 100);
        Alcotest.(check bool) "p90 of 99" false (Pstats.supported ~pct:90 99);
        Alcotest.(check bool) "p90 of 22" false (Pstats.supported ~pct:90 22);
        Alcotest.(check bool) "p50 of 22" true (Pstats.supported ~pct:50 22));
    Alcotest.test_case "geometric mean" `Quick (fun () ->
        Alcotest.(check (float 1e-12)) "2 and 8" 4.0 (Pstats.geomean [ 2.0; 8.0 ]);
        Alcotest.(check (float 1e-12)) "one ratio" 1.5 (Pstats.geomean [ 1.5 ]);
        Alcotest.(check (float 0.0)) "no ratios" 1.0 (Pstats.geomean [])) ]

let span ~id ~parent start stop =
  { Spans.id; name = "s"; parent; job = 0; phase = Spans.Timed; start; stop;
    alloc_words = 0.0 }

let span_tests =
  [ Alcotest.test_case "self time over nested spans" `Quick (fun () ->
        let parent = span ~id:1 ~parent:0 0.0 10.0 in
        let children =
          [ span ~id:2 ~parent:1 1.0 3.0; span ~id:3 ~parent:1 2.0 5.0;
            span ~id:4 ~parent:1 9.0 12.0 ]
        in
        (* [1,5] and the clipped [9,10] are covered: 5 of 10. *)
        Alcotest.(check (float 1e-12)) "overlap and clip" 5.0
          (Spans.self_time ~children parent);
        Alcotest.(check (float 1e-12)) "leaf" 2.0
          (Spans.self_time ~children:[] (List.hd children)));
    Alcotest.test_case "recorder nests spans and exports them" `Quick (fun () ->
        let t = Spans.create () in
        t.Spans.on <- true;
        Spans.job t ~id:7 "job" (fun () -> Spans.span t "inner" (fun () -> ()));
        Spans.span t "outside" (fun () -> ());
        let by_name n = List.find (fun s -> s.Spans.name = n) t.Spans.spans in
        let job = by_name "job" and inner = by_name "inner" in
        Alcotest.(check int) "parent" job.Spans.id inner.Spans.parent;
        Alcotest.(check int) "job id" 7 inner.Spans.job;
        Alcotest.(check int) "outside a job" 0 (by_name "outside").Spans.job;
        match Tracediff.of_string (Report.Json.to_string (Spans.to_chrome t)) with
        | Error e -> Alcotest.fail e
        | Ok p ->
          Alcotest.(check (list string)) "tracediff names" [ "inner"; "job"; "outside" ]
            (List.map fst p.Tracediff.spans)) ]

(* The metric names BENCHMARK.json declares, in order. *)
let declared key =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Report.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Report.Json.member key doc with
    | Some (Report.Json.List l) ->
      List.map
        (fun m ->
          match Report.Json.member "name" m with
          | Some (Report.Json.String s) -> s
          | _ -> Alcotest.fail "metric without a name")
        l
    | _ -> Alcotest.fail ("BENCHMARK.json: no " ^ key))

let names metrics = List.map (fun (n, _, _) -> n) metrics

(* A traced run has an untraced pass too, so it yields both metric sets. *)
let smoke ~seed (w : Bench.workload) =
  let r = Bench.run ~setup_reps:1 ~seed ~seconds:0.0 ~trace:true w in
  Alcotest.(check bool) "correct" true (Bench.correct r);
  Alcotest.(check (float 0.0)) "failed_share" 0.0 (Bench.failed_share r);
  let e2e = Bench.end_to_end r and layers = Bench.per_layer r in
  Alcotest.(check (list string)) "end-to-end names" (declared "end_to_end") (names e2e);
  Alcotest.(check (list string)) "per-layer names" (declared "per_layer") (names layers);
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then Alcotest.failf "%s is not finite" n)
    (e2e @ layers)

let smoke_tests =
  [ (* Generator seed 12 gives a program with no regions at θ = 0.01, whose
       runtime statistics still have one per-region slot; at θ = 1 it has
       regions. *)
    Alcotest.test_case "one corpus program" `Quick (fun () ->
        smoke ~seed:12 (Bench.corpus ~size:1 ()));
    Alcotest.test_case "one MediaBench config" `Quick (fun () ->
        smoke ~seed:1
          (Bench.sweep
             ~programs:[ Option.get (Workloads.find "adpcm") ]
             ~configs:[ { Bench.theta = 0.01; coder = `Split_stream } ]
             ())) ]

let () =
  Alcotest.run "perf"
    [ ("percentiles", percentile_tests); ("spans", span_tests); ("smoke", smoke_tests) ]
