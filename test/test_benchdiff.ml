(* The run ledger and the differential analyses: benchdiff's statistical
   regression gate, the attrib save/diff round-trip, and tracediff's span
   profiles over both export formats. *)

let bench_doc ?(schema = "pgcc-bench-v2") ?(rev = "a") ?(counters = [])
    experiments =
  let open Report.Json in
  Obj
    [ ("schema", String schema);
      ("timestamp", String "2026-08-09T00:00:00Z");
      ("rev", String rev);
      ("jobs", Int 4);
      ("repeat", Int (List.length experiments));
      ( "experiments",
        List
          (List.map
             (fun (id, samples) ->
               Obj
                 [ ("id", String id);
                   ("seconds", Float (Report.Stats.mean samples));
                   ("samples", List (List.map (fun s -> Float s) samples)) ])
             experiments) );
      ( "runtime_sample",
        Obj
          [ ("workload", String "gsm");
            ("stats", Obj (List.map (fun (k, v) -> (k, Int v)) counters)) ]
      ) ]

let load_run doc =
  match Benchdiff.of_json doc with
  | Ok r -> r
  | Error msg -> Alcotest.failf "of_json failed: %s" msg

let benchdiff_tests =
  [
    Alcotest.test_case "a +25% regression is flagged, jitter is not" `Quick
      (fun () ->
        let a =
          load_run
            (bench_doc
               [ ("T1", [ 9.9; 10.0; 10.1 ]); ("F6", [ 4.9; 5.0; 5.1 ]) ])
        in
        let b =
          load_run
            (bench_doc
               [ ("T1", [ 12.4; 12.5; 12.6 ]); ("F6", [ 4.95; 5.05; 5.15 ]) ])
        in
        let r = Benchdiff.compare_runs ~wall_threshold:0.10 a b in
        Alcotest.(check bool) "regressed" true (Benchdiff.regressed r);
        let d id =
          List.find (fun (d : Benchdiff.delta) -> d.Benchdiff.id = id)
            r.Benchdiff.deltas
        in
        Alcotest.(check bool) "T1 flagged" true (d "T1").Benchdiff.regressed;
        Alcotest.(check bool) "T1 significant" true
          (d "T1").Benchdiff.significant;
        Alcotest.(check bool) "F6 passes" false (d "F6").Benchdiff.regressed;
        Alcotest.(check (float 1e-9)) "T1 delta" 0.25 (d "T1").Benchdiff.rel);
    Alcotest.test_case "a shift within noise is not significant" `Quick
      (fun () ->
        (* Means differ by 12% but the samples are so noisy that Welch
           cannot reject equal means — the gate must stay open. *)
        let a = load_run (bench_doc [ ("T1", [ 6.0; 10.0; 14.0 ]) ]) in
        let b = load_run (bench_doc [ ("T1", [ 7.2; 11.2; 15.2 ]) ]) in
        let r = Benchdiff.compare_runs ~wall_threshold:0.10 a b in
        let d = List.hd r.Benchdiff.deltas in
        Alcotest.(check bool) "above threshold" true
          (d.Benchdiff.rel > 0.10);
        Alcotest.(check bool) "not significant" false d.Benchdiff.significant;
        Alcotest.(check bool) "not regressed" false d.Benchdiff.regressed);
    Alcotest.test_case "single-sample runs regress conservatively" `Quick
      (fun () ->
        (* v1 records carry one scalar per experiment: no variance, so an
           above-threshold shift counts. *)
        let open Report.Json in
        let v1 id seconds =
          Obj
            [ ("schema", String "pgcc-bench-v1");
              ( "experiments",
                List [ Obj [ ("id", String id); ("seconds", Float seconds) ] ]
              ) ]
        in
        let a = load_run (v1 "T1" 10.0) and b = load_run (v1 "T1" 13.0) in
        Alcotest.(check int) "one sample" 1
          (List.length (List.hd a.Benchdiff.experiments).Benchdiff.samples);
        let r = Benchdiff.compare_runs ~wall_threshold:0.10 a b in
        Alcotest.(check bool) "regressed" true (Benchdiff.regressed r));
    Alcotest.test_case "a run never regresses against itself" `Quick (fun () ->
        let doc =
          bench_doc
            ~counters:[ ("decompressions", 4671); ("cache_hits", 760) ]
            [ ("T1", [ 10.0; 10.1 ]) ]
        in
        let a = load_run doc and b = load_run doc in
        let r = Benchdiff.compare_runs a b in
        Alcotest.(check bool) "clean" false (Benchdiff.regressed r);
        Alcotest.(check int) "counters compared" 2
          (List.length r.Benchdiff.counter_deltas));
    Alcotest.test_case "counter drift is a regression" `Quick (fun () ->
        let a =
          load_run
            (bench_doc ~counters:[ ("decompressions", 4671) ]
               [ ("T1", [ 10.0 ]) ])
        in
        let b =
          load_run
            (bench_doc ~counters:[ ("decompressions", 4700) ]
               [ ("T1", [ 10.0 ]) ])
        in
        let r = Benchdiff.compare_runs a b in
        Alcotest.(check bool) "drift flags" true (Benchdiff.regressed r);
        (* A loose counter threshold tolerates it. *)
        let r = Benchdiff.compare_runs ~counter_threshold:0.05 a b in
        Alcotest.(check bool) "tolerated" false (Benchdiff.regressed r));
    Alcotest.test_case "improvements never flag" `Quick (fun () ->
        let a = load_run (bench_doc [ ("T1", [ 10.0; 10.0 ]) ]) in
        let b = load_run (bench_doc [ ("T1", [ 5.0; 5.0 ]) ]) in
        let r = Benchdiff.compare_runs a b in
        Alcotest.(check bool) "faster is fine" false (Benchdiff.regressed r));
    Alcotest.test_case "unknown schemas are rejected" `Quick (fun () ->
        match Benchdiff.of_string "{\"schema\": \"pgcc-grid-v1\"}" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "write/parse round-trip through the renderer" `Quick
      (fun () ->
        let doc = bench_doc [ ("T1", [ 1.5; 2.5 ]); ("F6", [ 0.25 ]) ] in
        let r = load_run doc in
        let r' =
          match Benchdiff.of_string (Report.Json.to_string doc) with
          | Ok r -> r
          | Error msg -> Alcotest.failf "re-parse failed: %s" msg
        in
        Alcotest.(check bool) "round-trips" true (r = r');
        let rendered =
          Benchdiff.render r r' (Benchdiff.compare_runs r r')
        in
        Alcotest.(check bool) "renders a verdict" true
          (String.length rendered > 0));
  ]

(* ------------------------------------------------------------------ *)

let stats_tests =
  [
    Alcotest.test_case "mean, stddev and CI basics" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 2.0
          (Report.Stats.mean [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 1e-9)) "sample stddev" 1.0
          (Report.Stats.stddev [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 1e-9)) "stddev of a singleton" 0.0
          (Report.Stats.stddev [ 7.0 ]);
        Alcotest.(check bool) "ci positive" true
          (Report.Stats.ci95 [ 1.0; 2.0; 3.0 ] > 0.0));
    Alcotest.test_case "welch separates distinct means" `Quick (fun () ->
        let xs = [ 10.0; 10.1; 9.9; 10.05 ] in
        let ys = [ 12.0; 12.1; 11.9; 12.05 ] in
        Alcotest.(check bool) "significant" true
          (Report.Stats.significant xs ys);
        Alcotest.(check bool) "same data insignificant" false
          (Report.Stats.significant xs xs));
    Alcotest.test_case "t table is monotone toward 1.96" `Quick (fun () ->
        Alcotest.(check bool) "df=1 largest" true
          (Report.Stats.t_crit95 1 > Report.Stats.t_crit95 5);
        Alcotest.(check bool) "df=5 above asymptote" true
          (Report.Stats.t_crit95 5 > 1.96);
        Alcotest.(check (float 1e-9)) "large df" 1.96
          (Report.Stats.t_crit95 1000));
  ]

(* ------------------------------------------------------------------ *)

let ledger_tests =
  [
    Alcotest.test_case "git_rev reads a 40-hex commit" `Quick (fun () ->
        (* The test binary runs from the build sandbox, but the repo root
           is the cwd's ancestor holding .git; dune runs tests in
           _build/default/test, so walk up. *)
        let rec find_root dir =
          if Sys.file_exists (Filename.concat dir ".git") then Some dir
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else find_root parent
        in
        match find_root (Sys.getcwd ()) with
        | None -> ()  (* Not a git checkout (e.g. a release tarball). *)
        | Some root -> (
          match Ledger.git_rev ~repo_root:root () with
          | None -> Alcotest.fail "expected a revision in a git checkout"
          | Some rev ->
            Alcotest.(check int) "length" 40 (String.length rev);
            Alcotest.(check bool) "hex" true
              (String.for_all
                 (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
                 rev)));
    Alcotest.test_case "append creates and extends the history" `Quick
      (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "pgcc-ledger-%d" (Unix.getpid ()))
        in
        let doc = Report.Json.Obj [ ("schema", Report.Json.String "x") ] in
        (match Ledger.append ~dir doc with
        | Error msg -> Alcotest.failf "append failed: %s" msg
        | Ok path ->
          Alcotest.(check bool) "file exists" true (Sys.file_exists path));
        (match Ledger.append ~dir doc with
        | Error msg -> Alcotest.failf "second append failed: %s" msg
        | Ok path ->
          let ic = open_in path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          let lines =
            String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
          in
          Alcotest.(check int) "two lines" 2 (List.length lines);
          List.iter
            (fun l ->
              match Report.Json.of_string l with
              | Ok _ -> ()
              | Error msg -> Alcotest.failf "unparseable line: %s" msg)
            lines);
        Sys.remove (Filename.concat dir Ledger.history_name);
        Unix.rmdir dir);
    Alcotest.test_case "timestamp is ISO-like UTC" `Quick (fun () ->
        let t = Ledger.timestamp () in
        Alcotest.(check int) "length" 20 (String.length t);
        Alcotest.(check char) "zulu" 'Z' t.[19];
        Alcotest.(check char) "date/time split" 'T' t.[10]);
  ]

(* ------------------------------------------------------------------ *)

let attrib_saved_of_rows rows ~total_cycles ~run_cycles =
  {
    Attrib.Saved.rows =
      List.map
        (fun (rid, decompressions, cycles, share) ->
          { Attrib.Saved.rid; decompressions; cycles; share })
        rows;
    total_decompressions =
      List.fold_left (fun acc (_, d, _, _) -> acc + d) 0 rows;
    total_cycles;
    run_cycles;
    params = [ ("workload", "synthetic") ];
  }

let attrib_diff_tests =
  [
    Alcotest.test_case "saved attributions round-trip through JSON" `Quick
      (fun () ->
        let a =
          attrib_saved_of_rows
            [ (0, 10, 4000, 0.8); (3, 2, 1000, 0.2) ]
            ~total_cycles:5000 ~run_cycles:(Some 20000)
        in
        let json =
          Report.Json.Obj
            [ ("schema", Report.Json.String "pgcc-attrib-v1");
              ( "params",
                Report.Json.Obj
                  [ ("workload", Report.Json.String "synthetic") ] );
              ("run_cycles", Report.Json.Int 20000);
              ("total_decompressions", Report.Json.Int 12);
              ("total_cycles", Report.Json.Int 5000);
              ( "regions",
                Report.Json.List
                  (List.map
                     (fun (r : Attrib.Saved.row) ->
                       Report.Json.Obj
                         [ ("rid", Report.Json.Int r.Attrib.Saved.rid);
                           ( "decompressions",
                             Report.Json.Int r.Attrib.Saved.decompressions );
                           ("cycles", Report.Json.Int r.Attrib.Saved.cycles);
                           ("share", Report.Json.Float r.Attrib.Saved.share)
                         ])
                     a.Attrib.Saved.rows) ) ]
        in
        match Attrib.Saved.of_json json with
        | Error msg -> Alcotest.failf "of_json: %s" msg
        | Ok b ->
          Alcotest.(check bool) "identical" true (a = b);
          Alcotest.(check (option (float 1e-9)))
            "overhead share" (Some 0.25)
            (Attrib.Saved.overhead_share b));
    Alcotest.test_case
      "an attribution saved and reloaded diffs to zero against the live one"
      `Quick (fun () ->
        (* Shares of 1/3 and 2/3 have no short decimal form, so a lossy
           float writer would show a non-zero share delta here. *)
        let row rid cycles =
          { Attrib.rid; blocks = 1; stream_words = 8; buffer_words = 8;
            bits = 64; max_freq = 0; decompressions = 1; cycles;
            share = float_of_int cycles /. 3000.0; funcs = [ "f" ] }
        in
        let a =
          { Attrib.rows = [ row 1 2000; row 0 1000 ];
            total_decompressions = 2; total_cycles = 3000 }
        in
        let json =
          Attrib.to_json
            ~params:
              [ ("prog", Report.Json.String "synthetic");
                ("theta", Report.Json.Float 0.01) ]
            ~run_cycles:7000 a
        in
        let path = Filename.temp_file "attrib" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Report.Json.to_string json));
            let of_ok = function
              | Ok v -> v
              | Error msg -> Alcotest.failf "load: %s" msg
            in
            let saved = of_ok (Attrib.Saved.load_file path) in
            let live = of_ok (Attrib.Saved.of_json json) in
            Alcotest.(check bool) "identical" true (saved = live);
            List.iter
              (fun d ->
                Alcotest.(check int) "zero cycle delta" d.Attrib.cycles_a
                  d.Attrib.cycles_b;
                Alcotest.(check (float 0.0)) "zero share delta"
                  d.Attrib.share_a d.Attrib.share_b)
              (Attrib.diff saved live);
            Alcotest.(check bool) "params read back" true
              (List.assoc "theta" live.Attrib.Saved.params = "0.01")));
    Alcotest.test_case "the diff is signed and sorted by |delta|" `Quick
      (fun () ->
        let a =
          attrib_saved_of_rows
            [ (0, 10, 4000, 0.8); (1, 2, 1000, 0.2) ]
            ~total_cycles:5000 ~run_cycles:(Some 10000)
        in
        let b =
          attrib_saved_of_rows
            [ (0, 2, 500, 0.5); (2, 1, 500, 0.5) ]
            ~total_cycles:1000 ~run_cycles:(Some 10000)
        in
        let ds = Attrib.diff a b in
        Alcotest.(check (list int))
          "regions by |cycle delta|" [ 0; 1; 2 ]
          (List.map (fun d -> d.Attrib.drid) ds);
        let d0 = List.hd ds in
        Alcotest.(check int) "region 0 before" 4000 d0.Attrib.cycles_a;
        Alcotest.(check int) "region 0 after" 500 d0.Attrib.cycles_b;
        (* Region 1 only in A, region 2 only in B: zero-filled sides. *)
        let d1 = List.find (fun d -> d.Attrib.drid = 1) ds in
        Alcotest.(check int) "absent side" 0 d1.Attrib.cycles_b;
        let rendered = Attrib.render_diff a b in
        Alcotest.(check bool) "share shift rendered" true
          (String.length rendered > 0);
        (* 50% -> 10% overhead share must appear as a -40pp shift. *)
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "overall share line" true
          (contains rendered "50.0% -> 10.0% (-40.0pp)"));
  ]

(* ------------------------------------------------------------------ *)

let tracediff_tests =
  [
    Alcotest.test_case "a chrome export profiles its spans" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~capacity:64 () in
        let emit ts p = Obs.Trace.emit tr { Obs.Event.ts; payload = p } in
        emit (Obs.Event.Cycles 140)
          (Obs.Event.Decomp_end
             { region = 0; bits = 33; words = 7; cycles = 40 });
        emit (Obs.Event.Cycles 300)
          (Obs.Event.Decomp_end
             { region = 0; bits = 20; words = 7; cycles = 60 });
        emit (Obs.Event.Mono 10.25)
          (Obs.Event.Pass_end { name = "huffman"; elapsed_s = 0.25 });
        emit (Obs.Event.Cycles 400)
          (Obs.Event.Cache_evict { region = 0; slot = 0 });
        let p =
          match
            Tracediff.of_string
              (Report.Json.to_string (Obs.Trace.to_chrome tr))
          with
          | Ok p -> p
          | Error msg -> Alcotest.failf "parse failed: %s" msg
        in
        let decomp = List.assoc "decompress r0" p.Tracediff.spans in
        Alcotest.(check int) "decomp count" 2 decomp.Tracediff.count;
        Alcotest.(check (float 1e-6)) "decomp cycles-as-us" 100.0
          decomp.Tracediff.total_us;
        let pass = List.assoc "pass huffman" p.Tracediff.spans in
        Alcotest.(check (float 1e-3)) "pass us" 250_000.0
          pass.Tracediff.total_us;
        Alcotest.(check int) "header emitted" 4
          (Option.get p.Tracediff.emitted);
        (* Self-diff is all zeros. *)
        List.iter
          (fun (d : Tracediff.delta) ->
            Alcotest.(check (float 0.0))
              (d.Tracediff.name ^ " zero delta")
              0.0
              (d.Tracediff.us_b -. d.Tracediff.us_a))
          (Tracediff.diff p p));
    Alcotest.test_case "the diff surfaces the changed span" `Quick (fun () ->
        let mk cycles =
          let tr = Obs.Trace.create ~capacity:16 () in
          Obs.Trace.emit tr
            { Obs.Event.ts = Obs.Event.Cycles (100 + cycles);
              payload =
                Obs.Event.Decomp_end { region = 1; bits = 8; words = 2; cycles }
            };
          Obs.Trace.emit tr
            { Obs.Event.ts = Obs.Event.Mono 1.0;
              payload = Obs.Event.Pass_end { name = "cold"; elapsed_s = 0.1 }
            };
          match
            Tracediff.of_string
              (Report.Json.to_string (Obs.Trace.to_chrome tr))
          with
          | Ok p -> p
          | Error msg -> Alcotest.failf "parse failed: %s" msg
        in
        let ds = Tracediff.diff (mk 40) (mk 90) in
        let top = List.hd ds in
        Alcotest.(check string) "biggest mover first" "decompress r1"
          top.Tracediff.name;
        Alcotest.(check (float 1e-6)) "signed delta" 50.0
          (top.Tracediff.us_b -. top.Tracediff.us_a);
        let rendered = Tracediff.render ~top:1 (mk 40) (mk 90) in
        Alcotest.(check bool) "truncation note" true
          (String.length rendered > 0));
  ]

let suite =
  [
    ("benchdiff", benchdiff_tests);
    ("benchdiff.stats", stats_tests);
    ("benchdiff.ledger", ledger_tests);
    ("benchdiff.attrib", attrib_diff_tests);
    ("benchdiff.tracediff", tracediff_tests);
  ]
