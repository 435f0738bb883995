(* The parallel experiment engine: scheduler crash isolation, the
   compute-once memo, digest-keyed Exp_data, the bench sampler, and the
   grid determinism regression (engine at --jobs 1 / --jobs 4, and again
   after a memo reset, all byte-identical to the sequential path). *)

(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "results are in submission order" `Quick (fun () ->
        let thunks = List.init 20 (fun i () -> i * i) in
        let results, stats = Engine.run ~jobs:4 thunks in
        Alcotest.(check int) "submitted" 20 stats.Engine.submitted;
        Alcotest.(check int) "succeeded" 20 stats.Engine.succeeded;
        Array.iteri
          (fun i -> function
            | Ok v -> Alcotest.(check int) "value" (i * i) v
            | Error _ -> Alcotest.fail "unexpected failure")
          results);
    Alcotest.test_case "a crashing job fails alone" `Quick (fun () ->
        let thunks =
          List.init 8 (fun i () -> if i = 3 then failwith "boom" else i)
        in
        let results, stats =
          Engine.run ~jobs:4
            ~classify:(function
              | Failure m -> (`Failed, m)
              | e -> (`Exception, Printexc.to_string e))
            thunks
        in
        Alcotest.(check int) "one failure" 1 stats.Engine.failed;
        Alcotest.(check int) "seven successes" 7 stats.Engine.succeeded;
        (match results.(3) with
        | Error e ->
          Alcotest.(check string) "message" "boom" e.Engine.message;
          Alcotest.(check string) "kind" "failed"
            (Engine.kind_to_string e.Engine.kind)
        | Ok _ -> Alcotest.fail "job 3 should have failed");
        Array.iteri
          (fun i r -> if i <> 3 then Alcotest.(check bool) "ok" true (Result.is_ok r))
          results);
    Alcotest.test_case "jobs=1 runs inline and sequentially" `Quick (fun () ->
        let order = ref [] in
        let thunks = List.init 6 (fun i () -> order := i :: !order) in
        let _, stats = Engine.run ~jobs:1 thunks in
        Alcotest.(check int) "pool" 1 stats.Engine.pool;
        Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4; 5 ]
          (List.rev !order));
    Alcotest.test_case "JOBS env drives the default pool" `Quick (fun () ->
        let saved = Sys.getenv_opt "JOBS" in
        Unix.putenv "JOBS" "3";
        Alcotest.(check int) "JOBS=3" 3 (Engine.default_jobs ());
        Unix.putenv "JOBS" (Option.value ~default:"" saved));
    Alcotest.test_case "stats add up and render" `Quick (fun () ->
        let _, stats = Engine.run ~jobs:2 (List.init 5 (fun i () -> i)) in
        Alcotest.(check int) "jobs listed" 5
          (List.length stats.Engine.job_stats);
        Alcotest.(check bool) "busy >= 0" true (stats.Engine.busy_s >= 0.0);
        Alcotest.(check bool) "queue depth bounded" true
          (stats.Engine.max_queue_depth <= 5);
        let rendered = Engine.render_stats stats in
        Alcotest.(check bool) "render mentions pool" true
          (String.length rendered > 0);
        match Engine.stats_json stats with
        | Report.Json.Obj fields ->
          Alcotest.(check bool) "json has pool" true
            (List.mem_assoc "pool" fields)
        | _ -> Alcotest.fail "stats_json should be an object");
  ]

(* ------------------------------------------------------------------ *)

let memo_tests =
  [
    Alcotest.test_case "computes once under concurrency" `Quick (fun () ->
        let m : int Memo.t = Memo.create () in
        let count = Atomic.make 0 in
        let compute () =
          Memo.get m "key" (fun () ->
              Atomic.incr count;
              (* Dawdle so the other domains pile up on the same key. *)
              Unix.sleepf 0.02;
              42)
        in
        let domains = List.init 4 (fun _ -> Domain.spawn compute) in
        let results = List.map Domain.join domains in
        List.iter (fun v -> Alcotest.(check int) "value" 42 v) results;
        Alcotest.(check int) "computed once" 1 (Atomic.get count);
        Alcotest.(check int) "one settled entry" 1 (Memo.size m));
    Alcotest.test_case "a failed computation stays failed" `Quick (fun () ->
        let m : int Memo.t = Memo.create () in
        let count = ref 0 in
        let attempt () =
          match
            Memo.get m "bad" (fun () ->
                incr count;
                failwith "deterministic failure")
          with
          | _ -> Alcotest.fail "expected failure"
          | exception Failure msg ->
            Alcotest.(check string) "message" "deterministic failure" msg
        in
        attempt ();
        attempt ();
        Alcotest.(check int) "computed once" 1 !count);
    Alcotest.test_case "clear forgets" `Quick (fun () ->
        let m : int Memo.t = Memo.create () in
        let hits = ref 0 in
        let get () = Memo.get m "k" (fun () -> incr hits; 7) in
        ignore (get ());
        Memo.clear m;
        ignore (get ());
        Alcotest.(check int) "recomputed" 2 !hits);
  ]

(* ------------------------------------------------------------------ *)

let test_wl name source =
  {
    Workload.name;
    description = "engine test workload";
    source;
    profiling_input = lazy "";
    timing_input = lazy "";
    drift_input = lazy "";
  }

let exp_data_tests =
  [
    Alcotest.test_case "digest separates content, not concatenation" `Quick
      (fun () ->
        (* Source and profiling input concatenate to "ab|c" and "a|bc":
           the length prefixes must keep the two digests apart. *)
        let split source profiling =
          { (test_wl "split" source) with
            Workload.profiling_input = Lazy.from_val profiling }
        in
        Alcotest.(check bool) "ab|c <> a|bc" true
          (Exp_data.workload_digest (split "ab" "c")
          <> Exp_data.workload_digest (split "a" "bc"));
        Alcotest.(check string) "deterministic"
          (Exp_data.workload_digest (split "x" ""))
          (Exp_data.workload_digest (split "x" "")));
    Alcotest.test_case "prepared is keyed by content, not name" `Quick
      (fun () ->
        (* Two different workloads sharing one name: the second must not be
           served the first one's prepared image (the pre-engine cache was
           keyed by name alone and did exactly that). *)
        let wl1 = test_wl "same-name" "int main() { return 3; }" in
        let wl2 =
          test_wl "same-name"
            {|
int pad(int x) { int i; for (i = 0; i < 3; i = i + 1) x = x + i; return x; }
int main() { return pad(4) & 255; }
|}
        in
        Alcotest.(check bool) "digests differ" true
          (Exp_data.workload_digest wl1 <> Exp_data.workload_digest wl2);
        let p1 = Exp_data.prepare wl1 in
        let p2 = Exp_data.prepare wl2 in
        Alcotest.(check bool) "fresh image for changed content" true
          (Prog.instr_count p1.Exp_data.squeezed
          <> Prog.instr_count p2.Exp_data.squeezed);
        Alcotest.(check int) "wl1 exits 3" 3
          p1.Exp_data.profile_outcome.Vm.exit_code);
    Alcotest.test_case "prepare and squash force no timing or drift input"
      `Quick (fun () ->
        (* lint and prove only prepare and squash; generating the run
           inputs for them is wasted work. *)
        let wl =
          { (test_wl "no-run-inputs" "int main() { putint(getc()); return 0; }")
            with
            Workload.timing_input = lazy (failwith "timing input forced");
            drift_input = lazy (failwith "drift input forced") }
        in
        let p = Exp_data.prepare wl in
        let r =
          Exp_data.squash_result p { Squash.default_options with Squash.theta = 1.0 }
        in
        Alcotest.(check bool) "image built" true
          (Rewrite.total_words r.Squash.squashed > 0));
    Alcotest.test_case "runs are keyed by their input" `Quick (fun () ->
        (* Same source and profiling input, different timing inputs: the
           prepared entry is shared, the baseline runs are not. *)
        let wl timing =
          { (test_wl "same-run-name" "int main() { putint(getc()); return 0; }")
            with
            Workload.timing_input = Lazy.from_val timing }
        in
        let out timing =
          (Exp_data.baseline_timing (Exp_data.prepare (wl timing))).Vm.output
        in
        Alcotest.(check bool) "outputs differ" true (out "a" <> out "b"));
    Alcotest.test_case "options_key covers every option field" `Quick
      (fun () ->
        let base = Squash.default_options in
        let variants =
          [ { base with Squash.theta = 0.5 };
            { base with Squash.k_bytes = 64 };
            { base with Squash.gamma = 0.5 };
            { base with Squash.pack = false };
            { base with Squash.use_buffer_safe = false };
            { base with Squash.sharp_buffer_safe = true };
            { base with Squash.unswitch = false };
            { base with Squash.decomp_words = 128 };
            { base with Squash.max_stubs = 4 };
            { base with Squash.coder = `Context };
            { base with Squash.regions_strategy = `Linear } ]
        in
        let keys = List.map Exp_data.options_key (base :: variants) in
        Alcotest.(check int) "all keys distinct"
          (List.length keys)
          (List.length (List.sort_uniq compare keys)));
  ]

(* ------------------------------------------------------------------ *)
(* The bench sampler: every repeat must recompute (a memo hit would time
   a lookup, not the experiment), and the JSON metrics of one experiment
   must name each key once however many samples ran. *)

let sample_tests =
  [
    Alcotest.test_case "T1 at repeat 2: fresh prepare, unique metric keys"
      `Slow (fun () ->
        let wl = List.hd Workloads.all in
        let prepared = ref [] in
        let s =
          Experiments.sample ~repeat:2 (fun () ->
              let report =
                Experiments.run ~jobs:(Engine.default_jobs ())
                  (List.assoc "T1" Experiments.all)
              in
              prepared := Exp_data.prepare wl :: !prepared;
              report)
        in
        Alcotest.(check int) "two samples" 2
          (List.length s.Experiments.seconds);
        let keys = List.map fst s.Experiments.report.Experiments.metrics in
        Alcotest.(check bool) "engine metric recorded" true
          (List.mem "engine" keys);
        Alcotest.(check (list string)) "metric keys unique"
          (List.sort_uniq compare keys) (List.sort compare keys);
        match !prepared with
        | [ second; first ] ->
          Alcotest.(check bool) "second sample recomputed prepare" true
            (first != second)
        | _ -> Alcotest.fail "expected one prepare per sample");
  ]

(* ------------------------------------------------------------------ *)
(* Experiment drivers: each declares its cells up front, names every one
   distinctly (an engine error must say which variant failed), and renders
   a failed cell as FAILED without disturbing the other rows. *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let experiment_tests =
  [
    Alcotest.test_case "every driver's cell labels are distinct" `Quick
      (fun () ->
        List.iter
          (fun (id, (d : Experiments.driver)) ->
            let labels = List.map Exp_grid.cell_label d.Experiments.cells in
            let sorted = List.sort compare labels in
            let rec dups = function
              | a :: (b :: _ as rest) -> if a = b then a :: dups rest else dups rest
              | _ -> []
            in
            Alcotest.(check (list string)) (id ^ ": no label twice") []
              (dups sorted))
          Experiments.all);
    Alcotest.test_case "labels name every option that differs from the defaults"
      `Quick (fun () ->
        let gsm = Option.get (Workloads.find "gsm") in
        let base = { Squash.default_options with Squash.theta = 0.01 } in
        let label ?timing o = Exp_grid.cell_label (Exp_grid.cell ?timing gsm o) in
        Alcotest.(check string) "θ and K only" "gsm θ=0.01 K=512" (label base);
        Alcotest.(check string) "timing" "gsm θ=0.01 K=512 +timing"
          (label ~timing:true { base with Squash.k_bytes = 512 });
        Alcotest.(check string) "coder" "gsm θ=0.01 K=512 coder=context"
          (label { base with Squash.coder = `Context });
        Alcotest.(check string) "two options"
          "gsm θ=0.01 K=256 pack=false regions=linear"
          (label
             { base with
               Squash.k_bytes = 256; pack = false; regions_strategy = `Linear }));
    Alcotest.test_case "a failed cell renders as FAILED, the rest unchanged"
      `Slow (fun () ->
        Fun.protect ~finally:Exp_data.reset (fun () ->
            let d = List.assoc "S3-gamma" Experiments.all in
            let results, stats =
              Exp_grid.run ~jobs:(Engine.default_jobs ()) d.Experiments.cells
            in
            let plain = Experiments.render d (results, stats) in
            (* gsm's outcome replaced by an engine error. *)
            let failed =
              List.map
                (fun ((c : Exp_grid.cell), o) ->
                  if c.Exp_grid.wl.Workload.name <> "gsm" then (c, o)
                  else
                    ( c,
                      Error
                        { Engine.label = Exp_grid.cell_label c; kind = `Trap;
                          message = "injected" } ))
                results
            in
            let broken = Experiments.render d (failed, stats) in
            let lines (r : Experiments.report) =
              String.split_on_char '\n' r.Experiments.text
            in
            Alcotest.(check int) "same line count"
              (List.length (lines plain))
              (List.length (lines broken));
            List.iter2
              (fun p b ->
                if starts_with ~prefix:"gsm " p || starts_with ~prefix:"geo. mean" p
                then begin
                  Alcotest.(check bool) ("FAILED in " ^ b) true
                    (contains ~needle:"FAILED" b);
                  Alcotest.(check bool) ("no FAILED in " ^ p) false
                    (contains ~needle:"FAILED" p)
                end
                else Alcotest.(check string) "row unchanged" p b)
              (lines plain) (lines broken);
            let keys (r : Experiments.report) = List.map fst r.Experiments.metrics in
            Alcotest.(check bool) "plain: no engine_failures" false
              (List.mem "engine_failures" (keys plain));
            Alcotest.(check bool) "broken: engine_failures" true
              (List.mem "engine_failures" (keys broken))));
  ]

(* ------------------------------------------------------------------ *)
(* The grid determinism regression: the full θ-grid through the engine at
   --jobs 1 and --jobs 4, and again after a memo reset, must be
   byte-identical to the sequential Exp_data path.  Two workloads keep the
   wall clock tolerable; the θ axis is the full grid. *)

let grid_wls () =
  List.filter
    (fun (wl : Workload.t) -> List.mem wl.Workload.name [ "pgp"; "rasta" ])
    Workloads.all

let grid_cells () =
  let wls = grid_wls () in
  let size_cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun wl ->
            Exp_grid.cell wl { Squash.default_options with Squash.theta })
          wls)
      Exp_data.theta_grid
  in
  let timing_cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun wl ->
            Exp_grid.cell ~timing:true wl
              { Squash.default_options with Squash.theta })
          wls)
      [ 0.0; 1e-3 ]
  in
  size_cells @ timing_cells

let render_run ~jobs cells =
  Exp_data.reset ();
  let results, stats = Exp_grid.run ~jobs cells in
  Alcotest.(check int) "no cell failed" 0 stats.Engine.failed;
  Exp_grid.render_table results ^ Exp_grid.to_csv results

let determinism_tests =
  [
    Alcotest.test_case "θ-grid: jobs 1/4, recomputed pass byte-identical"
      `Slow (fun () ->
        Fun.protect ~finally:Exp_data.reset (fun () ->
            let cells = grid_cells () in
            (* The sequential Exp_data path: no engine pool (jobs=1 runs
               inline on the calling domain). *)
            let sequential = render_run ~jobs:1 cells in
            let parallel = render_run ~jobs:4 cells in
            (* [render_run] resets the memos, so this pass recomputes
               every cell. *)
            let parallel_again = render_run ~jobs:4 cells in
            (* Default pool size (honours $JOBS — CI runs 1 and 4). *)
            let default_jobs = render_run ~jobs:(Engine.default_jobs ()) cells in
            Alcotest.(check string) "parallel = sequential" sequential parallel;
            Alcotest.(check string) "recomputed parallel = sequential"
              sequential parallel_again;
            Alcotest.(check string) "default jobs = sequential" sequential
              default_jobs));
    Alcotest.test_case "a failing cell fails that cell only" `Quick
      (fun () ->
        (* One word cannot hold the decompressor, so [Rewrite.build] fails
           the rasta θ=1e-3 cell. *)
        let options (wl : Workload.t) theta =
          if wl.Workload.name = "rasta" && theta = 1e-3 then
            { Squash.default_options with Squash.theta; decomp_words = 1 }
          else { Squash.default_options with Squash.theta }
        in
        let cells =
          List.concat_map
            (fun theta ->
              List.map
                (fun wl -> Exp_grid.cell wl (options wl theta))
                (grid_wls ()))
            [ 0.0; 1e-3 ]
        in
        let results, stats = Exp_grid.run ~jobs:2 cells in
        Alcotest.(check int) "one failure" 1 stats.Engine.failed;
        Alcotest.(check int) "rest completed" (List.length cells - 1)
          stats.Engine.succeeded;
        let failed = Exp_grid.failures results in
        Alcotest.(check int) "one structured error" 1 (List.length failed);
        let e = List.hd failed in
        Alcotest.(check string) "kind" "failed"
          (Engine.kind_to_string e.Engine.kind);
        Alcotest.(check string) "message"
          "Rewrite.build: decomp_words too small" e.Engine.message;
        (* The failure is surfaced in the machine-readable report. *)
        let json = Report.Json.to_string (Exp_grid.to_json results) in
        Alcotest.(check bool) "json carries the failure" true
          (contains ~needle:"\"status\":\"failed\"" json);
        Alcotest.(check bool) "json carries successes" true
          (contains ~needle:"\"status\":\"ok\"" json));
    Alcotest.test_case "classify tells a trap from fuel exhaustion" `Quick
      (fun () ->
        let kind e = Engine.kind_to_string (fst (Exp_grid.classify e)) in
        Alcotest.(check string) "machine trap" "trap"
          (kind (Vm.Trap { pc = 0x40; reason = "misaligned load" }));
        Alcotest.(check string) "out of fuel" "fuel-exhausted"
          (kind (Vm.Trap { pc = 0x40; reason = "out of fuel" })));
  ]

let suite =
  [ ("engine", engine_tests); ("engine-memo", memo_tests);
    ("engine-exp-data", exp_data_tests); ("engine-sample", sample_tests);
    ("engine-experiments", experiment_tests);
    ("engine-grid", determinism_tests) ]
