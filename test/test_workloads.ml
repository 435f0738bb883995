(* The workload suite: every benchmark compiles, runs deterministically on
   both inputs, and survives the full squeeze+squash pipeline with identical
   observable behaviour. *)

let fuel = 500_000_000

let run_prog p input = Vm.run (Vm.of_image ~fuel (Layout.emit p) ~input)

let per_workload_tests (wl : Workload.t) =
  [
    Alcotest.test_case (wl.Workload.name ^ " compiles and validates") `Quick
      (fun () ->
        let p = Workload.compile wl in
        match Prog.validate p with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
    Alcotest.test_case (wl.Workload.name ^ " runs both inputs") `Slow (fun () ->
        let p = Workload.compile wl in
        let o1 = run_prog p (Workload.profiling_input wl) in
        let o2 = run_prog p (Workload.timing_input wl) in
        Alcotest.(check bool) "profiling output nonempty" true
          (String.length o1.Vm.output > 0);
        Alcotest.(check bool) "timing output nonempty" true
          (String.length o2.Vm.output > 0);
        Alcotest.(check bool) "timing works harder" true
          (o2.Vm.icount > o1.Vm.icount));
    Alcotest.test_case (wl.Workload.name ^ " squeeze preserves behaviour") `Slow
      (fun () ->
        let p = Workload.compile wl in
        let q, stats = Squeeze.run p in
        Alcotest.(check bool) "squeeze shrinks" true
          (stats.Squeeze.instrs_after < stats.Squeeze.instrs_before);
        let input = Workload.profiling_input wl in
        let o1 = run_prog p input and o2 = run_prog q input in
        Alcotest.(check string) "output" o1.Vm.output o2.Vm.output;
        Alcotest.(check int) "exit" o1.Vm.exit_code o2.Vm.exit_code);
    Alcotest.test_case (wl.Workload.name ^ " squash preserves behaviour") `Slow
      (fun () ->
        let p, _ = Squeeze.run (Workload.compile wl) in
        let profile, _ = Profile.collect ~fuel p ~input:(Workload.profiling_input wl) in
        let timing = Workload.timing_input wl in
        let baseline = run_prog p timing in
        List.iter
          (fun theta ->
            let options = { Squash.default_options with Squash.theta = theta } in
            let r = Squash.run ~options p profile in
            (match Verify.errors (Verify.run r.Squash.squashed) with
            | [] -> ()
            | errs ->
              Alcotest.failf "image gate at θ=%g: %s" theta
                (String.concat "; " (List.map Verify.message errs)));
            let outcome, _ = Runtime.run ~fuel r.Squash.squashed ~input:timing in
            Alcotest.(check string)
              (Printf.sprintf "output at θ=%g" theta)
              baseline.Vm.output outcome.Vm.output;
            Alcotest.(check int)
              (Printf.sprintf "exit at θ=%g" theta)
              baseline.Vm.exit_code outcome.Vm.exit_code;
            Alcotest.(check bool)
              (Printf.sprintf "smaller at θ=%g" theta)
              true
              (Squash.size_reduction r > 0.05))
          [ 0.0; 1e-3 ]);
  ]

let registry_tests =
  [
    Alcotest.test_case "registry has the paper's eleven benchmarks" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "names"
          [ "adpcm"; "epic"; "g721_dec"; "g721_enc"; "gsm"; "jpeg_dec";
            "jpeg_enc"; "mpeg2dec"; "mpeg2enc"; "pgp"; "rasta" ]
          Workloads.names);
    Alcotest.test_case "find works" `Quick (fun () ->
        Alcotest.(check bool) "gsm" true (Workloads.find "gsm" <> None);
        Alcotest.(check bool) "nope" true (Workloads.find "nope" = None));
    Alcotest.test_case "timing inputs are larger than profiling inputs" `Quick
      (fun () ->
        List.iter
          (fun (wl : Workload.t) ->
            if
              String.length (Workload.timing_input wl)
              <= String.length (Workload.profiling_input wl)
            then Alcotest.failf "%s: timing input not larger" wl.Workload.name)
          Workloads.all);
    Alcotest.test_case "input generators are deterministic" `Quick (fun () ->
        let a = Wl_input.speech ~seed:5 ~samples:100 in
        let b = Wl_input.speech ~seed:5 ~samples:100 in
        Alcotest.(check bool) "speech" true (a = b);
        let c = Wl_input.image ~seed:9 ~width:16 ~height:8 in
        let d = Wl_input.image ~seed:9 ~width:16 ~height:8 in
        Alcotest.(check bool) "image" true (c = d);
        Alcotest.(check int) "image size" (16 * 8) (List.length c));
    Alcotest.test_case "word_string round-trips" `Quick (fun () ->
        let words = [ 0; 1; 0xFFFF_FFFF; 0x1234_5678; 42 ] in
        Alcotest.(check (list int)) "roundtrip" words
          (Wl_input.words_of_string (Wl_input.word_string words)));
  ]

let suite =
  [ ("workloads", registry_tests @ List.concat_map per_workload_tests Workloads.all) ]
