(* End-to-end checks of the squashc binary: each command's exit status and
   the files it writes, on gsm at θ = 0.01. *)

let squashc = Filename.concat (Filename.concat ".." "bin") "squashc.exe"

(* Run squashc with [args]; return its exit status and its stdout and
   stderr. *)
let run args =
  let out = Filename.temp_file "squashc" ".out" in
  let err = Filename.temp_file "squashc" ".err" in
  let code =
    Sys.command (Filename.quote_command squashc args ~stdout:out ~stderr:err)
  in
  let read path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  let stdout = read out in
  (code, stdout, read err)

let with_output suffix f =
  let path = Filename.temp_file "squashc" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_exit what expected (code, stdout, stderr) =
  if code <> expected then
    Alcotest.failf "%s: exit %d, expected %d\nstdout:\n%s\nstderr:\n%s" what
      code expected stdout stderr

(* The file parses as one Chrome trace document; returns its row count. *)
let chrome_rows path =
  let doc =
    Json_check.parse (In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check bool) "schema" true
    (Json_check.member "schema" doc = Some (Json_check.Str "pgcc-trace-v3"));
  match Json_check.member_exn "traceEvents" doc with
  | Json_check.Arr rows -> List.length rows
  | _ -> Alcotest.fail "traceEvents is not a list"

let tests =
  [
    Alcotest.test_case "run exits with the program's exit code" `Quick
      (fun () ->
        let expected =
          (Exp_data.prepare (Option.get (Workloads.find "gsm")))
            .Exp_data.profile_outcome.Vm.exit_code
        in
        Alcotest.(check bool) "gsm exits non-zero" true (expected <> 0);
        check_exit "run gsm" expected (run [ "run"; "gsm" ]));
    Alcotest.test_case "squash --verify --trace writes Chrome JSON" `Quick
      (fun () ->
        with_output ".json" (fun path ->
            let ((_, stdout, _) as r) =
              run
                [ "squash"; "gsm"; "--theta"; "0.01"; "--verify"; "--trace";
                  path ]
            in
            check_exit "squash --verify --trace" 0 r;
            Alcotest.(check bool) "verified" true
              (contains stdout "verified: identical behaviour");
            let doc =
              Json_check.parse
                (In_channel.with_open_bin path In_channel.input_all)
            in
            let phases =
              match Json_check.member_exn "traceEvents" doc with
              | Json_check.Arr events ->
                List.filter_map
                  (fun e ->
                    match Json_check.member "ph" e with
                    | Some (Json_check.Str ph) -> Some ph
                    | _ -> None)
                  events
              | _ -> Alcotest.fail "traceEvents is not a list"
            in
            Alcotest.(check bool) "has X events" true (List.mem "X" phases)));
    Alcotest.test_case "squash --stats-json writes the stats ledgers" `Quick
      (fun () ->
        with_output ".json" (fun path ->
            let ((_, stdout, _) as r) =
              run
                [ "squash"; "gsm"; "--theta"; "0.01"; "--verify";
                  "--stats-json"; path ]
            in
            check_exit "squash --verify --stats-json" 0 r;
            let verified =
              List.find
                (fun l -> contains l "verified: identical behaviour")
                (String.split_on_char '\n' stdout)
            in
            let decomps =
              Scanf.sscanf verified "verified: identical behaviour; %d decompressions"
                Fun.id
            in
            let doc =
              Json_check.parse
                (In_channel.with_open_bin path In_channel.input_all)
            in
            Alcotest.(check (option string)) "schema"
              (Some "pgcc-squash-stats-v5")
              (match Json_check.member "schema" doc with
              | Some (Json_check.Str s) -> Some s
              | _ -> None);
            Alcotest.(check bool) "no metrics key" true
              (Json_check.member "metrics" doc = None);
            Alcotest.(check bool) "runtime.decompressions" true
              (Json_check.member_exn "decompressions"
                 (Json_check.member_exn "runtime" doc)
              = Json_check.Num (float_of_int decomps));
            match
              Json_check.member_exn "passes"
                (Json_check.member_exn "pipeline" doc)
            with
            | Json_check.Arr (_ :: _ as passes) ->
              List.iter
                (fun p ->
                  let name =
                    match Json_check.member "name" p with
                    | Some (Json_check.Str s) -> s
                    | _ -> "?"
                  in
                  match Json_check.member_exn "alloc_words" p with
                  | Json_check.Num w when w > 0.0 -> ()
                  | _ -> Alcotest.failf "pass %s: alloc_words not > 0" name)
                passes
            | _ -> Alcotest.fail "pipeline.passes is not a non-empty list"));
    Alcotest.test_case "any --trace name writes Chrome JSON" `Quick
      (fun () ->
        with_output ".jsonl" (fun path ->
            check_exit "squash --trace t.jsonl" 0
              (run
                 [ "squash"; "gsm"; "--theta"; "0.01"; "--verify"; "--trace";
                   path ]);
            Alcotest.(check bool) "metadata and events" true
              (chrome_rows path > 2));
        with_output ".trace" (fun path ->
            check_exit "grid --trace g.trace" 0
              (run [ "grid"; "gsm"; "--theta"; "0.01"; "--trace"; path ]);
            Alcotest.(check bool) "metadata and events" true
              (chrome_rows path > 2)));
    Alcotest.test_case "an unreadable or invalid input file exits 2" `Quick
      (fun () ->
        let tmp = Filename.get_temp_dir_name () in
        let missing = Filename.concat tmp "no-such-squashc-input" in
        with_output ".txt" (fun garbage ->
            Out_channel.with_open_bin garbage (fun oc ->
                output_string oc "not a saved artifact\n");
            List.iter
              (fun (path, args) ->
                let what = String.concat " " args in
                let ((_, _, stderr) as r) = run args in
                check_exit what 2 r;
                Alcotest.(check bool)
                  (what ^ " names the path") true
                  (contains stderr ("squashc: " ^ path ^ ": ")))
              [ (missing, [ "tracediff"; missing; garbage ]);
                (garbage, [ "tracediff"; garbage; garbage ]);
                (missing, [ "benchdiff"; missing; garbage ]);
                (garbage, [ "benchdiff"; garbage; garbage ]);
                (missing, [ "profdiff"; missing; garbage ]);
                (garbage, [ "profdiff"; garbage; garbage ]);
                (missing, [ "attrib"; "gsm"; "--compare"; missing ]);
                (garbage, [ "attrib"; "gsm"; "--compare"; garbage ]);
                (missing, [ "squash"; "gsm"; "--profile"; missing ]);
                (garbage, [ "squash"; "gsm"; "--profile"; garbage ]);
                (missing, [ "profile"; "gsm"; "--merge"; missing ]);
                (garbage, [ "profile"; "gsm"; "--merge"; garbage ]);
                (missing, [ "run"; "gsm"; "--input-file"; missing ]);
                (* A directory opens but cannot be read. *)
                (tmp, [ "run"; "gsm"; "--input-file"; tmp ]) ]));
    Alcotest.test_case "lint and prove pass" `Quick (fun () ->
        check_exit "lint" 0 (run [ "lint"; "gsm"; "--theta"; "0.01" ]);
        check_exit "prove" 0
          (run [ "prove"; "gsm"; "--theta"; "0.01"; "--slots"; "1" ]));
    Alcotest.test_case "attrib prints the overhead line" `Quick (fun () ->
        let ((_, stdout, _) as r) =
          run [ "attrib"; "gsm"; "--theta"; "0.01" ]
        in
        check_exit "attrib" 0 r;
        Alcotest.(check bool) "overhead line" true
          (contains stdout "\noverhead: "));
    Alcotest.test_case "--trace-format is an unknown option" `Quick
      (fun () ->
        List.iter
          (fun cmd ->
            let code, _, stderr =
              run [ cmd; "gsm"; "--trace-format"; "jsonl" ]
            in
            Alcotest.(check bool) (cmd ^ " fails") true (code <> 0);
            Alcotest.(check bool) (cmd ^ " names the option") true
              (contains stderr "unknown option '--trace-format'"))
          [ "run"; "squash"; "grid" ]);
  ]

let suite = [ ("cli", tests) ]
