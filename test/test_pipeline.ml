(* The instrumented pass pipeline: its fixed order, per-pass validation,
   stats invariants, and byte-identity of Squash.run with an explicit
   pipeline run. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let squeeze p = fst (Squeeze.run p)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let hot_cold_src =
  {|
int report(int code) {
  putint(1000 + code);
  return code;
}
int rare_fixup(int x) {
  int i; int acc;
  acc = x;
  for (i = 0; i < 3; i = i + 1) acc = acc * 5 + i;
  report(acc & 1023);
  return acc;
}
int rare_dispatch(int x) {
  switch (x) {
    case 0: return 10;
    case 1: return 21;
    case 2: return 32;
    case 3: return 43;
    case 4: return 54;
    default: return 99;
  }
}
int hot_step(int x) { return (x * 17 + 3) & 4095; }
int main() {
  int mode; int i; int acc;
  mode = getc();
  acc = 1;
  for (i = 0; i < 200; i = i + 1) acc = hot_step(acc + i);
  if (mode == 'x') acc = rare_fixup(acc);
  if (mode == 'd') acc = acc + rare_dispatch(mode & 7);
  putint(acc);
  return acc & 255;
}
|}

let prepared = lazy (
  let p = squeeze (compile hot_cold_src) in
  let prof, _ = Profile.collect p ~input:"n" in
  (p, prof))

let manual_squash options p prof =
  let st, stats =
    Pipeline.execute ~passes:(Pipeline.of_options options)
      (Pass.init ~options p prof)
  in
  (Pass.get_squashed ~who:"test" st, stats)

let check_identical name (a : Rewrite.t) (b : Rewrite.t) =
  Alcotest.(check string) (name ^ " blob") a.Rewrite.blob b.Rewrite.blob;
  Alcotest.(check (array int)) (name ^ " blob offsets") a.Rewrite.blob_offsets
    b.Rewrite.blob_offsets;
  Alcotest.(check (array int))
    (name ^ " text words")
    a.Rewrite.text.Easm.words b.Rewrite.text.Easm.words;
  Alcotest.(check int) (name ^ " total words") (Rewrite.total_words a)
    (Rewrite.total_words b);
  Alcotest.(check (list (pair (pair string int) int)))
    (name ^ " stub addrs") a.Rewrite.stub_addrs b.Rewrite.stub_addrs

(* A deliberately broken pass: leaks a compressed-stream marker into the
   IR, the kind of damage --check-each exists to localise. *)
let corrupting_pass =
  {
    Pass.name = "corrupt";
    transform =
      (fun st ->
        let p = st.Pass.prog in
        let funcs =
          match p.Prog.funcs with
          | [] -> []
          | (f : Prog.Func.t) :: rest ->
            let blocks = Array.copy f.Prog.Func.blocks in
            let b = blocks.(0) in
            blocks.(0) <-
              { b with Prog.Block.items = Prog.Instr Instr.Sentinel :: b.Prog.Block.items };
            { f with Prog.Func.blocks = blocks } :: rest
        in
        { st with Pass.prog = { p with Prog.funcs } });
    note = (fun _ -> "corrupted");
  }

let ordering_tests =
  [
    Alcotest.test_case "standard order is the paper's" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let _, stats = manual_squash Squash.default_options p prof in
        Alcotest.(check (list string))
          "pass order"
          [ "resolve"; "cold"; "unswitch"; "exclude"; "regions"; "buffer-safe";
            "rewrite" ]
          (List.map (fun (s : Pass.stats) -> s.Pass.pass_name)
             stats.Pipeline.passes));
    Alcotest.test_case "of_options drops unswitch exactly when disabled" `Quick
      (fun () ->
        let names o = Pipeline.names (Pipeline.of_options o) in
        Alcotest.(check bool) "on" true
          (List.mem "unswitch" (names Squash.default_options));
        Alcotest.(check bool) "off" false
          (List.mem "unswitch"
             (names { Squash.default_options with Squash.unswitch = false })));
  ]

let check_each_tests =
  [
    Alcotest.test_case "healthy pipeline passes --check-each" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let st, _ =
          Pipeline.execute ~check_each:true
            ~passes:(Pipeline.of_options Squash.default_options)
            (Pass.init p prof)
        in
        Alcotest.(check bool) "image built" true (st.Pass.squashed <> None));
    Alcotest.test_case "a corrupting pass is caught at that pass" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let passes =
          List.concat_map
            (fun (q : Pass.t) ->
              if q.Pass.name = "cold" then [ q; corrupting_pass ] else [ q ])
            (Pipeline.of_options Squash.default_options)
        in
        (match
           Pipeline.execute ~check_each:true ~passes (Pass.init p prof)
         with
        | _ -> Alcotest.fail "corruption not detected"
        | exception Pipeline.Check_failed { pass; errors } ->
          Alcotest.(check string) "blamed pass" "corrupt" pass;
          Alcotest.(check bool) "mentions the sentinel" true
            (List.exists (fun e -> contains e "sentinel") errors));
        (* Without check_each the same list runs to completion: nothing
           checks the IR between passes. *)
        let st, _ = Pipeline.execute ~passes (Pass.init p prof) in
        Alcotest.(check bool) "image still built" true (st.Pass.squashed <> None));
    Alcotest.test_case "stale profile indices are caught at the first pass"
      `Quick (fun () ->
        (* A profile of another program names blocks this one lacks; the
           damage is there before any pass runs, so the first pass is
           blamed. *)
        let _, prof = Lazy.force prepared in
        let other = squeeze (compile "int main() { putint(1); return 0; }") in
        match
          Pipeline.execute ~check_each:true
            ~passes:(Pipeline.of_options Squash.default_options)
            (Pass.init other prof)
        with
        | _ -> Alcotest.fail "stale profile not detected"
        | exception Pipeline.Check_failed { pass; errors } ->
          Alcotest.(check string) "blamed pass" "resolve" pass;
          Alcotest.(check bool) "mentions the profile" true
            (List.exists (fun e -> contains e "profile") errors));
    Alcotest.test_case "Squash.run ~check_each works end to end" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let r = Squash.run ~check_each:true p prof in
        Alcotest.(check bool) "image" true (Rewrite.total_words r.Squash.squashed > 0));
  ]

let stats_tests =
  [
    Alcotest.test_case "stats chain: sizes thread through the passes" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let r = Squash.run p prof in
        let stats = r.Squash.stats in
        let ss = stats.Pipeline.passes in
        Alcotest.(check bool) "non-empty" true (ss <> []);
        let first = List.hd ss and last = List.nth ss (List.length ss - 1) in
        Alcotest.(check int) "starts from the input program"
          (Prog.text_words p) first.Pass.words_before;
        Alcotest.(check int) "ends at the squashed footprint"
          (Rewrite.total_words r.Squash.squashed) last.Pass.words_after;
        Alcotest.(check int) "squashed_words agrees" r.Squash.squashed_words
          last.Pass.words_after;
        ignore
          (List.fold_left
             (fun prev (s : Pass.stats) ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s time non-negative" s.Pass.pass_name)
                 true (s.Pass.cost.Obs.elapsed_s >= 0.0);
               (match prev with
               | None -> ()
               | Some (pw, pi) ->
                 Alcotest.(check int)
                   (Printf.sprintf "%s words chain" s.Pass.pass_name)
                   pw s.Pass.words_before;
                 Alcotest.(check int)
                   (Printf.sprintf "%s instrs chain" s.Pass.pass_name)
                   pi s.Pass.instrs_before);
               Some (s.Pass.words_after, s.Pass.instrs_after))
             None ss);
        let sum =
          List.fold_left
            (fun acc (s : Pass.stats) -> acc +. s.Pass.cost.Obs.elapsed_s)
            0.0 ss
        in
        Alcotest.(check bool) "total is the sum of the passes" true
          (Float.abs (stats.Pipeline.total_s -. sum) < 1e-9));
    Alcotest.test_case "render_stats and stats_json name every pass" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let r = Squash.run p prof in
        let table = Pipeline.render_stats r.Squash.stats in
        let json =
          Report.Json.to_string (Pipeline.stats_json r.Squash.stats)
        in
        List.iter
          (fun name ->
            Alcotest.(check bool) ("table has " ^ name) true (contains table name);
            Alcotest.(check bool) ("json has " ^ name) true
              (contains json (Printf.sprintf "\"name\":%S" name)))
          (Pipeline.names (Pipeline.of_options Squash.default_options));
        Alcotest.(check bool) "json has total_s" true (contains json "\"total_s\""));
  ]

let identity_tests =
  [
    Alcotest.test_case "Squash.run == explicit pipeline (byte-identical)" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let r = Squash.run p prof in
        let sq, _ = manual_squash Squash.default_options p prof in
        check_identical "small" r.Squash.squashed sq);
    Alcotest.test_case
      "workloads: byte-identical images at default options" `Slow (fun () ->
        List.iter
          (fun wl ->
            let pre = Exp_data.prepare wl in
            let p = pre.Exp_data.squeezed and prof = pre.Exp_data.profile in
            let r = Squash.run p prof in
            let sq, _ = manual_squash Squash.default_options p prof in
            check_identical wl.Workload.name r.Squash.squashed sq;
            match Verify.errors (Verify.run r.Squash.squashed) with
            | [] -> ()
            | errs ->
              Alcotest.failf "%s: image gate: %s" wl.Workload.name
                (String.concat "; " (List.map Verify.message errs)))
          Workloads.all);
  ]

let validate_tests =
  [
    Alcotest.test_case "a healthy program validates clean" `Quick (fun () ->
        let p, _ = Lazy.force prepared in
        match Prog.validate p with
        | Ok () -> ()
        | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es));
    Alcotest.test_case "stray markers in a block body are all reported" `Quick
      (fun () ->
        let p, _ = Lazy.force prepared in
        let funcs =
          match p.Prog.funcs with
          | (f : Prog.Func.t) :: rest ->
            let blocks = Array.copy f.Prog.Func.blocks in
            let b = blocks.(0) in
            blocks.(0) <-
              {
                b with
                Prog.Block.items =
                  Prog.Instr Instr.Sentinel
                  :: Prog.Instr (Instr.Bsrx { ra = 0; disp = 2 })
                  :: Prog.Instr (Instr.Jsr { ra = 26; rb = 9; hint = 1 })
                  :: b.Prog.Block.items;
              };
            { f with Prog.Func.blocks = blocks } :: rest
          | [] -> []
        in
        match Prog.validate { p with Prog.funcs } with
        | Ok () -> Alcotest.fail "markers not detected"
        | Error es ->
          (* One error per marker: the validator collects everything. *)
          Alcotest.(check bool)
            (Printf.sprintf "3 errors (got %d: %s)" (List.length es)
               (String.concat "; " es))
            true
            (List.length es = 3));
  ]

let suite =
  [ ("pipeline",
     ordering_tests @ check_each_tests @ stats_tests @ identity_tests
     @ validate_tests) ]
