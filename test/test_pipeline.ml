(* The instrumented pass pipeline: ordering, skipping, per-pass validation,
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

let manual_squash ?(passes = None) options p prof =
  let passes =
    match passes with Some l -> l | None -> Pipeline.of_options options
  in
  let st, stats = Pipeline.execute ~passes (Pass.init ~options p prof) in
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
    requires = [];
    after = [];
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
    Alcotest.test_case "standard order is accepted" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let _, stats = manual_squash Squash.default_options p prof in
        Alcotest.(check (list string))
          "pass order"
          [ "resolve"; "cold"; "unswitch"; "exclude"; "regions"; "buffer-safe";
            "rewrite" ]
          (List.map (fun (s : Pass.stats) -> s.Pass.pass_name)
             stats.Pipeline.passes));
    Alcotest.test_case "missing prerequisite is rejected up front" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        Alcotest.check_raises "regions without cold"
          (Invalid_argument
             "Pipeline.execute: pass \"regions\" requires \"cold\" to run earlier")
          (fun () ->
            ignore
              (Pipeline.execute ~passes:[ Pipeline.regions_pass ]
                 (Pass.init p prof))));
    Alcotest.test_case "soft ordering: exclude may not precede unswitch" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let bad =
          [ Pipeline.cold_pass; Pipeline.exclude_pass; Pipeline.unswitch_pass;
            Pipeline.regions_pass; Pipeline.buffer_safe_pass;
            Pipeline.rewrite_pass ]
        in
        Alcotest.check_raises "exclude before unswitch"
          (Invalid_argument
             "Pipeline.execute: pass \"exclude\" must come after \"unswitch\"")
          (fun () -> ignore (Pipeline.execute ~passes:bad (Pass.init p prof))));
    Alcotest.test_case "duplicate pass is rejected" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        Alcotest.check_raises "cold twice"
          (Invalid_argument "Pipeline.execute: pass \"cold\" appears twice")
          (fun () ->
            ignore
              (Pipeline.execute
                 ~passes:[ Pipeline.cold_pass; Pipeline.cold_pass ]
                 (Pass.init p prof))));
    Alcotest.test_case "exclude without unswitch in the list is fine" `Quick
      (fun () ->
        (* The soft constraint only binds when unswitch is present. *)
        let p, prof = Lazy.force prepared in
        let passes = Pipeline.skip [ "unswitch" ] Pipeline.standard in
        let sq, _ = manual_squash ~passes:(Some passes) Squash.default_options p prof in
        Alcotest.(check bool) "produced an image" true
          (Rewrite.total_words sq > 0));
  ]

let skipping_tests =
  [
    Alcotest.test_case "skipping unswitch == options.unswitch = false" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        let opts = { Squash.default_options with Squash.unswitch = false } in
        let via_options = Squash.run ~options:opts p prof in
        let via_skip, _ =
          manual_squash
            ~passes:(Some (Pipeline.skip [ "unswitch" ] Pipeline.standard))
            (* Keep the options identical so the image is byte-identical. *)
            opts p prof
        in
        check_identical "skip-vs-option" via_options.Squash.squashed via_skip);
    Alcotest.test_case "of_options drops unswitch exactly when disabled" `Quick
      (fun () ->
        let names o = Pipeline.names (Pipeline.of_options o) in
        Alcotest.(check bool) "on" true
          (List.mem "unswitch" (names Squash.default_options));
        Alcotest.(check bool) "off" false
          (List.mem "unswitch"
             (names { Squash.default_options with Squash.unswitch = false })));
    Alcotest.test_case "by_name finds every standard pass" `Quick (fun () ->
        List.iter
          (fun n ->
            match Pipeline.by_name n with
            | Some p -> Alcotest.(check string) "name" n p.Pass.name
            | None -> Alcotest.failf "pass %s not found" n)
          (Pipeline.names Pipeline.standard));
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
          [ Pipeline.cold_pass; corrupting_pass; Pipeline.unswitch_pass;
            Pipeline.exclude_pass; Pipeline.regions_pass;
            Pipeline.buffer_safe_pass; Pipeline.rewrite_pass ]
        in
        (match
           Pipeline.execute ~check_each:true ~passes (Pass.init p prof)
         with
        | _ -> Alcotest.fail "corruption not detected"
        | exception Pipeline.Check_failed { pass; errors } ->
          Alcotest.(check string) "blamed pass" "corrupt" pass;
          Alcotest.(check bool) "mentions the sentinel" true
            (List.exists (fun e -> contains e "sentinel") errors));
        (* Without check_each the same list runs to completion — the
           corruption is only caught later, at the final image check. *)
        let st, _ = Pipeline.execute ~passes (Pass.init p prof) in
        Alcotest.(check bool) "image still built" true (st.Pass.squashed <> None));
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
                 true (s.Pass.elapsed_s >= 0.0);
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
          List.fold_left (fun acc (s : Pass.stats) -> acc +. s.Pass.elapsed_s)
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
    Alcotest.test_case "trace emits one line per pass" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let lines = ref [] in
        let _ = Squash.run ~trace:(fun l -> lines := l :: !lines) p prof in
        Alcotest.(check int) "line count"
          (List.length (Pipeline.of_options Squash.default_options))
          (List.length !lines));
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

let prog_check_tests =
  [
    Alcotest.test_case "a healthy program and profile check clean" `Quick
      (fun () ->
        let p, prof = Lazy.force prepared in
        match Prog_check.check ~profile:prof p with
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
        match Prog_check.check { p with Prog.funcs } with
        | Ok () -> Alcotest.fail "markers not detected"
        | Error es ->
          (* One error per marker: the validator collects everything. *)
          Alcotest.(check bool)
            (Printf.sprintf "3 errors (got %d: %s)" (List.length es)
               (String.concat "; " es))
            true
            (List.length es = 3));
    Alcotest.test_case "stale profile indices are reported" `Quick (fun () ->
        let p, prof = Lazy.force prepared in
        let other =
          squeeze (compile "int main() { putint(1); return 0; }")
        in
        ignore p;
        match Prog_check.check ~profile:prof other with
        | Ok () -> Alcotest.fail "stale profile not detected"
        | Error es ->
          Alcotest.(check bool) "mentions the profile" true
            (List.exists (fun e -> contains e "profile") es));
    Alcotest.test_case "check_exn raises on a bad program" `Quick (fun () ->
        let bad =
          { Prog.funcs = []; entry = "main"; data_words = 0; data_init = [] }
        in
        match Prog_check.check_exn bad with
        | () -> Alcotest.fail "empty program accepted"
        | exception Failure _ -> ());
  ]

let suite =
  [ ("pipeline",
     ordering_tests @ skipping_tests @ check_each_tests @ stats_tests
     @ identity_tests @ prog_check_tests) ]
