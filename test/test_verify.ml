(* The whole-image static verifier: a pristine image lints clean, and each
   seeded corruption trips exactly its diagnostic class. *)

let parse src =
  match Asm.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

(* helper is hot and buffer-safe; coldy and main's .3/.4 never execute
   (the branch tests a0 = 12), so at θ = 0 they form the compressed
   region.  coldy's call to helper is the §6.1 unchanged call the
   verifier must prove safe. *)
let src =
  {|
.entry main
func main {
.0:
  li t0, 5
  li t1, 7
  call helper
.1:
  if eq a0 goto .3 else .2
.2:
  sys exit
  halt
.3:
  call coldy
.4:
  goto .2
}
func helper {
.0:
  add t0, t1, a0
  ret
}
func coldy {
.0:
  li t0, 9
  li t1, 4
  call helper
.1:
  add a0, t0, t0
  add t0, t1, t1
  add t0, t1, t1
  add t0, t1, t1
  add t0, t1, t1
  add t0, t1, t1
  goto .2
.2:
  add t0, t1, a0
  ret
}
|}

let make () =
  let p = parse src in
  let prof, _ = Profile.collect p ~input:"" in
  let r = Squash.run p prof in
  let sq = r.Squash.squashed in
  if Array.length sq.Rewrite.images = 0 then
    Alcotest.fail "fixture produced no compressed region";
  if sq.Rewrite.stub_addrs = [] then
    Alcotest.fail "fixture produced no entry stub";
  sq

let kinds diags =
  List.sort_uniq compare (List.map (fun d -> d.Verify.kind) diags)

let check_only sq kind =
  let diags = Verify.run sq in
  if diags = [] then
    Alcotest.failf "corruption went undetected (wanted %s)"
      (Verify.kind_name kind);
  match kinds diags with
  | [ k ] when k = kind -> ()
  | ks ->
    Alcotest.failf "wanted only %s, got [%s]:\n%s" (Verify.kind_name kind)
      (String.concat "; " (List.map Verify.kind_name ks))
      (Verify.render diags)

(* The text image is a plain word array: corruptions patch it the way a
   linker bug or a bit flip would. *)
let word_at sq addr =
  sq.Rewrite.image.Layout.text.((addr - sq.Rewrite.image.Layout.text_base) / 4)

let patch_word sq addr w =
  sq.Rewrite.image.Layout.text.((addr - sq.Rewrite.image.Layout.text_base) / 4) <- w

(* A stub in the 2-word form: [bsr rf, decomp.rf ; tag].  The fixture is
   small enough that every block has a dead register, but don't rely on
   the list order. *)
let two_word_stub sq =
  let is_bsr (_, addr) =
    match Instr.decode (word_at sq addr) with
    | Ok (Instr.Bsr _) -> true
    | Ok _ | Error _ -> false
  in
  match List.find_opt is_bsr sq.Rewrite.stub_addrs with
  | Some s -> s
  | None -> Alcotest.fail "fixture has no 2-word entry stub"

let unit_tests =
  [
    Alcotest.test_case "the pristine image lints clean" `Quick (fun () ->
        let sq = make () in
        let diags = Verify.run sq in
        if diags <> [] then
          Alcotest.failf "unexpected diagnostics:\n%s" (Verify.render diags));
    Alcotest.test_case "a tag naming a bogus region trips bad-stub" `Quick
      (fun () ->
        let sq = make () in
        let _, addr = two_word_stub sq in
        patch_word sq (addr + 4) (Array.length sq.Rewrite.images lsl 16);
        check_only sq Verify.Bad_stub);
    Alcotest.test_case "a wrong tag offset trips bad-stub" `Quick (fun () ->
        let sq = make () in
        let _, addr = two_word_stub sq in
        patch_word sq (addr + 4) (word_at sq (addr + 4) + 1);
        check_only sq Verify.Bad_stub);
    Alcotest.test_case
      "a transfer into a de-registered entry trips dangling-transfer" `Quick
      (fun () ->
        let sq = make () in
        (* Forget every entry point: the region's interior swallows its
           entries and each surviving transfer into it turns dangling. *)
        let entries = sq.Rewrite.regions.Regions.entries in
        let keys = Hashtbl.fold (fun k () acc -> k :: acc) entries [] in
        List.iter (Hashtbl.remove entries) keys;
        check_only sq Verify.Dangling_transfer);
    Alcotest.test_case "a stub through a reserved register trips live-stub-reg"
      `Quick (fun () ->
        let sq = make () in
        let _, addr = two_word_stub sq in
        (* Re-link the stub through sp: the decompressor target still
           matches, but sp is never an acceptable return-address
           register. *)
        let disp = (Rewrite.decomp_entry sq Reg.sp - (addr + 4)) / 4 in
        patch_word sq addr (Instr.encode (Instr.Bsr { ra = Reg.sp; disp }));
        check_only sq Verify.Live_stub_reg);
    Alcotest.test_case
      "an unchanged call to a no-longer-safe callee trips unsafe-call" `Quick
      (fun () ->
        let sq = make () in
        (* Pretend helper's body was compressed after the fact: the plain
           bsr the rewrite left behind is now a §6.1 violation. *)
        let rid = sq.Rewrite.images.(0).Rewrite.rid in
        Hashtbl.replace sq.Rewrite.regions.Regions.region_of ("helper", 0) rid;
        Hashtbl.replace sq.Rewrite.regions.Regions.entries ("helper", 0) ();
        check_only sq Verify.Unsafe_call);
    Alcotest.test_case "a buffer too small for a region trips bad-layout" `Quick
      (fun () ->
        let sq = make () in
        check_only
          { sq with Rewrite.buffer_words = sq.Rewrite.buffer_words - 1 }
          Verify.Bad_layout);
  ]

(* --- real images stay clean ----------------------------------------- *)

let lint_clean name theta =
  match Workloads.find name with
  | None -> Alcotest.failf "no workload %s" name
  | Some w ->
    let p = fst (Squeeze.run (Workload.compile w)) in
    let prof, _ = Profile.collect p ~input:(Workload.profiling_input w) in
    let options = { Squash.default_options with theta } in
    let r = Squash.run ~options p prof in
    let diags = Verify.run r.Squash.squashed in
    if diags <> [] then
      Alcotest.failf "%s θ=%g:\n%s" name theta (Verify.render diags)

let workload_tests =
  [
    Alcotest.test_case "rasta lints clean at θ=0 and θ=0.01" `Slow (fun () ->
        lint_clean "rasta" 0.0;
        lint_clean "rasta" 0.01);
    Alcotest.test_case "gsm lints clean at θ=0 and θ=0.01" `Slow (fun () ->
        lint_clean "gsm" 0.0;
        lint_clean "gsm" 0.01);
    Alcotest.test_case "the lint pass accepts a clean pipeline run" `Quick
      (fun () ->
        let p = parse src in
        let prof, _ = Profile.collect p ~input:"" in
        let r = Squash.run ~lint:true p prof in
        Alcotest.(check bool)
          "image built" true
          (Array.length r.Squash.squashed.Rewrite.images > 0));
  ]

(* --- generated programs pass every level of the gate --------------- *)

let generated_tests =
  [
    Alcotest.test_case "generated programs pass the gate and match the interpreter"
      `Slow (fun () ->
        for seed = 1 to 16 do
          let src = Gen_minic.random_program ~seed in
          let expected = Mc_interp.run_source src ~input:"" in
          let p = fst (Squeeze.run (Minic.compile_exn src)) in
          let prof, _ = Profile.collect p ~input:"" in
          List.iter
            (fun (theta, coder) ->
              let options = { Squash.default_options with theta; coder } in
              let sq = (Squash.run ~options p prof).Squash.squashed in
              let where =
                Printf.sprintf "seed %d θ=%g (%s)" seed theta
                  (Compress.coder_name sq.Rewrite.codes)
              in
              (match Verify.errors (Verify.run sq) with
              | [] -> ()
              | errs -> Alcotest.failf "%s:\n%s" where (Verify.render errs));
              let r = Prove.run ~slots:2 sq in
              if r.Prove.failures <> [] then
                Alcotest.failf "%s:\n%s" where (Prove.render r);
              let o, _ = Runtime.run ~fuel:100_000_000 sq ~input:"" in
              if
                o.Vm.output <> expected.Mc_interp.output
                || o.Vm.exit_code <> expected.Mc_interp.exit_code
              then Alcotest.failf "%s: behaviour differs from the interpreter" where)
            [ (0.01, `Split_stream); (0.01, `Context); (1.0, `Split_stream);
              (1.0, `Context) ]
        done);
  ]

let suite =
  [
    ("verify: seeded corruption", unit_tests);
    ("verify: workload images", workload_tests);
    ("verify: generated programs", generated_tests);
  ]
