(* The symbolic equivalence prover: the Equiv evaluator's algebra, clean
   proofs of pristine images, and a seeded corruption corpus — mutated
   stream displacements, stub words and rebias offsets must each be
   caught (no false negatives), while pristine images prove clean at
   every slot count (no false positives). *)

let qcheck = QCheck_alcotest.to_alcotest

let parse src =
  match Asm.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

(* Same shape as the verifier fixture: helper is hot and buffer-safe,
   coldy and main's .3/.4 never execute, so at θ = 0 they compress.  The
   region ends up with an intra-region call (coldy), an unchanged
   external call (helper) and an external goto — one representative of
   each rebias class. *)
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
  call coldz
.5:
  goto .2
}
func helper {
.0:
  add t0, t1, a0
  ret
}
func coldz {
.0:
  if eq a0 goto .2 else .1
.1:
  add t0, t1, a0
  goto .3
.2:
  add t0, t1, t1
  goto .3
.3:
  add a0, t0, t1
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
  sq

let check_clean ?fault ~slots sq =
  let r = Prove.run ~slots ?fault sq in
  if r.Prove.failures <> [] then
    Alcotest.failf "pristine image did not prove:\n%s" (Prove.render r);
  r

(* --- the evaluator's algebra ----------------------------------------- *)

let no_oracle =
  { Equiv.func_addr = (fun _ -> None); table_addr = (fun _ -> None) }

let evaluator_tests =
  [
    Alcotest.test_case "straight-line execution is structural" `Quick (fun () ->
        let st = Equiv.init_state () in
        let step i =
          match Equiv.step st i with
          | Ok () -> ()
          | Error m -> Alcotest.fail m
        in
        step (Instr.Lda { ra = 1; rb = 2; disp = 8 });
        step (Instr.Opr { op = Instr.Add; ra = 1; rb = Instr.Reg 3; rc = 4 });
        step (Instr.Mem { op = Instr.Stw; ra = 4; rb = Reg.sp; disp = -4 });
        let expect_r4 =
          Equiv.Exp
            ( Instr.Add,
              Equiv.Exp (Instr.Add, Equiv.Init 2, Equiv.Num 8),
              Equiv.Init 3 )
        in
        if not (Equiv.equal_value no_oracle (Equiv.reg st 4) expect_r4) then
          Alcotest.failf "r4 = %s"
            (Format.asprintf "%a" Equiv.pp_value (Equiv.reg st 4));
        match Equiv.effects st with
        | [ Equiv.Store (Instr.Stw, _, v) ] ->
          if not (Equiv.equal_value no_oracle v expect_r4) then
            Alcotest.fail "stored value does not match r4"
        | effs -> Alcotest.failf "expected 1 store, got %d" (List.length effs));
    Alcotest.test_case "control transfers are rejected mid-block" `Quick
      (fun () ->
        let st = Equiv.init_state () in
        match Equiv.step st (Instr.Br { ra = Reg.zero; disp = 3 }) with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "a br stepped as straight-line code");
    Alcotest.test_case "the oracle bridges materialised code addresses" `Quick
      (fun () ->
        (* Original side: an abstract &f plus arithmetic; rewritten side:
           the same computation over the materialised ldah/lda pair. *)
        let addr = 0x1_0040 in
        let oracle =
          {
            Equiv.func_addr = (fun g -> if g = "f" then Some addr else None);
            table_addr = (fun _ -> None);
          }
        in
        let b =
          {
            Prog.Block.items =
              [
                Prog.Load_addr (5, Prog.Func_addr "f");
                Prog.Instr (Instr.Lda { ra = 5; rb = 5; disp = 12 });
              ];
            term = Prog.Return { rb = 26 };
          }
        in
        let orig, _ =
          match Equiv.run_block ~fname:"g" b with
          | Ok r -> r
          | Error m -> Alcotest.fail m
        in
        let rew = Equiv.init_state () in
        let hi, lo = Easm.split_addr addr in
        List.iter
          (fun i ->
            match Equiv.step rew i with
            | Ok () -> ()
            | Error m -> Alcotest.fail m)
          [
            Instr.Ldah { ra = 5; rb = Reg.zero; disp = hi };
            Instr.Lda { ra = 5; rb = 5; disp = lo };
            Instr.Lda { ra = 5; rb = 5; disp = 12 };
          ];
        (match Equiv.compare_states oracle ~orig ~rew with
        | Ok () -> ()
        | Error m -> Alcotest.failf "states diverge: %s" m);
        (* Without the oracle the sides must NOT unify. *)
        match Equiv.compare_states no_oracle ~orig ~rew with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "abstract &f unified with a bare number");
    Alcotest.test_case "diverging stores are caught" `Quick (fun () ->
        let a = Equiv.init_state () and b = Equiv.init_state () in
        let store st v =
          match
            Equiv.step st (Instr.Lda { ra = 1; rb = Reg.zero; disp = v })
          with
          | Ok () -> (
            match
              Equiv.step st
                (Instr.Mem { op = Instr.Stw; ra = 1; rb = Reg.sp; disp = 0 })
            with
            | Ok () -> ()
            | Error m -> Alcotest.fail m)
          | Error m -> Alcotest.fail m
        in
        store a 1;
        store b 2;
        match Equiv.compare_states no_oracle ~orig:a ~rew:b with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "different store values compared equal");
  ]

(* --- pristine proofs -------------------------------------------------- *)

(* coldw.b2 only jumps to .3, which is laid out right after it, so it
   emits no words and shares its buffer offset with .3; .0's taken edge
   lands on that shared offset. *)
let zero_word_src =
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
  call coldw
.4:
  goto .2
}
func helper {
.0:
  add t0, t1, a0
  ret
}
func coldw {
.0:
  if eq a0 goto .2 else .1
.1:
  add t0, t1, t1
  goto .3
.2:
  goto .3
.3:
  add a0, t0, t1
  ret
}
|}

let pristine_tests =
  [
    Alcotest.test_case "the fixture proves clean at slots 1 and 4" `Quick
      (fun () ->
        let sq = make () in
        let r1 = check_clean ~slots:1 sq in
        let r4 = check_clean ~slots:4 sq in
        Alcotest.(check int) "every block proved" r1.Prove.blocks r1.Prove.proved;
        Alcotest.(check int)
          "4 slots prove 4x the blocks" (4 * r1.Prove.blocks) r4.Prove.blocks;
        Alcotest.(check int)
          "every entry stub discharged"
          (List.length sq.Rewrite.stub_addrs)
          r1.Prove.stubs);
    Alcotest.test_case "the prove pass accepts a clean pipeline run" `Quick
      (fun () ->
        let p = parse src in
        let prof, _ = Profile.collect p ~input:"" in
        let r = Squash.run ~lint:true ~prove:true p prof in
        Alcotest.(check bool)
          "image built" true
          (Array.length r.Squash.squashed.Rewrite.images > 0));
    Alcotest.test_case "a branch to a block that emits no words proves" `Quick
      (fun () ->
        let p = parse zero_word_src in
        let prof, _ = Profile.collect p ~input:"" in
        let sq = (Squash.run p prof).Squash.squashed in
        let offset key =
          Array.find_map
            (fun (img : Rewrite.region_image) ->
              Hashtbl.find_opt img.Rewrite.block_offset key)
            sq.Rewrite.images
        in
        (match (offset ("coldw", 2), offset ("coldw", 3)) with
        | Some a, Some b when a = b -> ()
        | _ -> Alcotest.fail "coldw.b2 does not share its offset with coldw.b3");
        ignore (check_clean ~slots:2 sq));
  ]

(* --- corruption corpus ------------------------------------------------ *)

(* Every stream position carrying a pc-relative displacement, with the
   displacement values legal for its opcode (values already coded
   somewhere keep the mutant encodable by the image's own model). *)
let branch_sites sq =
  let sites = ref [] in
  Array.iter
    (fun (img : Rewrite.region_image) ->
      List.iteri
        (fun i ins ->
          match Instr.branch_displacement ins with
          | Some d -> sites := (img.Rewrite.rid, i, ins, d) :: !sites
          | None -> ())
        img.Rewrite.stream)
    sq.Rewrite.images;
  List.rev !sites

let reencode sq streams =
  let blob, blob_offsets = Compress.encode_regions sq.Rewrite.codes streams in
  { sq with Rewrite.blob; blob_offsets }

let displacement_mutants =
  let sq = make () in
  let sites = branch_sites sq in
  let disps =
    List.sort_uniq compare (List.map (fun (_, _, _, d) -> d) sites)
  in
  if List.length sites < 2 || List.length disps < 2 then
    Alcotest.fail "fixture has too few branch sites to mutate";
  QCheck.Test.make ~count:40
    ~name:"a mutated stream displacement is always caught"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rid, i, ins, d = List.nth sites (a mod List.length sites) in
      let nd = List.nth disps (b mod List.length disps) in
      QCheck.assume (nd <> d);
      let streams =
        Array.map
          (fun (img : Rewrite.region_image) -> Array.of_list img.Rewrite.stream)
          sq.Rewrite.images
      in
      streams.(rid).(i) <- Instr.with_branch_displacement ins nd;
      let sq' = reencode sq (Array.map Array.to_list streams) in
      let r = Prove.run ~slots:4 sq' in
      r.Prove.failures <> [])

(* Entry stubs in the 2-word form, for in-place text patching. *)
let two_word_stubs sq =
  let word_at addr =
    sq.Rewrite.image.Layout.text.((addr - sq.Rewrite.image.Layout.text_base) / 4)
  in
  List.filter
    (fun (_, addr) ->
      match Instr.decode (word_at addr) with
      | Ok (Instr.Bsr _) -> true
      | Ok _ | Error _ -> false)
    sq.Rewrite.stub_addrs

let patched sq addr w k =
  let idx = (addr - sq.Rewrite.image.Layout.text_base) / 4 in
  let words = sq.Rewrite.image.Layout.text in
  let saved = words.(idx) in
  words.(idx) <- w;
  let r = k () in
  words.(idx) <- saved;
  r

let stub_tag_mutants =
  let sq = make () in
  let stubs = two_word_stubs sq in
  if stubs = [] then Alcotest.fail "fixture has no 2-word entry stub";
  QCheck.Test.make ~count:40 ~name:"a skewed stub tag is always caught"
    QCheck.(pair small_nat (int_range (-8) 8))
    (fun (a, delta) ->
      QCheck.assume (delta <> 0);
      let _, addr = List.nth stubs (a mod List.length stubs) in
      let tag_addr = addr + 4 in
      let idx = (tag_addr - sq.Rewrite.image.Layout.text_base) / 4 in
      let tag = sq.Rewrite.image.Layout.text.(idx) in
      patched sq tag_addr (tag + delta) (fun () ->
          let r = Prove.run ~slots:1 sq in
          r.Prove.failures <> []))

let stub_target_mutants =
  let sq = make () in
  let stubs = two_word_stubs sq in
  if stubs = [] then Alcotest.fail "fixture has no 2-word entry stub";
  QCheck.Test.make ~count:40 ~name:"a retargeted stub bsr is always caught"
    QCheck.(pair small_nat (int_range (-4) 4))
    (fun (a, delta) ->
      QCheck.assume (delta <> 0);
      let _, addr = List.nth stubs (a mod List.length stubs) in
      let idx = (addr - sq.Rewrite.image.Layout.text_base) / 4 in
      let w =
        match Instr.decode sq.Rewrite.image.Layout.text.(idx) with
        | Ok (Instr.Bsr { ra; disp }) ->
          Instr.encode (Instr.Bsr { ra; disp = disp + delta })
        | Ok _ | Error _ -> Alcotest.fail "stub lost its bsr"
      in
      patched sq addr w (fun () ->
          let r = Prove.run ~slots:1 sq in
          r.Prove.failures <> []))

let rebias_fault_mutants =
  let sq = make () in
  QCheck.Test.make ~count:20
    ~name:"a skewed slot-rebias delta is always caught above slot 0"
    QCheck.(int_range (-16) 16)
    (fun k ->
      QCheck.assume (k <> 0);
      (* Slot 0 is unaffected by the fault, so alone it must still prove;
         any higher slot re-aims every external transfer wrongly. *)
      let fault = Prove.Rebias_delta k in
      (Prove.run ~slots:4 ~fault sq).Prove.failures <> []
      && (Prove.run ~slots:1 ~fault sq).Prove.failures = [])

let corruption_tests =
  [
    qcheck displacement_mutants;
    qcheck stub_tag_mutants;
    qcheck stub_target_mutants;
    qcheck rebias_fault_mutants;
  ]

(* --- real images prove clean ------------------------------------------ *)

let prove_clean name theta ~coder ~slots =
  match Workloads.find name with
  | None -> Alcotest.failf "no workload %s" name
  | Some w ->
    let p = fst (Squeeze.run (Workload.compile w)) in
    let prof, _ = Profile.collect p ~input:(Workload.profiling_input w) in
    let options = { Squash.default_options with theta; coder } in
    let r = Squash.run ~options p prof in
    let pr = Prove.run ~slots r.Squash.squashed in
    if pr.Prove.failures <> [] then
      Alcotest.failf "%s θ=%g (%s):\n%s" name theta
        (Compress.coder_name r.Squash.squashed.Rewrite.codes)
        (Prove.render pr)

let workload_tests =
  [
    Alcotest.test_case "gsm proves clean at θ=0 and θ=0.01 (huffman)" `Slow
      (fun () ->
        prove_clean "gsm" 0.0 ~coder:`Split_stream ~slots:4;
        prove_clean "gsm" 0.01 ~coder:`Split_stream ~slots:4);
    Alcotest.test_case "adpcm proves clean under the context coder" `Slow
      (fun () -> prove_clean "adpcm" 0.01 ~coder:`Context ~slots:4);
  ]

let suite =
  [
    ("equiv: evaluator", evaluator_tests);
    ("equiv: pristine proofs", pristine_tests);
    ("equiv: corruption corpus", corruption_tests);
    ("equiv: workload proofs", workload_tests);
  ]
