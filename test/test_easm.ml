(* The two-pass emission assembler: label fixups, displacement resolution,
   error handling, and the constant splitter. *)

let qcheck = QCheck_alcotest.to_alcotest

let unit_tests =
  [
    Alcotest.test_case "forward branch displacement" `Quick (fun () ->
        let asm = Easm.create ~base:0x1000 in
        let l = Easm.fresh_label "target" in
        Easm.branch asm `Br Reg.zero l;
        Easm.instr asm Instr.Nop;
        Easm.bind asm l;
        Easm.instr asm Instr.Nop;
        let img = Easm.finish asm in
        (* br at 0x1000, target 0x1008: disp = (0x1008 - 0x1004)/4 = 1. *)
        match Instr.decode img.Easm.words.(0) with
        | Ok (Instr.Br { disp; _ }) -> Alcotest.(check int) "disp" 1 disp
        | _ -> Alcotest.fail "expected br");
    Alcotest.test_case "backward branch displacement" `Quick (fun () ->
        let asm = Easm.create ~base:0x1000 in
        let l = Easm.fresh_label "loop" in
        Easm.bind asm l;
        Easm.instr asm Instr.Nop;
        Easm.branch asm `Br Reg.zero l;
        let img = Easm.finish asm in
        match Instr.decode img.Easm.words.(1) with
        | Ok (Instr.Br { disp; _ }) -> Alcotest.(check int) "disp" (-2) disp
        | _ -> Alcotest.fail "expected br");
    Alcotest.test_case "load_addr materialises the label address" `Quick (fun () ->
        let asm = Easm.create ~base:0x1000 in
        let l = Easm.fresh_label "x" in
        Easm.load_addr asm 3 l;
        Easm.bind asm l;
        Easm.word asm 0xDEAD;
        let img = Easm.finish asm in
        (* Simulate the pair: ldah r3, hi(zero); lda r3, lo(r3). *)
        let value =
          match
            (Instr.decode img.Easm.words.(0), Instr.decode img.Easm.words.(1))
          with
          | Ok (Instr.Ldah { disp = hi; _ }), Ok (Instr.Lda { disp = lo; _ }) ->
            (hi lsl 16) + lo
          | _ -> Alcotest.fail "expected ldah/lda pair"
        in
        Alcotest.(check int) "address" 0x1008 value);
    Alcotest.test_case "addr_word stores the absolute address" `Quick (fun () ->
        let asm = Easm.create ~base:0x2000 in
        let l = Easm.fresh_label "t" in
        Easm.addr_word asm l;
        Easm.bind asm l;
        Easm.instr asm Instr.Nop;
        let img = Easm.finish asm in
        Alcotest.(check int) "word" 0x2004 img.Easm.words.(0));
    Alcotest.test_case "label_at binds outside the stream" `Quick (fun () ->
        let asm = Easm.create ~base:0x1000 in
        let ext = Easm.label_at "external" 0x8000 in
        Easm.branch asm `Bsr 26 ext;
        let img = Easm.finish asm in
        match Instr.decode img.Easm.words.(0) with
        | Ok (Instr.Bsr { disp; _ }) ->
          Alcotest.(check int) "disp" ((0x8000 - 0x1004) / 4) disp
        | _ -> Alcotest.fail "expected bsr");
    Alcotest.test_case "unbound label fails at finish" `Quick (fun () ->
        let asm = Easm.create ~base:0x1000 in
        let l = Easm.fresh_label "never" in
        Easm.branch asm `Br Reg.zero l;
        match Easm.finish asm with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "double bind is rejected" `Quick (fun () ->
        let asm = Easm.create ~base:0x1000 in
        let l = Easm.fresh_label "l" in
        Easm.bind asm l;
        match Easm.bind asm l with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "unaligned base is rejected" `Quick (fun () ->
        match Easm.create ~base:0x1002 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "owners follow set_owner" `Quick (fun () ->
        let asm = Easm.create ~base:0 in
        Easm.set_owner asm (Some ("f", 0));
        Easm.instr asm Instr.Nop;
        Easm.set_owner asm None;
        Easm.word asm 42;
        let img = Easm.finish asm in
        Alcotest.(check bool) "first owned" true (img.Easm.owners.(0) = Some ("f", 0));
        Alcotest.(check bool) "second unowned" true (img.Easm.owners.(1) = None));
  ]

let arb_value =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(map (fun v -> v land Word.mask) (int_bound max_int))

let prop_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"split_const reassembles modulo 2^32" ~count:1000
         arb_value (fun v ->
           let hi, lo = Easm.split_const v in
           Word.fits_signed ~width:16 hi
           && Word.fits_signed ~width:16 lo
           && Word.add (Word.of_int (hi lsl 16)) (Word.of_int lo) = v));
    qcheck
      (QCheck.Test.make ~name:"split_addr is exact below 2GB" ~count:1000
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 0x7FFF_7FFF))
         (fun a ->
           let hi, lo = Easm.split_addr a in
           (hi lsl 16) + lo = a));
  ]

let suite = [ ("easm", unit_tests @ prop_tests) ]
