(* The squeeze compactor: semantics preservation and effectiveness. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let run_prog ?(input = "") ?(fuel = 20_000_000) p =
  Vm.run (Vm.of_image ~fuel (Layout.emit p) ~input)

let outcome_triple (o : Vm.outcome) = (o.Vm.exit_code, o.Vm.output, ())

let assert_same_behaviour ?input src =
  let p = compile src in
  let q, _ = Squeeze.run p in
  (match Prog.validate q with
  | Ok () -> ()
  | Error es -> Alcotest.failf "squeezed program invalid: %s" (String.concat "; " es));
  let o1 = run_prog ?input p in
  let o2 = run_prog ?input q in
  Alcotest.(check (triple int string unit))
    "same behaviour" (outcome_triple o1) (outcome_triple o2);
  (p, q, o1, o2)

let unit_tests =
  [
    Alcotest.test_case "removes unreachable functions" `Quick (fun () ->
        let src =
          {|
int dead_helper(int x) { return x * 3; }
int live(int x) { return x + 1; }
int main() { return live(4); }
|}
        in
        let p, q, _, _ = assert_same_behaviour src in
        Alcotest.(check bool) "before" true (Prog.find_func p "dead_helper" <> None);
        Alcotest.(check bool) "after" false (Prog.find_func q "dead_helper" <> None));
    Alcotest.test_case "keeps address-taken functions" `Quick (fun () ->
        let src =
          {|
int cb(int x) { return x + 7; }
int main() { int f; f = &cb; return f(1); }
|}
        in
        let _, q, _, o = assert_same_behaviour src in
        Alcotest.(check bool) "kept" true (Prog.find_func q "cb" <> None);
        Alcotest.(check int) "result" 8 o.Vm.exit_code);
    Alcotest.test_case "removes unreachable blocks" `Quick (fun () ->
        let src =
          {|
int f(int x) {
  if (1 == 1) return x;
  return x * 100;
}
int main() { return f(9); }
|}
        in
        (* The constant condition is not folded (we do not do constant
           propagation), but dead code behind an early return goes away. *)
        let src2 = "int main() { return 5; putint(1); putint(2); return 6; }" in
        let p, q, _, _ = assert_same_behaviour src2 in
        ignore src;
        Alcotest.(check bool) "shrank" true (Prog.instr_count q < Prog.instr_count p));
    Alcotest.test_case "eliminates dead stores to registers" `Quick (fun () ->
        let src =
          "int main() { int a; int b; a = 1; b = 2; a = 3; b = 4; return a + b; }"
        in
        let p, q, _, o = assert_same_behaviour src in
        Alcotest.(check int) "result" 7 o.Vm.exit_code;
        Alcotest.(check bool) "shrank" true (Prog.instr_count q < Prog.instr_count p));
    Alcotest.test_case "forwards stack slots within a block" `Quick (fun () ->
        (* x stored then immediately reloaded: forwarding plus DCE must
           shrink the code. *)
        let src = "int main() { int x; x = 11; return x + x; }" in
        let p, q, _, o = assert_same_behaviour src in
        Alcotest.(check int) "result" 22 o.Vm.exit_code;
        Alcotest.(check bool) "shrank" true (Prog.instr_count q < Prog.instr_count p));
    Alcotest.test_case "respects aliasing through pointers" `Quick (fun () ->
        (* The callee writes through a pointer to main's frame; forwarding
           across the call would produce 1 instead of 2. *)
        let src =
          {|
int poke(int p) { p[0] = 2; return 0; }
int main() {
  int x;
  x = 1;
  poke(&x);
  return x;
}
|}
        in
        let _, _, _, o = assert_same_behaviour src in
        Alcotest.(check int) "result" 2 o.Vm.exit_code);
    Alcotest.test_case "keeps possibly-trapping division" `Quick (fun () ->
        let src = "int main() { int z; z = 0; int unused; unused = 5 / (1 + z); return 0; }" in
        let _ = assert_same_behaviour src in
        ());
    Alcotest.test_case "remove_unreachable alone keeps behaviour" `Quick (fun () ->
        let src = "int dead() { return 1; } int main() { putint(4); return 0; }" in
        let p = compile src in
        let q = Squeeze.remove_unreachable p in
        let o1 = run_prog p and o2 = run_prog q in
        Alcotest.(check string) "output" o1.Vm.output o2.Vm.output;
        Alcotest.(check bool) "dead gone" true (Prog.find_func q "dead" = None));
    Alcotest.test_case "preserves jump tables that are used" `Quick (fun () ->
        let src =
          {|
int f(int x) {
  switch (x) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 3;
    case 3: return 4;
    case 4: return 5;
  }
  return 0;
}
int main() { return f(2) * 10 + f(9); }
|}
        in
        let _, q, _, o = assert_same_behaviour src in
        Alcotest.(check int) "result" 30 o.Vm.exit_code;
        let f = Option.get (Prog.find_func q "f") in
        Alcotest.(check int) "table kept" 1 (Array.length f.Prog.Func.tables));
    Alcotest.test_case "reports meaningful stats" `Quick (fun () ->
        let src = "int d() { return 0; } int main() { int x; x = 1; return x; }" in
        let p = compile src in
        let _, stats = Squeeze.run p in
        Alcotest.(check bool) "funcs removed" true (stats.Squeeze.funcs_removed >= 1);
        Alcotest.(check bool) "counts consistent" true
          (stats.Squeeze.instrs_after <= stats.Squeeze.instrs_before));
    Alcotest.test_case "typical reduction on naive code is substantial" `Quick
      (fun () ->
        (* The paper's squeeze removes ~30% of cc -O1 code; our local passes
           should remove a significant share of the naive codegen output. *)
        let src =
          {|
int work(int a, int b) {
  int t0; int t1; int t2;
  t0 = a + b;
  t1 = t0 * 2;
  t2 = t1 - a;
  return t2 + t1 + t0;
}
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 10; i = i + 1) acc = acc + work(i, acc);
  return acc & 255;
}
|}
        in
        let p, q, _, _ = assert_same_behaviour src in
        let before = Prog.instr_count p and after = Prog.instr_count q in
        let reduction = float_of_int (before - after) /. float_of_int before in
        if reduction < 0.10 then
          Alcotest.failf "expected >=10%% reduction, got %.1f%% (%d -> %d)"
            (100. *. reduction) before after);
  ]

let differential_tests =
  [
    Alcotest.test_case "differential: 40 random programs" `Slow (fun () ->
        for seed = 1 to 40 do
          let src = Gen_minic.random_program ~seed in
          match Minic.compile src with
          | Error e ->
            Alcotest.failf "seed %d: generated program does not compile: %s" seed
              (Minic.error_to_string e)
          | Ok p ->
            let q, _ = Squeeze.run p in
            (match Prog.validate q with
            | Ok () -> ()
            | Error es ->
              Alcotest.failf "seed %d: squeezed invalid: %s" seed
                (String.concat "; " es));
            let o1 = run_prog p and o2 = run_prog q in
            if o1.Vm.exit_code <> o2.Vm.exit_code || o1.Vm.output <> o2.Vm.output then
              Alcotest.failf "seed %d: behaviour diverged (exit %d vs %d)" seed
                o1.Vm.exit_code o2.Vm.exit_code
        done);
  ]

let suite = [ ("squeeze", unit_tests @ differential_tests) ]
