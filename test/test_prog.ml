(* Program IR invariants and the canonical layout/emitter. *)

let parse src =
  match Asm.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

let branchy =
  {|
.entry main
func main {
  .0:
    lda t0, 3(zero)
    if eq t0 goto .2 else .1
  .1:
    sub t0, #1, t0
    goto .0
  .2:
    sys exit
    halt
}
|}

let unit_tests =
  [
    Alcotest.test_case "validate accepts a good program" `Quick (fun () ->
        match Prog.validate (parse branchy) with
        | Ok () -> ()
        | Error es -> Alcotest.fail (String.concat "; " es));
    Alcotest.test_case "validate rejects bad destinations" `Quick (fun () ->
        let p = parse branchy in
        let f = List.hd p.Prog.funcs in
        let bad_blocks = Array.copy f.Prog.Func.blocks in
        bad_blocks.(0) <-
          { (bad_blocks.(0)) with Prog.Block.term = Prog.Jump 99 };
        let bad = { p with Prog.funcs = [ { f with Prog.Func.blocks = bad_blocks } ] } in
        match Prog.validate bad with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected error");
    Alcotest.test_case "validate rejects call not returning to next block" `Quick
      (fun () ->
        let src =
          "func main {\n .0:\n nop\n .1:\n sys exit\n halt\n}\nfunc g {\n .0:\n ret\n}"
        in
        let p = parse src in
        let f = List.hd p.Prog.funcs in
        let blocks = Array.copy f.Prog.Func.blocks in
        blocks.(0) <-
          {
            (blocks.(0)) with
            Prog.Block.term = Prog.Call { ra = Reg.ra; callee = "g"; return_to = 0 };
          };
        let bad =
          { p with Prog.funcs = [ { f with Prog.Func.blocks = blocks }; List.nth p.Prog.funcs 1 ] }
        in
        match Prog.validate bad with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected error");
    Alcotest.test_case "block sizes account for fallthrough jumps" `Quick (fun () ->
        let b =
          { Prog.Block.items = [ Prog.Instr Instr.Nop ]; term = Prog.Fallthrough 5 }
        in
        Alcotest.(check int) "adjacent" 1 (Prog.Block.size ~next:(Some 5) b);
        Alcotest.(check int) "non-adjacent" 2 (Prog.Block.size ~next:(Some 1) b);
        let br =
          {
            Prog.Block.items = [];
            term = Prog.Branch (Instr.Eq, 1, 3, 4);
          }
        in
        Alcotest.(check int) "branch adjacent" 1 (Prog.Block.size ~next:(Some 4) br);
        Alcotest.(check int) "branch non-adjacent" 2 (Prog.Block.size ~next:(Some 9) br));
    Alcotest.test_case "load_addr counts as two instructions" `Quick (fun () ->
        let b =
          {
            Prog.Block.items = [ Prog.Load_addr (1, Prog.Func_addr "f") ];
            term = Prog.Return { rb = Reg.ra };
          }
        in
        Alcotest.(check int) "size" 3 (Prog.Block.size ~next:None b));
    Alcotest.test_case "layout binds every block to an address" `Quick (fun () ->
        let p = parse branchy in
        let img = Layout.emit p in
        Alcotest.(check int) "text base" Layout.text_base img.Layout.text_base;
        Alcotest.(check bool) "entry at main" true
          (img.Layout.entry_addr = Hashtbl.find img.Layout.block_addr ("main", 0));
        for i = 0 to 2 do
          if not (Hashtbl.mem img.Layout.block_addr ("main", i)) then
            Alcotest.failf "block %d missing" i
        done);
    Alcotest.test_case "owners attribute words to blocks" `Quick (fun () ->
        let p = parse branchy in
        let img = Layout.emit p in
        Array.iteri
          (fun i owner ->
            match owner with
            | Some ("main", b) when b >= 0 && b <= 2 -> ()
            | Some (f, b) -> Alcotest.failf "word %d owned by %s.%d" i f b
            | None -> Alcotest.failf "word %d unowned" i)
          img.Layout.owners);
    Alcotest.test_case "instr_count matches emitted text for straight-line code"
      `Quick (fun () ->
        let p = parse branchy in
        let img = Layout.emit p in
        Alcotest.(check int) "words" (Prog.text_words p) (Layout.text_words img));
    Alcotest.test_case "jump tables are emitted after the function" `Quick (fun () ->
        let src =
          {|
func main {
  .0:
    la t0, &table0
    ijump (t0) table 0
  .1:
    sys exit
    halt
  table 0: .1 .1
}
|}
        in
        let p = parse src in
        let img = Layout.emit p in
        let taddr = Hashtbl.find img.Layout.table_addr ("main", 0) in
        let b1 = Hashtbl.find img.Layout.block_addr ("main", 1) in
        (* Both table entries point at block 1. *)
        let idx = (taddr - img.Layout.text_base) / 4 in
        Alcotest.(check int) "entry 0" b1 img.Layout.text.(idx);
        Alcotest.(check int) "entry 1" b1 img.Layout.text.(idx + 1);
        Alcotest.(check int) "table words" (Prog.text_words p) (Layout.text_words img));
  ]

let suite = [ ("prog", unit_tests) ]
