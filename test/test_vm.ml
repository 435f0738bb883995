(* VM execution semantics, exercised through assembled programs. *)

let run ?(input = "") ?fuel src =
  match Asm.parse_program src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p ->
    let img = Layout.emit p in
    Vm.run (Vm.of_image ?fuel img ~input)

let check_exit name expected outcome =
  Alcotest.(check int) name expected outcome.Vm.exit_code

let unit_tests =
  [
    Alcotest.test_case "exit code is a0" `Quick (fun () ->
        let o = run "func main {\n .0:\n lda a0, 42(zero)\n sys exit\n halt\n}" in
        check_exit "exit" 42 o);
    Alcotest.test_case "arithmetic and immediates" `Quick (fun () ->
        let o =
          run
            {|
func main {
  .0:
    lda t0, 10(zero)
    mul t0, #7, t1      ; 70
    sub t1, #5, t1      ; 65
    div t1, #2, t1      ; 32
    rem t1, #5, t2      ; 2
    sll t1, #2, t1      ; 128
    add t1, t2, a0      ; 130
    sys exit
    halt
}
|}
        in
        check_exit "exit" 130 o);
    Alcotest.test_case "loop computes a sum" `Quick (fun () ->
        (* sum 1..10 = 55 *)
        let o =
          run
            {|
func main {
  .0:
    lda t0, 10(zero)
    lda t1, 0(zero)
  .1:
    add t1, t0, t1
    sub t0, #1, t0
    if gt t0 goto .1 else .2
  .2:
    mov t1, a0
    sys exit
    halt
}
|}
        in
        check_exit "exit" 55 o);
    Alcotest.test_case "recursive calls (fib 10 = 55)" `Quick (fun () ->
        let o =
          run
            {|
.entry main
func main {
  .0:
    lda a0, 10(zero)
    call fib
  .1:
    mov v0, a0
    sys exit
    halt
}
func fib {
  .0:
    sub sp, #16, sp
    stw ra, 0(sp)
    stw s0, 4(sp)
    stw s1, 8(sp)
    mov a0, s0
    cmplt a0, #2, t0
    if ne t0 goto .4 else .1
  .1:
    sub s0, #1, a0
    call fib
  .2:
    mov v0, s1
    sub s0, #2, a0
    call fib
  .3:
    add v0, s1, v0
    goto .5
  .4:
    mov s0, v0
  .5:
    ldw ra, 0(sp)
    ldw s0, 4(sp)
    ldw s1, 8(sp)
    add sp, #16, sp
    ret
}
|}
        in
        check_exit "fib" 55 o);
    Alcotest.test_case "memory: word and byte access" `Quick (fun () ->
        let o =
          run
            {|
.data 4
func main {
  .0:
    li t0, 4194304       ; data base
    li t1, 305419896     ; 0x12345678
    stw t1, 0(t0)
    ldb t2, 1(t0)        ; 0x56 little-endian
    ldw t3, 0(t0)
    xor t3, t1, t3       ; 0
    add t2, t3, a0
    sys exit
    halt
}
|}
        in
        check_exit "byte" 0x56 o);
    Alcotest.test_case "getc/putc echo input" `Quick (fun () ->
        let o =
          run ~input:"hi!"
            {|
func main {
  .0:
    sys getc
    mov v0, t0
    if lt t0 goto .2 else .1
  .1:
    mov t0, a0
    sys putc
    goto .0
  .2:
    lda a0, 0(zero)
    sys exit
    halt
}
|}
        in
        Alcotest.(check string) "output" "hi!" o.Vm.output;
        check_exit "exit" 0 o);
    Alcotest.test_case "getw/putw move words" `Quick (fun () ->
        let o =
          run ~input:"\x01\x02\x03\x04"
            {|
func main {
  .0:
    sys getw
    mov v0, a0
    sys putw
    lda a0, 0(zero)
    sys exit
    halt
}
|}
        in
        Alcotest.(check string) "output" "\x01\x02\x03\x04" o.Vm.output);
    Alcotest.test_case "putint prints decimals" `Quick (fun () ->
        let o =
          run
            "func main {\n\
            \ .0:\n\
            \ lda a0, -7(zero)\n\
            \ sys putint\n\
            \ lda a0, 0(zero)\n\
            \ sys exit\n\
            \ halt\n\
             }"
        in
        Alcotest.(check string) "output" "-7\n" o.Vm.output);
    Alcotest.test_case "jump through a table" `Quick (fun () ->
        let o =
          run
            {|
func main {
  .0:
    lda t0, 1(zero)      ; select case 1
    la t1, &table0
    sll t0, #2, t0
    add t1, t0, t1
    ldw t1, 0(t1)
    ijump (t1) table 0
  .1:
    lda a0, 11(zero)
    sys exit
    halt
  .2:
    lda a0, 22(zero)
    sys exit
    halt
  .3:
    lda a0, 33(zero)
    sys exit
    halt
  table 0: .1 .2 .3
}
|}
        in
        check_exit "case" 22 o);
    Alcotest.test_case "indirect call through a function pointer" `Quick (fun () ->
        let o =
          run
            {|
.entry main
func main {
  .0:
    la t0, &leaf
    lda a0, 20(zero)
    icall (t0)
  .1:
    mov v0, a0
    sys exit
    halt
}
func leaf {
  .0:
    add a0, #1, v0
    ret
}
|}
        in
        check_exit "icall" 21 o);
    Alcotest.test_case "setjmp/longjmp unwinds" `Quick (fun () ->
        let o =
          run
            {|
.entry main
.data 16
func main {
  .0:
    li a0, 4194304
    sys setjmp
    mov v0, t0
    if ne t0 goto .2 else .1
  .1:
    call thrower
  .2:
    mov t0, a0           ; longjmp value becomes the exit code
    sys exit
    halt
}
func thrower {
  .0:
    li a0, 4194304
    lda a1, 9(zero)
    sys longjmp
    halt
}
|}
        in
        check_exit "longjmp value" 9 o);
    Alcotest.test_case "division by zero traps" `Quick (fun () ->
        match
          run "func main {\n .0:\n lda t0, 1(zero)\n div t0, zero, t0\n sys exit\n halt\n}"
        with
        | exception Vm.Trap { reason; _ } ->
          Alcotest.(check string) "reason" "division by zero" reason
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "fuel exhaustion traps" `Quick (fun () ->
        match run ~fuel:100 "func main {\n .0:\n goto .0\n}" with
        | exception Vm.Trap { reason; _ } ->
          Alcotest.(check string) "reason" "out of fuel" reason
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "self-modifying text re-decodes" `Quick (fun () ->
        (* main stores an "lda a0, 77(zero)" over a placeholder nop in patchme,
           then calls it. *)
        let lda77 = Instr.encode (Instr.Lda { ra = 16; rb = Reg.zero; disp = 77 }) in
        let src =
          Printf.sprintf
            {|
.entry main
func main {
  .0:
    call probe
  .1:
    li t1, %d
    mov v0, t2
    stw t1, 0(t2)
    call patchme
  .2:
    mov v0, a0
    sys exit
    halt
}
func patchme {
  .0:
    nop
    mov a0, v0
    ret
}
func probe {
  .0:
    la v0, &patchme
    ret
}
|}
            lda77
        in
        let o = run src in
        check_exit "patched result" 77 o);
    Alcotest.test_case "profiling counts block executions" `Quick (fun () ->
        let src =
          {|
func main {
  .0:
    lda t0, 5(zero)
  .1:
    sub t0, #1, t0
    if gt t0 goto .1 else .2
  .2:
    lda a0, 0(zero)
    sys exit
    halt
}
|}
        in
        match Asm.parse_program src with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let img = Layout.emit p in
          let vm = Vm.of_image ~profile:true img ~input:"" in
          let _ = Vm.run vm in
          let counts = Option.get (Vm.counts vm) in
          let addr = Hashtbl.find img.Layout.block_addr ("main", 1) in
          let idx = (addr - img.Layout.text_base) / 4 in
          Alcotest.(check int) "loop head runs 5x" 5 counts.(idx));
    Alcotest.test_case "cycles exceed instructions" `Quick (fun () ->
        let o =
          run "func main {\n .0:\n mul t0, #3, t0\n lda a0, 0(zero)\n sys exit\n halt\n}"
        in
        Alcotest.(check bool) "cycles > icount" true (o.Vm.cycles > o.Vm.icount));
    Alcotest.test_case "hooks intercept fetch" `Quick (fun () ->
        let src = "func main {\n .0:\n nop\n nop\n lda a0, 1(zero)\n sys exit\n halt\n}" in
        match Asm.parse_program src with
        | Error e -> Alcotest.fail e
        | Ok p ->
          let img = Layout.emit p in
          let vm = Vm.of_image img ~input:"" in
          (* Hook the second nop: set a0 to 99 and skip to the syscall. *)
          let hook_addr = img.Layout.entry_addr + 4 in
          Vm.install_hook vm ~addr:hook_addr (fun vm ->
              Vm.set_reg vm 16 99;
              Vm.add_cycles vm 1000;
              Vm.set_pc vm (hook_addr + 8));
          let o = Vm.run vm in
          check_exit "hook result" 99 o;
          Alcotest.(check bool) "hook cycles charged" true (o.Vm.cycles >= 1000));
  ]

(* Demand-paged memory: paging must be invisible, the shared zero and
   decode pages must never be written, and an empty VM must stay small. *)

let empty_vm () =
  Vm.create ~text_base:Layout.text_base ~text:[||] ~entry:Layout.text_base
    ~data_base:Layout.data_base ~data_words:0 ~data_init:[] ~input:"" ()

type mem_op =
  | Store_word of int * int
  | Store_byte of int * int
  | Load_word of int
  | Load_byte of int

let pp_mem_op = function
  | Store_word (a, v) -> Printf.sprintf "stw 0x%x <- 0x%x" a v
  | Store_byte (a, v) -> Printf.sprintf "stb 0x%x <- 0x%x" a v
  | Load_word a -> Printf.sprintf "ldw 0x%x" a
  | Load_byte a -> Printf.sprintf "ldb 0x%x" a

(* Byte addresses within 16 bytes of a page boundary, over the first, a
   few middle and the last pages; values are 0 a third of the time so
   zero stores land in untouched pages. *)
let gen_mem_ops =
  let open QCheck.Gen in
  let pages = Layout.mem_bytes / Vm.page_bytes in
  let page = oneofl [ 0; 1; 2; 16; 17; pages / 2; pages - 2; pages - 1 ] in
  let addr =
    map2
      (fun p d -> max 0 (min (Layout.mem_bytes - 1) ((p * Vm.page_bytes) + d)))
      page (int_range (-16) 15)
  in
  let word_addr = map (fun a -> a land lnot 3) addr in
  let value =
    frequency
      [ (1, return 0);
        (1, int_bound 0xFF);
        (1, map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF)) ]
  in
  list_size (int_range 1 60)
    (frequency
       [ (3, map2 (fun a v -> Store_word (a, v)) word_addr value);
         (3, map2 (fun a v -> Store_byte (a, v)) addr value);
         (2, map (fun a -> Load_word a) word_addr);
         (2, map (fun a -> Load_byte a) addr) ])

(* Replays [ops] against a VM and a Hashtbl model of flat memory; true when
   every load and a final sweep of every touched word agree. *)
let memory_matches_model ops =
  let vm = empty_vm () in
  let model = Hashtbl.create 64 in
  let word i = Option.value ~default:0 (Hashtbl.find_opt model i) in
  let ok = ref true in
  List.iter
    (function
      | Store_word (a, v) ->
        Vm.store_word vm a v;
        Hashtbl.replace model (a / 4) (v land Word.mask)
      | Store_byte (a, v) ->
        Vm.store_byte vm a v;
        let shift = 8 * (a land 3) in
        Hashtbl.replace model (a / 4)
          (word (a / 4) land lnot (0xFF lsl shift) lor ((v land 0xFF) lsl shift))
      | Load_word a -> if Vm.load_word vm a <> word (a / 4) then ok := false
      | Load_byte a ->
        if Vm.load_byte vm a <> (word (a / 4) lsr (8 * (a land 3))) land 0xFF then
          ok := false)
    ops;
  Hashtbl.iter (fun i v -> if Vm.load_word vm (4 * i) <> v then ok := false) model;
  !ok

let memory_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"paged memory matches a flat model" ~count:300
         (QCheck.make ~print:(fun l -> String.concat "; " (List.map pp_mem_op l))
            gen_mem_ops)
         memory_matches_model);
    Alcotest.test_case "a fresh VM reads zeros where another VM wrote" `Quick
      (fun () ->
        let pages = Layout.mem_bytes / Vm.page_bytes in
        let addrs =
          List.concat_map
            (fun p -> [ p * Vm.page_bytes; ((p + 1) * Vm.page_bytes) - 4 ])
            [ 0; 1; 16; pages / 2; pages - 1 ]
        in
        let vm1 = empty_vm () in
        List.iter
          (fun a ->
            Vm.store_word vm1 a 0xDEADBEEF;
            Vm.store_byte vm1 (a + 1) 0x5A)
          addrs;
        let vm2 = empty_vm () in
        List.iter
          (fun a ->
            Alcotest.(check int) (Printf.sprintf "word 0x%x" a) 0 (Vm.load_word vm2 a);
            Alcotest.(check int) (Printf.sprintf "byte 0x%x" (a + 1)) 0
              (Vm.load_byte vm2 (a + 1)))
          addrs;
        Alcotest.(check int) "vm1 kept its store" 0xDEAD5AEF
          (Vm.load_word vm1 (List.hd addrs)));
    Alcotest.test_case "self-modifying text re-decodes in an unfetched page" `Quick
      (fun () ->
        (* main copies "lda a0, 77; sys exit" from data to [dst] and jumps
           there.  [dst] is either the text's second page, which no fetch has
           touched and which holds a stale "lda a0, 1; sys exit", or an
           untouched all-zero page past the text. *)
        let t0 = 1 and t1 = 2 and t2 = 3 in
        let a0 = List.hd Reg.args in
        let exit_with disp =
          List.map Instr.encode
            Instr.[ Lda { ra = a0; rb = Reg.zero; disp }; Sys (Syscall.to_code Syscall.Exit) ]
        in
        let load_addr r a =
          let hi, lo = Easm.split_addr a in
          Instr.[ Ldah { ra = r; rb = Reg.zero; disp = hi }; Lda { ra = r; rb = r; disp = lo } ]
        in
        let page_words = Vm.page_bytes / 4 in
        let run_patched dst =
          let main =
            load_addr t0 Layout.data_base @ load_addr t2 dst
            @ Instr.
                [ Mem { op = Ldw; ra = t1; rb = t0; disp = 0 };
                  Mem { op = Stw; ra = t1; rb = t2; disp = 0 };
                  Mem { op = Ldw; ra = t1; rb = t0; disp = 4 };
                  Mem { op = Stw; ra = t1; rb = t2; disp = 4 };
                  Jmp { ra = Reg.zero; rb = t2; hint = 0 } ]
          in
          let text = Array.make (page_words + 2) (Instr.encode Instr.Nop) in
          List.iteri (fun i w -> text.(i) <- w) (List.map Instr.encode main);
          List.iteri (fun i w -> text.(page_words + i) <- w) (exit_with 1);
          let vm =
            Vm.create ~text_base:Layout.text_base ~text ~entry:Layout.text_base
              ~data_base:Layout.data_base ~data_words:2
              ~data_init:(List.mapi (fun i w -> (i, w)) (exit_with 77))
              ~input:"" ()
          in
          Vm.run vm
        in
        check_exit "patched text page" 77
          (run_patched (Layout.text_base + Vm.page_bytes));
        check_exit "patched zero page" 77
          (run_patched (Layout.text_base + (8 * Vm.page_bytes))));
    Alcotest.test_case "create rejects text that does not fit in memory" `Quick
      (fun () ->
        Alcotest.check_raises "text past the end"
          (Invalid_argument "Vm.create: text out of range") (fun () ->
            ignore
              (Vm.create ~text_base:(Layout.mem_bytes - 4) ~text:[| 0; 0 |]
                 ~entry:0 ~data_base:Layout.data_base ~data_words:0 ~data_init:[]
                 ~input:"" ())));
    Alcotest.test_case "creating a small VM allocates a small fraction of memory"
      `Quick (fun () ->
        (* Flat memory plus a flat decode cache came to 2 * 4_194_304 words. *)
        let img =
          match Asm.parse_program "func main {\n .0:\n lda a0, 3(zero)\n sys exit\n halt\n}" with
          | Ok p -> Layout.emit p
          | Error e -> Alcotest.fail e
        in
        let vm, cost = Obs.measure (fun () -> Vm.of_image img ~input:"") in
        let words = cost.Obs.alloc_words in
        Alcotest.(check bool)
          (Printf.sprintf "%d words allocated, under 1/16 of 8388608" words)
          true
          (words < 8_388_608 / 16);
        check_exit "still runs" 3 (Vm.run vm));
  ]

let suite = [ ("vm", unit_tests @ memory_tests) ]
