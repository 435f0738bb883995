(* Buffer-safety (paper §6.1): the fixpoint marking, the sharpened
   indirect-call treatment, and end-to-end properties of the optimisation
   on the workloads. *)

let parse src =
  match Asm.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

let wl name =
  match Workloads.find name with
  | Some w -> w
  | None -> Alcotest.failf "no workload %s" name

let squash_wl ?(options = Squash.default_options) w =
  let p = fst (Squeeze.run (Workload.compile w)) in
  let prof, _ = Profile.collect p ~input:(Workload.profiling_input w) in
  Squash.run ~options p prof

(* a and b are mutually recursive; b reaches the compressed function, so
   non-safety must flow around the cycle to both, and to their caller. *)
let mutual_src =
  {|
.entry main
func main {
.0:
  call a
.1:
  call c
.2:
  sys exit
  halt
}
func a {
.0:
  call b
.1:
  ret
}
func b {
.0:
  if eq t0 goto .1 else .2
.1:
  call a
.2:
  call bad
.3:
  ret
}
func bad {
.0:
  ret
}
func c {
.0:
  ret
}
|}

let indirect_src =
  {|
.entry main
func main {
.0:
  call f
.1:
  sys exit
  halt
}
func f {
.0:
  la t0, &h
  icall (t0)
.1:
  ret
}
func h {
.0:
  ret
}
|}

let unit_tests =
  [
    Alcotest.test_case "non-safety propagates around mutual recursion" `Quick
      (fun () ->
        let p = parse mutual_src in
        let bs =
          Buffer_safe.analyze p ~has_compressed:(fun g -> g = "bad")
        in
        Alcotest.(check (list string))
          "safe set" [ "c" ]
          (Buffer_safe.safe_functions bs);
        List.iter
          (fun g ->
            Alcotest.(check bool)
              (g ^ " unsafe") false (Buffer_safe.is_safe bs g))
          [ "main"; "a"; "b"; "bad" ]);
    Alcotest.test_case
      "an indirect call poisons conservatively but not sharply" `Quick
      (fun () ->
        let p = parse indirect_src in
        let none _ = false in
        let cons = Buffer_safe.analyze p ~has_compressed:none in
        Alcotest.(check bool)
          "f conservatively unsafe" false (Buffer_safe.is_safe cons "f");
        Alcotest.(check bool)
          "main conservatively unsafe" false (Buffer_safe.is_safe cons "main");
        let sharp = Buffer_safe.analyze_sharp p ~has_compressed:none in
        Alcotest.(check (list string))
          "everything sharply safe" [ "f"; "h"; "main" ]
          (Buffer_safe.safe_functions sharp));
    Alcotest.test_case "a compressed indirect target stays unsafe sharply"
      `Quick (fun () ->
        let p = parse indirect_src in
        let hc g = g = "h" in
        let sharp = Buffer_safe.analyze_sharp p ~has_compressed:hc in
        Alcotest.(check bool) "h unsafe" false (Buffer_safe.is_safe sharp "h");
        Alcotest.(check bool)
          "f unsafe through the resolved edge" false
          (Buffer_safe.is_safe sharp "f");
        Alcotest.(check bool)
          "main unsafe transitively" false (Buffer_safe.is_safe sharp "main"));
  ]

(* --- workload-level properties ------------------------------------- *)

let monotone_tests =
  [
    Alcotest.test_case "sharp analysis never loses a safe function" `Slow
      (fun () ->
        List.iter
          (fun name ->
            List.iter
              (fun theta ->
                let options = { Squash.default_options with theta } in
                let r = squash_wl ~options (wl name) in
                let p = r.Squash.squashed.Rewrite.prog in
                let regions = r.Squash.regions in
                let has_compressed g =
                  match Prog.find_func p g with
                  | None -> false
                  | Some f ->
                    Array.exists Fun.id
                      (Array.mapi
                         (fun i _ -> Regions.block_region regions g i <> None)
                         f.Prog.Func.blocks)
                in
                let cons = Buffer_safe.analyze p ~has_compressed in
                let sharp = Buffer_safe.analyze_sharp p ~has_compressed in
                List.iter
                  (fun g ->
                    if not (Buffer_safe.is_safe sharp g) then
                      Alcotest.failf
                        "%s θ=%g: %s is conservatively safe but sharply unsafe"
                        name theta g)
                  (Buffer_safe.safe_functions cons))
              [ 0.001; 0.1 ])
          [ "adpcm"; "g721_enc"; "gsm"; "rasta" ]);
  ]

let rasta_tests =
  [
    Alcotest.test_case
      "sharpening strictly grows rasta's safe-call count" `Slow (fun () ->
        let options = { Squash.default_options with theta = 0.01 } in
        let r = squash_wl ~options (wl "rasta") in
        let p = r.Squash.squashed.Rewrite.prog in
        let regions = r.Squash.regions in
        let has_compressed g =
          match Prog.find_func p g with
          | None -> false
          | Some f ->
            Array.exists Fun.id
              (Array.mapi
                 (fun i _ -> Regions.block_region regions g i <> None)
                 f.Prog.Func.blocks)
        in
        let in_region g i = Regions.block_region regions g i <> None in
        let count bs =
          let `Safe_calls sc, `Direct_calls _, `Indirect_calls _ =
            Buffer_safe.stats p bs ~in_region
          in
          sc
        in
        let cons = count (Buffer_safe.analyze p ~has_compressed) in
        let sharp = count (Buffer_safe.analyze_sharp p ~has_compressed) in
        if sharp <= cons then
          Alcotest.failf "expected a strict increase, got %d -> %d" cons sharp);
    Alcotest.test_case
      "conservative and sharp builds behave identically" `Slow (fun () ->
        let w = wl "rasta" in
        let base = { Squash.default_options with theta = 0.01 } in
        let outcome options =
          let r = squash_wl ~options w in
          fst
            (Runtime.run r.Squash.squashed
               ~input:(Workload.profiling_input w))
        in
        let o1 = outcome base in
        let o2 = outcome { base with Squash.sharp_buffer_safe = true } in
        Alcotest.(check string) "output" o1.Vm.output o2.Vm.output;
        Alcotest.(check int) "exit code" o1.Vm.exit_code o2.Vm.exit_code);
  ]

(* Execute a sharp-optimised image and watch the machine: between entering
   a buffer-safe function and returning from it, the decompressor must
   never run.  This is the very invariant that lets the rewrite leave the
   call sites unchanged. *)
let safe_call_property name ~max_steps =
  let w = wl name in
  let options =
    { Squash.default_options with theta = 0.01; sharp_buffer_safe = true }
  in
  let r = squash_wl ~options w in
  let sq = r.Squash.squashed in
  let bs = r.Squash.buffer_safe in
  let entry_set = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (g, i) a ->
      if i = 0 && Buffer_safe.is_safe bs g then Hashtbl.replace entry_set a g)
    sq.Rewrite.image.Layout.block_addr;
  let vm, stats = Runtime.launch sq ~input:(Workload.profiling_input w) in
  let stack = ref [] in
  let entered = ref 0 in
  let running = ref true in
  let steps = ref 0 in
  while !running && !steps < max_steps do
    incr steps;
    let pc = Vm.pc vm in
    (match !stack with
    | (ret, g, d0) :: tl when pc = ret ->
      if stats.Runtime.decompressions <> d0 then
        Alcotest.failf
          "%s: %d decompressions inside a call to buffer-safe %s" name
          (stats.Runtime.decompressions - d0)
          g;
      stack := tl
    | _ -> ());
    (match Hashtbl.find_opt entry_set pc with
    | Some g ->
      incr entered;
      stack := (Vm.reg vm Reg.ra, g, stats.Runtime.decompressions) :: !stack
    | None -> ());
    running := Vm.step vm
  done;
  if !entered = 0 then
    Alcotest.failf "%s: no buffer-safe function was ever entered" name;
  if stats.Runtime.decompressions = 0 then
    Alcotest.failf "%s: the run never decompressed anything" name

let vm_property_tests =
  [
    Alcotest.test_case "no decompression inside safe calls (adpcm)" `Slow
      (fun () -> safe_call_property "adpcm" ~max_steps:4_000_000);
    Alcotest.test_case "no decompression inside safe calls (g721_enc)" `Slow
      (fun () -> safe_call_property "g721_enc" ~max_steps:4_000_000);
    Alcotest.test_case "no decompression inside safe calls (rasta)" `Slow
      (fun () -> safe_call_property "rasta" ~max_steps:4_000_000);
  ]

let suite =
  [
    ("buffer-safe: fixpoint", unit_tests);
    ("buffer-safe: monotonicity", monotone_tests);
    ("buffer-safe: rasta sharpening", rasta_tests);
    ("buffer-safe: VM property", vm_property_tests);
  ]
