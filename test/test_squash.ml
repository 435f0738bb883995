(* End-to-end squash: correctness of the rewritten image and its runtime. *)

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

let run_orig ?(input = "") ?(fuel = 30_000_000) p =
  Vm.run (Vm.of_image ~fuel (Layout.emit p) ~input)

let squash ?(options = Squash.default_options) ?(profile_input = "") p =
  let prof, _ = Profile.collect p ~input:profile_input in
  Squash.run ~options p prof

let run_squashed ?(input = "") ?(fuel = 60_000_000) r =
  Runtime.run ~fuel r.Squash.squashed ~input

(* A program with a clearly hot core and clearly cold paths; the "mode"
   input byte steers execution into cold code at timing time. *)
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
int hot_step(int x) { return (x * 17 + 3) & 4095; }
int main() {
  int mode; int i; int acc;
  mode = getc();
  acc = 1;
  for (i = 0; i < 200; i = i + 1) acc = hot_step(acc + i);
  if (mode == 'x') acc = rare_fixup(acc);
  putint(acc);
  return acc & 255;
}
|}

let check_same name (o1 : Vm.outcome) (o2 : Vm.outcome) =
  Alcotest.(check string) (name ^ " output") o1.Vm.output o2.Vm.output;
  Alcotest.(check int) (name ^ " exit") o1.Vm.exit_code o2.Vm.exit_code

let unit_tests =
  [
    Alcotest.test_case "θ=0: same behaviour on the profiling input" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r = squash ~profile_input:"n" p in
        let o1 = run_orig ~input:"n" p in
        let o2, _ = run_squashed ~input:"n" r in
        check_same "theta0" o1 o2);
    Alcotest.test_case "θ=0: cold path taken at timing time decompresses" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r = squash ~profile_input:"n" p in
        let o1 = run_orig ~input:"x" p in
        let o2, stats = run_squashed ~input:"x" r in
        check_same "coldpath" o1 o2;
        Alcotest.(check bool) "decompressor ran" true (stats.Runtime.decompressions > 0));
    Alcotest.test_case "θ=0 never decompresses on the training input" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r = squash ~profile_input:"n" p in
        let _, stats = run_squashed ~input:"n" r in
        Alcotest.(check int) "no decompressions" 0 stats.Runtime.decompressions);
    Alcotest.test_case "θ=1: everything compressed still runs correctly" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 }
            ~profile_input:"n" p
        in
        let o1 = run_orig ~input:"x" p in
        let o2, stats = run_squashed ~input:"x" r in
        check_same "theta1" o1 o2;
        Alcotest.(check bool) "many decompressions" true
          (stats.Runtime.decompressions > 10));
    Alcotest.test_case "squashed footprint is smaller at θ=0" `Quick (fun () ->
        (* The decompressor, stub area and buffer are fixed overheads, so
           the benefit only shows on programs big enough to amortise them —
           exactly as in the paper, whose benchmarks are 12k-65k
           instructions.  Build a program with plenty of cold code. *)
        let cold_funcs =
          List.init 60 (fun i ->
              Printf.sprintf
                "int cold_%d(int x) {\n\
                 \  int a; int b; int c;\n\
                 \  a = x * %d + 13; b = (a ^ %d) %% 97; c = a + b;\n\
                 \  if (x > 40) { c = c * 3 - a; b = b + c; }\n\
                 \  else { c = c + a * 2; }\n\
                 \  while (b > 9) { b = b - 7; c = c + 1; }\n\
                 \  return a + b * 2 + c;\n\
                 }" i (i + 3) (i * 7))
          |> String.concat "\n"
        in
        let dispatch =
          List.init 60 (fun i ->
              Printf.sprintf "  if (sel == %d) acc = acc + cold_%d(acc);" i i)
          |> String.concat "\n"
        in
        let src =
          Printf.sprintf
            {|
%s
int hot(int x) { return (x * 29 + 7) & 8191; }
int main() {
  int sel; int i; int acc;
  sel = getc();
  acc = 1;
  for (i = 0; i < 50; i = i + 1) acc = hot(acc + i);
%s
  putint(acc);
  return 0;
}
|}
            cold_funcs dispatch
        in
        let p = squeeze (compile src) in
        let r = squash ~profile_input:"" p in
        Alcotest.(check bool)
          (Printf.sprintf "reduction > 5%% (%d -> %d words)" r.Squash.original_words
             r.Squash.squashed_words)
          true
          (Squash.size_reduction r > 0.05);
        (* And the transformed program still behaves identically on an input
           that runs some cold code. *)
        let o1 = run_orig ~input:"\007" p in
        let o2, stats = run_squashed ~input:"\007" r in
        check_same "bigprog" o1 o2;
        Alcotest.(check bool) "decompressed" true (stats.Runtime.decompressions > 0));
    Alcotest.test_case "size breakdown sums to the total" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r = squash ~profile_input:"n" p in
        let b = Squash.breakdown r in
        let sum =
          b.Squash.never_compressed + b.Squash.decompressor + b.Squash.offset_table
          + b.Squash.compressed_code + b.Squash.code_tables + b.Squash.stub_area
          + b.Squash.runtime_buffer
        in
        Alcotest.(check int) "sum" r.Squash.squashed_words sum);
    Alcotest.test_case "restore stubs: created, reused, reference-counted" `Quick
      (fun () ->
        (* Under θ=1 the recursive calls all run from the buffer, so calls
           out of compressed code exercise CreateStub heavily. *)
        let src =
          {|
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { putint(fib(12)); return 0; }
|}
        in
        let p = squeeze (compile src) in
        (* A small K forces fib to split into several regions, so the
           recursive calls cross regions and must go through CreateStub. *)
        let r =
          squash
            ~options:{ Squash.default_options with Squash.theta = 1.0; k_bytes = 64 }
            p
        in
        let o1 = run_orig p in
        let o2, stats = run_squashed r in
        check_same "fib" o1 o2;
        Alcotest.(check bool) "stubs created" true (stats.Runtime.stub_creates > 0);
        Alcotest.(check bool) "stubs reused" true (stats.Runtime.stub_reuses > 0);
        Alcotest.(check bool) "all stubs freed at exit" true
          (stats.Runtime.live_stubs <= 1);
        Alcotest.(check bool) "bounded live stubs" true
          (stats.Runtime.max_live_stubs <= 16));
    Alcotest.test_case "setjmp callers are never compressed" `Quick (fun () ->
        let src =
          {|
int jb[16];
int guarded(int n) {
  int r;
  r = setjmp(jb);
  if (r != 0) return 100 + r;
  if (n > 5) longjmp(jb, n);
  return n;
}
int main() { putint(guarded(3)); putint(guarded(9)); return 0; }
|}
        in
        let p = squeeze (compile src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 } p
        in
        Alcotest.(check bool) "guarded excluded" true
          (List.mem "guarded" r.Squash.excluded_funcs);
        let o1 = run_orig p in
        let o2, _ = run_squashed r in
        check_same "setjmp" o1 o2);
    Alcotest.test_case "cold switch is unswitched and its table reclaimed" `Quick
      (fun () ->
        let src =
          {|
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
int main() {
  int c;
  c = getc();
  if (c == 'd') { putint(rare_dispatch(c & 7)); }
  putint(7);
  return 0;
}
|}
        in
        let p = squeeze (compile src) in
        let r = squash ~profile_input:"n" p in
        Alcotest.(check bool) "unswitched something" true
          (List.length r.Squash.unswitched > 0);
        let o1 = run_orig ~input:"d" p in
        let o2, stats = run_squashed ~input:"d" r in
        check_same "unswitch" o1 o2;
        Alcotest.(check bool) "ran from the buffer" true
          (stats.Runtime.decompressions > 0));
    Alcotest.test_case "kept-table fallback (unswitch off) also works" `Quick
      (fun () ->
        let src =
          {|
int rare_dispatch(int x) {
  int r;
  switch (x) {
    case 0: r = 10; break;
    case 1: r = 21; break;
    case 2: r = 32; break;
    case 3: r = 43; break;
    case 4: r = 54; break;
    default: r = 99; break;
  }
  return r;
}
int main() {
  int c;
  c = getc();
  if (c == 'd') { putint(rare_dispatch(c & 3)); }
  putint(7);
  return 0;
}
|}
        in
        let p = squeeze (compile src) in
        let r =
          squash
            ~options:{ Squash.default_options with Squash.unswitch = false }
            ~profile_input:"n" p
        in
        Alcotest.(check (list (pair string int))) "nothing unswitched" []
          r.Squash.unswitched;
        let o1 = run_orig ~input:"d" p in
        let o2, _ = run_squashed ~input:"d" r in
        check_same "kept-table" o1 o2);
    Alcotest.test_case "buffer-safe callees skip CreateStub" `Quick (fun () ->
        (* leaf is hot (never compressed) and calls nothing: buffer-safe.
           Cold code calling only leaf should produce zero restore stubs. *)
        let src =
          {|
int leaf(int x) { return x * 3 + 1; }
int cold_worker(int x) {
  int i; int acc;
  acc = x;
  for (i = 0; i < 4; i = i + 1) acc = leaf(acc) + 1;
  return acc;
}
int main() {
  int c; int i; int acc;
  c = getc();
  acc = 0;
  for (i = 0; i < 100; i = i + 1) acc = acc + leaf(i);
  if (c == 'x') acc = acc + cold_worker(c);
  putint(acc);
  return 0;
}
|}
        in
        let p = squeeze (compile src) in
        let r = squash ~profile_input:"n" p in
        Alcotest.(check bool) "leaf is buffer-safe" true
          (Buffer_safe.is_safe r.Squash.buffer_safe "leaf");
        let o1 = run_orig ~input:"x" p in
        let o2, stats = run_squashed ~input:"x" r in
        check_same "bsafe" o1 o2;
        Alcotest.(check bool) "decompressed" true (stats.Runtime.decompressions > 0);
        Alcotest.(check int) "no restore stubs needed" 0 stats.Runtime.stub_creates);
    Alcotest.test_case "function pointers into compressed code" `Quick (fun () ->
        let src =
          {|
int cb_a(int x) { return x + 100; }
int cb_b(int x) { return x * 2; }
int main() {
  int c; int f;
  c = getc();
  if (c == 'a') f = &cb_a;
  else f = &cb_b;
  putint(f(21));
  return 0;
}
|}
        in
        let p = squeeze (compile src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 }
            ~profile_input:"b" p
        in
        let o1 = run_orig ~input:"a" p in
        let o2, _ = run_squashed ~input:"a" r in
        check_same "fptr" o1 o2);
    Alcotest.test_case "gamma achieved is plausibly below 1" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 } p
        in
        let g = Squash.gamma_achieved r in
        Alcotest.(check bool) (Printf.sprintf "gamma %.2f in (0.2, 1.0)" g) true
          (g > 0.2 && g < 1.0));
    Alcotest.test_case "image streams round-trip through the compressor" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 } p
        in
        let sq = r.Squash.squashed in
        Array.iteri
          (fun i (img : Rewrite.region_image) ->
            let decoded, _ =
              Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
                ~bit_offset:sq.Rewrite.blob_offsets.(i) ()
            in
            if not (List.equal Instr.equal decoded img.Rewrite.stream) then
              Alcotest.failf "region %d stream mismatch" i)
          sq.Rewrite.images);
    Alcotest.test_case "different K values all preserve behaviour" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let o1 = run_orig ~input:"x" p in
        List.iter
          (fun k ->
            let r =
              squash
                ~options:{ Squash.default_options with Squash.theta = 1.0; k_bytes = k }
                ~profile_input:"n" p
            in
            let o2, _ = run_squashed ~input:"x" r in
            check_same (Printf.sprintf "K=%d" k) o1 o2)
          [ 64; 128; 256; 512; 2048 ]);
    Alcotest.test_case "no compressible block: the rewrite lays out as Layout.emit"
      `Quick (fun () ->
        (* With no region the rewrite's text is the canonical layout word
           for word, followed by the decompressor's sentinel area. *)
        List.iter
          (fun (wl : Workload.t) ->
            let p = (Exp_data.prepare wl).Exp_data.squeezed in
            let regions =
              Regions.build p ~compressible:(fun _ _ -> false)
                ~params:Regions.default_params
            in
            let buffer_safe = Buffer_safe.analyze p ~has_compressed:(fun _ -> false) in
            let sq = Rewrite.build p ~regions ~buffer_safe () in
            let img = sq.Rewrite.image and canon = Layout.emit p in
            let n = Layout.text_words canon and extra = sq.Rewrite.decomp_words in
            let what s = Printf.sprintf "%s %s" wl.Workload.name s in
            let bindings tbl =
              List.sort compare (Hashtbl.fold (fun k a acc -> (k, a) :: acc) tbl [])
            in
            Alcotest.(check int) (what "regions") 0 (Array.length sq.Rewrite.images);
            Alcotest.(check int) (what "words") (n + extra) (Layout.text_words img);
            Alcotest.(check (array int)) (what "text") canon.Layout.text
              (Array.sub img.Layout.text 0 n);
            Alcotest.(check (array int)) (what "sentinels")
              (Array.make extra (Instr.encode Instr.Sentinel))
              (Array.sub img.Layout.text n extra);
            Alcotest.(check (array (option (pair string int)))) (what "owners")
              (Array.append canon.Layout.owners (Array.make extra None))
              img.Layout.owners;
            Alcotest.(check int) (what "entry") canon.Layout.entry_addr
              img.Layout.entry_addr;
            let addrs = Alcotest.(list (pair (pair string int) int)) in
            Alcotest.check addrs (what "block addresses")
              (bindings canon.Layout.block_addr) (bindings img.Layout.block_addr);
            Alcotest.check addrs (what "table addresses")
              (bindings canon.Layout.table_addr) (bindings img.Layout.table_addr))
          Workloads.all);
  ]

(* The image gate over [sq]: lint, then prove at two slots. *)
let gate_diags sq = Verify.run sq @ (Prove.run ~slots:2 sq).Prove.failures

let expect_kinds what kinds diags =
  if not (List.exists (fun d -> List.mem d.Verify.kind kinds) diags) then
    Alcotest.failf "%s not detected as %s; got:\n%s" what
      (String.concat " or " (List.map Verify.kind_name kinds))
      (Verify.render diags)

let checker_tests =
  [
    Alcotest.test_case "gate accepts images from every coder and θ" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        List.iter
          (fun (theta, coder) ->
            let r =
              squash ~options:{ Squash.default_options with Squash.theta; coder }
                ~profile_input:"n" p
            in
            match Verify.errors (gate_diags r.Squash.squashed) with
            | [] -> ()
            | errs -> Alcotest.failf "θ=%g:\n%s" theta (Verify.render errs))
          [ (0.0, `Split_stream); (1.0, `Split_stream); (1.0, `Context);
            (0.001, `Split_stream); (0.001, `Context) ]);
    Alcotest.test_case "gate rejects a corrupted offset table" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 }
            ~profile_input:"n" p
        in
        let sq = r.Squash.squashed in
        Alcotest.(check bool) "has two regions" true
          (Array.length sq.Rewrite.blob_offsets >= 2);
        let saved = sq.Rewrite.blob_offsets.(1) in
        sq.Rewrite.blob_offsets.(1) <- max 0 (saved - 3);
        let diags = Verify.run sq in
        sq.Rewrite.blob_offsets.(1) <- saved;
        expect_kinds "shifted offset" [ Verify.Stream_mismatch; Verify.Bad_layout ] diags);
    Alcotest.test_case "gate rejects a stray sentinel in a region stream" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 }
            ~profile_input:"n" p
        in
        let sq = r.Squash.squashed in
        Alcotest.(check bool) "has a region" true
          (Array.length sq.Rewrite.images > 0);
        (* The sentinel goes into the stream and the blob alike, so the
           stream still round-trips and only the materialised code is
           wrong. *)
        let images = Array.copy sq.Rewrite.images in
        images.(0) <-
          { (images.(0)) with Rewrite.stream = Instr.Sentinel :: images.(0).Rewrite.stream };
        let streams = Array.map (fun (img : Rewrite.region_image) -> img.Rewrite.stream) images in
        let codes =
          Compress.build_codes ~backend:(Compress.backend_of sq.Rewrite.codes) streams
        in
        let blob, blob_offsets = Compress.encode_regions codes streams in
        let sq = { sq with Rewrite.images; codes; blob; blob_offsets } in
        expect_kinds "sentinel"
          [ Verify.Stream_mismatch; Verify.Unproved_region ]
          (gate_diags sq));
    Alcotest.test_case "gate rejects an out-of-range stub tag" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 }
            ~profile_input:"n" p
        in
        let sq = r.Squash.squashed in
        let addr =
          match sq.Rewrite.stub_addrs with
          | (_, addr) :: _ -> addr
          | [] -> Alcotest.fail "no entry stubs"
        in
        let words = sq.Rewrite.image.Layout.text in
        let word_idx a = (a - Layout.text_base) / 4 in
        (* The tag word follows the stub's bsr: 2-word plain form or
           3-word push form (stw sp, -4 first). *)
        let tag_idx =
          match Instr.decode words.(word_idx addr) with
          | Ok (Instr.Mem { op = Instr.Stw; _ }) -> word_idx (addr + 8)
          | _ -> word_idx (addr + 4)
        in
        let saved = words.(tag_idx) in
        words.(tag_idx) <- (Array.length sq.Rewrite.images + 7) lsl 16;
        let diags = Verify.run sq in
        words.(tag_idx) <- saved;
        expect_kinds "bad tag" [ Verify.Bad_stub ] diags);
  ]

let variant_tests =
  [
    Alcotest.test_case "Context coder round-trips and runs" `Quick (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0; coder = `Context }
            ~profile_input:"n" p
        in
        Alcotest.(check bool) "backend recorded" true
          (Compress.backend_of r.Squash.squashed.Rewrite.codes = `Context);
        Alcotest.(check string) "coder name" "context"
          (Compress.coder_name r.Squash.squashed.Rewrite.codes);
        let o1 = run_orig ~input:"x" p in
        let o2, stats = run_squashed ~input:"x" r in
        check_same "context" o1 o2;
        Alcotest.(check bool) "decompressed" true (stats.Runtime.decompressions > 0));
    Alcotest.test_case "linear region strategy preserves behaviour" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0;
                regions_strategy = `Linear }
            ~profile_input:"n" p
        in
        let o1 = run_orig ~input:"x" p in
        let o2, _ = run_squashed ~input:"x" r in
        check_same "linear" o1 o2);
    Alcotest.test_case "all region streams round-trip under every coder" `Quick
      (fun () ->
        let p = squeeze (compile hot_cold_src) in
        List.iter
          (fun coder ->
            let r =
              squash
                ~options:{ Squash.default_options with Squash.theta = 1.0; coder }
                p
            in
            let sq = r.Squash.squashed in
            let nregions = Array.length sq.Rewrite.images in
            Array.iteri
              (fun i (img : Rewrite.region_image) ->
                let bit_end =
                  if i + 1 < nregions then Some sq.Rewrite.blob_offsets.(i + 1)
                  else None
                in
                let decoded, work =
                  Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
                    ~bit_offset:sq.Rewrite.blob_offsets.(i) ?bit_end ()
                in
                if not (List.equal Instr.equal decoded img.Rewrite.stream) then
                  Alcotest.failf "region %d stream mismatch" i;
                Alcotest.(check bool) "work positive" true
                  (work.Compress.bits > 0 && work.Compress.steps >= 0))
              sq.Rewrite.images)
          (List.map snd Compress.coders));
  ]

let differential_tests =
  [
    Alcotest.test_case "differential: random programs, several θ" `Slow (fun () ->
        List.iter
          (fun theta ->
            for seed = 1 to 12 do
              let src = Gen_minic.random_program ~seed in
              let p = squeeze (compile src) in
              let o1 = run_orig p in
              let r =
                squash ~options:{ Squash.default_options with Squash.theta = theta } p
              in
              let o2, _ = run_squashed r in
              if o1.Vm.output <> o2.Vm.output || o1.Vm.exit_code <> o2.Vm.exit_code
              then
                Alcotest.failf "seed %d θ=%g: behaviour diverged (exit %d vs %d)" seed
                  theta o1.Vm.exit_code o2.Vm.exit_code
            done)
          [ 0.0; 0.001; 1.0 ]);
    Alcotest.test_case "differential: packing and optimisations off" `Slow (fun () ->
        for seed = 41 to 52 do
          let src = Gen_minic.random_program ~seed in
          let p = squeeze (compile src) in
          let o1 = run_orig p in
          let opts =
            {
              Squash.default_options with
              Squash.theta = 1.0;
              pack = false;
              use_buffer_safe = false;
              unswitch = false;
            }
          in
          let r = squash ~options:opts p in
          let o2, _ = run_squashed r in
          if o1.Vm.output <> o2.Vm.output || o1.Vm.exit_code <> o2.Vm.exit_code then
            Alcotest.failf "seed %d: behaviour diverged" seed
        done);
    Alcotest.test_case "differential: alternative codecs and region strategy"
      `Slow (fun () ->
        List.iter
          (fun (name, opts) ->
            for seed = 60 to 69 do
              let src = Gen_minic.random_program ~seed in
              let p = squeeze (compile src) in
              let o1 = run_orig p in
              let r = squash ~options:opts p in
              let o2, _ = run_squashed r in
              if o1.Vm.output <> o2.Vm.output || o1.Vm.exit_code <> o2.Vm.exit_code
              then Alcotest.failf "%s seed %d: behaviour diverged" name seed
            done)
          [ ("context",
             { Squash.default_options with Squash.theta = 1.0;
               coder = `Context });
            ("linear",
             { Squash.default_options with Squash.theta = 1.0;
               regions_strategy = `Linear }) ]);
  ]

let suite = [ ("squash", unit_tests @ checker_tests @ variant_tests @ differential_tests) ]
