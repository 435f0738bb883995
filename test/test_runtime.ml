(* Runtime edge cases: stub-area exhaustion, per-region statistics,
   decompressor cycle accounting. *)

let compile src =
  match Minic.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile error: %s" (Minic.error_to_string e)

let fib_src =
  {|
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { putint(fib(14)); return 0; }
|}

let squash ?(options = Squash.default_options) p =
  let profile, _ = Profile.collect p ~input:"" in
  Squash.run ~options p profile

let unit_tests =
  [
    Alcotest.test_case "stub-area exhaustion is a clean trap" `Quick (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        (* Tiny K splits fib across regions; one stub slot cannot hold the
           recursion's concurrent call sites. *)
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0; k_bytes = 64;
                max_stubs = 1 }
            p
        in
        match Runtime.run ~fuel:50_000_000 r.Squash.squashed ~input:"" with
        | exception Vm.Trap { reason; _ } ->
          Alcotest.(check string) "reason" "createstub: stub area exhausted" reason
        | outcome, stats ->
          (* If one slot sufficed the run must still be correct. *)
          Alcotest.(check int) "exit" 121 outcome.Vm.exit_code;
          Alcotest.(check bool) "reused" true (stats.Runtime.stub_reuses > 0));
    Alcotest.test_case "per-region decompression counts sum to the total" `Quick
      (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash
            ~options:{ Squash.default_options with Squash.theta = 1.0; k_bytes = 128 }
            p
        in
        let _, stats = Runtime.run ~fuel:50_000_000 r.Squash.squashed ~input:"" in
        Alcotest.(check int) "sum" stats.Runtime.decompressions
          (Array.fold_left ( + ) 0 stats.Runtime.per_region));
    Alcotest.test_case "decompression cycles scale with the cost model" `Quick
      (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 } p
        in
        let cheap = { Cost.default with Cost.decomp_per_bit = 1; decomp_invoke = 10 } in
        let dear = { Cost.default with Cost.decomp_per_bit = 40; decomp_invoke = 5000 } in
        let o1, s1 = Runtime.run ~cost:cheap ~fuel:50_000_000 r.Squash.squashed ~input:"" in
        let o2, s2 = Runtime.run ~cost:dear ~fuel:50_000_000 r.Squash.squashed ~input:"" in
        Alcotest.(check int) "same behaviour" o1.Vm.exit_code o2.Vm.exit_code;
        Alcotest.(check int) "same work" s1.Runtime.bits_decoded s2.Runtime.bits_decoded;
        Alcotest.(check bool) "dearer model, more cycles" true
          (o2.Vm.cycles > o1.Vm.cycles));
    Alcotest.test_case "words materialised match image sizes" `Quick (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 } p
        in
        let _, stats = Runtime.run ~fuel:50_000_000 r.Squash.squashed ~input:"" in
        let expected =
          Array.to_list r.Squash.squashed.Rewrite.images
          |> List.mapi (fun i (img : Rewrite.region_image) ->
                 stats.Runtime.per_region.(i) * img.Rewrite.buffer_words)
          |> List.fold_left ( + ) 0
        in
        Alcotest.(check int) "words" expected stats.Runtime.words_materialised);
    Alcotest.test_case "a squashed program can run many inputs in sequence"
      `Quick (fun () ->
        (* Fresh launches must not leak state between runs. *)
        let src =
          {|
int main() {
  int c;
  c = getc();
  if (c < 0) { putint(-1); return 0; }
  putint(c * 2);
  return 0;
}
|}
        in
        let p, _ = Squeeze.run (compile src) in
        let profile, _ = Profile.collect p ~input:"\005" in
        let r =
          Squash.run ~options:{ Squash.default_options with Squash.theta = 1.0 } p
            profile
        in
        List.iter
          (fun (input, expected) ->
            let outcome, _ = Runtime.run r.Squash.squashed ~input in
            Alcotest.(check string) "output" expected outcome.Vm.output)
          [ ("\001", "2\n"); ("\010", "20\n"); ("", "-1\n") ]);
    Alcotest.test_case
      "resident region is not re-inflated on stub return" `Quick (fun () ->
        (* The recursion returns through restore stubs into a region that is
           still materialised: each such re-entry must be a cache hit, not a
           fresh decompression, and behaviour must be unchanged. *)
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0; k_bytes = 64 }
            p
        in
        let baseline = Vm.run (Vm.of_image (Layout.emit p) ~input:"") in
        let outcome, stats =
          Runtime.run ~fuel:50_000_000 r.Squash.squashed ~input:""
        in
        Alcotest.(check string) "output" baseline.Vm.output outcome.Vm.output;
        Alcotest.(check int) "exit" baseline.Vm.exit_code outcome.Vm.exit_code;
        Alcotest.(check bool) "stub returns hit the resident region" true
          (stats.Runtime.cache_hits > 0);
        (* Every decompressor entry is either a hit or a decompression. *)
        Alcotest.(check bool) "decompressions dropped" true
          (stats.Runtime.decompressions
          < stats.Runtime.decompressions + stats.Runtime.cache_hits));
    Alcotest.test_case "extra slots reduce decompressions, not behaviour"
      `Quick (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0; k_bytes = 64 }
            p
        in
        let o1, s1 =
          Runtime.run ~fuel:50_000_000 ~slots:1 r.Squash.squashed ~input:""
        in
        let o4, s4 =
          Runtime.run ~fuel:50_000_000 ~slots:4 r.Squash.squashed ~input:""
        in
        Alcotest.(check string) "output" o1.Vm.output o4.Vm.output;
        Alcotest.(check int) "exit" o1.Vm.exit_code o4.Vm.exit_code;
        Alcotest.(check bool) "fewer or equal decompressions" true
          (s4.Runtime.decompressions <= s1.Runtime.decompressions);
        (* Same decompressor entries either way, just a different split. *)
        Alcotest.(check int) "entries conserved"
          (s1.Runtime.decompressions + s1.Runtime.cache_hits)
          (s4.Runtime.decompressions + s4.Runtime.cache_hits));
    Alcotest.test_case "stub creation goes through the cost model" `Quick
      (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0; k_bytes = 64 }
            p
        in
        let cheap = { Cost.default with Cost.stub_invoke = 1 } in
        let dear = { Cost.default with Cost.stub_invoke = 4000 } in
        let o1, s1 =
          Runtime.run ~cost:cheap ~fuel:50_000_000 r.Squash.squashed ~input:""
        in
        let o2, s2 =
          Runtime.run ~cost:dear ~fuel:50_000_000 r.Squash.squashed ~input:""
        in
        Alcotest.(check int) "same behaviour" o1.Vm.exit_code o2.Vm.exit_code;
        Alcotest.(check bool) "stubs were created" true
          (s1.Runtime.stub_creates > 0);
        Alcotest.(check int) "same stub traffic"
          (s1.Runtime.stub_creates + s1.Runtime.stub_reuses)
          (s2.Runtime.stub_creates + s2.Runtime.stub_reuses);
        Alcotest.(check bool) "dearer stubs, more cycles" true
          (o2.Vm.cycles > o1.Vm.cycles));
    Alcotest.test_case "cache-hit re-entry goes through the cost model" `Quick
      (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash
            ~options:
              { Squash.default_options with Squash.theta = 1.0; k_bytes = 64 }
            p
        in
        let cheap = { Cost.default with Cost.decomp_cache_hit = 1 } in
        let dear = { Cost.default with Cost.decomp_cache_hit = 4000 } in
        let o1, s1 =
          Runtime.run ~cost:cheap ~fuel:50_000_000 r.Squash.squashed ~input:""
        in
        let o2, _ =
          Runtime.run ~cost:dear ~fuel:50_000_000 r.Squash.squashed ~input:""
        in
        Alcotest.(check int) "same behaviour" o1.Vm.exit_code o2.Vm.exit_code;
        Alcotest.(check bool) "hits occurred" true (s1.Runtime.cache_hits > 0);
        Alcotest.(check bool) "dearer hits, more cycles" true
          (o2.Vm.cycles > o1.Vm.cycles));
    Alcotest.test_case "launch validates the slot count" `Quick (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let r =
          squash ~options:{ Squash.default_options with Squash.theta = 1.0 } p
        in
        (match Runtime.run ~slots:0 r.Squash.squashed ~input:"" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "slots=0 must be rejected");
        match Runtime.run ~slots:10_000_000 r.Squash.squashed ~input:"" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "an overflowing slot count must be rejected");
    Alcotest.test_case "launch rejects text that overflows into the blob" `Quick
      (fun () ->
        let p, _ = Squeeze.run (compile fib_src) in
        let sq = (squash p).Squash.squashed in
        let words = Array.make (((Rewrite.blob_base - Layout.text_base) / 4) + 1) 0 in
        let sq = { sq with Rewrite.text = { sq.Rewrite.text with Easm.words } } in
        Alcotest.check_raises "overflow"
          (Invalid_argument "Runtime.launch: text overflows into blob") (fun () ->
            ignore (Runtime.launch sq ~input:"")));
    Alcotest.test_case "launch loads gsm at theta 1 word for word" `Slow (fun () ->
        (* The reference is the flat image launch used to build: the Easm
           text, a zero gap, then the offset table and the little-endian blob
           words at blob_base. *)
        let w = Option.get (Workloads.find "gsm") in
        let p, _ = Squeeze.run (Workload.compile w) in
        let profile, _ = Profile.collect p ~input:(Workload.profiling_input w) in
        let sq =
          (Squash.run ~options:{ Squash.default_options with Squash.theta = 1.0 } p
             profile)
            .Squash.squashed
        in
        let nregions = Array.length sq.Rewrite.images in
        Alcotest.(check bool) "has regions" true (nregions > 0);
        let text = sq.Rewrite.text.Easm.words in
        let blob_idx = (Rewrite.blob_base - Layout.text_base) / 4 in
        let flat =
          Array.make (blob_idx + nregions + ((String.length sq.Rewrite.blob + 3) / 4)) 0
        in
        Array.blit text 0 flat 0 (Array.length text);
        Array.iteri (fun i off -> flat.(blob_idx + i) <- off) sq.Rewrite.blob_offsets;
        String.iteri
          (fun i c ->
            let w = blob_idx + nregions + (i / 4) in
            flat.(w) <- flat.(w) lor (Char.code c lsl (8 * (i land 3))))
          sq.Rewrite.blob;
        let vm, _ = Runtime.launch sq ~input:"" in
        Array.iteri
          (fun i expected ->
            let a = Layout.text_base + (4 * i) in
            let got = Vm.load_word vm a in
            if got <> expected then
              Alcotest.failf "word at 0x%x: 0x%x, expected 0x%x" a got expected)
          flat);
  ]

(* Byte-identical behaviour for every slot count, across the real workload
   suite at two thresholds, under the default coder.  This is the
   functional-correctness half of the Fig. 7-style slots sweep. *)
let cache_correctness_tests =
  [
    Alcotest.test_case "every slot count is byte-identical on all workloads"
      `Slow (fun () ->
        let fuel = 2_000_000_000 in
        List.iter
          (fun (wl : Workload.t) ->
            let p, _ = Squeeze.run (Workload.compile wl) in
            let profile, _ =
              Profile.collect ~fuel p ~input:(Workload.profiling_input wl)
            in
            List.iter
              (fun theta ->
                let r =
                  Squash.run
                    ~options:{ Squash.default_options with Squash.theta } p
                    profile
                in
                let input = Workload.timing_input wl in
                let ref_outcome, ref_stats =
                  Runtime.run ~fuel ~slots:1 r.Squash.squashed ~input
                in
                List.iter
                  (fun slots ->
                    let outcome, stats =
                      Runtime.run ~fuel ~slots r.Squash.squashed ~input
                    in
                    let label fmt =
                      Printf.ksprintf
                        (fun s ->
                          Printf.sprintf "%s θ=%g slots=%d: %s"
                            wl.Workload.name theta slots s)
                        fmt
                    in
                    Alcotest.(check string)
                      (label "output") ref_outcome.Vm.output outcome.Vm.output;
                    Alcotest.(check int)
                      (label "exit") ref_outcome.Vm.exit_code
                      outcome.Vm.exit_code;
                    Alcotest.(check int)
                      (label "icount") ref_outcome.Vm.icount outcome.Vm.icount;
                    Alcotest.(check bool)
                      (label "no more decompressions than slots=1") true
                      (stats.Runtime.decompressions
                      <= ref_stats.Runtime.decompressions);
                    Alcotest.(check int)
                      (label "decompressor entries conserved")
                      (ref_stats.Runtime.decompressions
                      + ref_stats.Runtime.cache_hits)
                      (stats.Runtime.decompressions + stats.Runtime.cache_hits))
                  [ 2; 3; 5; 8 ])
              [ 1e-3; 0.01 ])
          Workloads.all);
  ]

let suite = [ ("runtime", unit_tests @ cache_correctness_tests) ]
