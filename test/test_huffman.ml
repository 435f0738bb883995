(* Huffman construction, canonical codes, and move-to-front. *)

let qcheck = QCheck_alcotest.to_alcotest

let arb_freqs =
  (* Distinct symbols with positive counts. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60) (pair (int_bound 1000) (int_range 1 500))
      |> map (fun l ->
             let tbl = Hashtbl.create 16 in
             List.iter
               (fun (s, c) ->
                 Hashtbl.replace tbl s (c + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
               l;
             Hashtbl.fold (fun s c acc -> (s, c) :: acc) tbl []
             |> List.sort compare))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (s, c) -> Printf.sprintf "%d*%d" s c) l))
    gen

let arb_symbol_seq =
  (* A non-empty sequence over a small alphabet, plus the frequency table. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 500) (int_bound 40) |> map (fun syms -> syms))
  in
  QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen

let freqs_of_seq syms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
    syms;
  Hashtbl.fold (fun s c acc -> (s, c) :: acc) tbl [] |> List.sort compare

let unit_tests =
  [
    Alcotest.test_case "single symbol gets a 1-bit code" `Quick (fun () ->
        Alcotest.(check (list (pair int int)))
          "lengths"
          [ (7, 1) ]
          (Huffman.code_lengths [ (7, 100) ]));
    Alcotest.test_case "empty input" `Quick (fun () ->
        Alcotest.(check (list (pair int int))) "lengths" [] (Huffman.code_lengths []));
    Alcotest.test_case "paper's canonical example" `Quick (fun () ->
        (* N[2] = 3, N[3] = 1, N[5] = 4: codewords 00 01 10 110 11100..11111. *)
        let lengths =
          [ (0, 2); (1, 2); (2, 2); (3, 3); (4, 5); (5, 5); (6, 5); (7, 5) ]
        in
        let c = Canonical.of_lengths lengths in
        let expect =
          [
            (0, (0b00, 2)); (1, (0b01, 2)); (2, (0b10, 2)); (3, (0b110, 3));
            (4, (0b11100, 5)); (5, (0b11101, 5)); (6, (0b11110, 5)); (7, (0b11111, 5));
          ]
        in
        List.iter
          (fun (s, (code, len)) ->
            match Canonical.codeword c s with
            | Some (code', len') ->
              Alcotest.(check (pair int int))
                (Printf.sprintf "symbol %d" s)
                (code, len) (code', len')
            | None -> Alcotest.failf "symbol %d missing" s)
          expect);
    Alcotest.test_case "decode counts loop iterations = codeword length" `Quick
      (fun () ->
        let c = Canonical.of_freqs [ (1, 10); (2, 3); (3, 1); (4, 1) ] in
        let w = Bitio.Writer.create () in
        List.iter (Canonical.encode c w) [ 1; 4; 2; 3 ];
        let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
        List.iter
          (fun s ->
            let s', bits, probes = Canonical.decode c r in
            Alcotest.(check int) "symbol" s s';
            let _, len = Option.get (Canonical.codeword c s) in
            Alcotest.(check int) "bits" len bits;
            Alcotest.(check bool) "probes >= 1" true (probes >= 1))
          [ 1; 4; 2; 3 ]);
    Alcotest.test_case "corrupt stream fails instead of looping" `Quick (fun () ->
        (* A code where "11" is no codeword prefix extension: alphabet {a} only. *)
        let c = Canonical.of_freqs [ (0, 5) ] in
        let r = Bitio.Reader.of_string "\xFF" in
        match Canonical.decode c r with
        | exception Bitio.Corrupt_stream _ -> ()
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "over-full length multiset is rejected" `Quick (fun () ->
        (* Three 1-bit codes cannot coexist: Kraft sum 3/2 > 1. *)
        match Canonical.of_lengths [ (0, 1); (1, 1); (2, 1) ] with
        | exception Canonical.Invalid_code _ -> ()
        | _ -> Alcotest.fail "expected Invalid_code");
    Alcotest.test_case "out-of-range length is rejected" `Quick (fun () ->
        match Canonical.of_lengths [ (0, 0) ] with
        | exception Canonical.Invalid_code _ -> ()
        | _ -> Alcotest.fail "expected Invalid_code");
    Alcotest.test_case "under-full single-symbol code is legal" `Quick (fun () ->
        let c = Canonical.of_lengths [ (9, 1) ] in
        Alcotest.(check (option (pair int int)))
          "codeword" (Some (0, 1)) (Canonical.codeword c 9));
    Alcotest.test_case "truncated stream terminates with Corrupt_stream" `Quick
      (fun () ->
        let c = Canonical.of_freqs [ (0, 1); (1, 1); (2, 1); (3, 1) ] in
        let w = Bitio.Writer.create () in
        List.iter (Canonical.encode c w) [ 0; 1; 2; 3 ];
        let full = Bitio.Writer.contents w in
        let r = Bitio.Reader.of_string (String.sub full 0 0) in
        (match Canonical.decode c r with
        | exception Bitio.Corrupt_stream _ -> ()
        | _ -> Alcotest.fail "expected Corrupt_stream on empty stream");
        (* Drain a full byte's worth of symbols then hit the end. *)
        let r = Bitio.Reader.of_string (String.sub full 0 1) in
        let rec drain () =
          match Canonical.decode c r with
          | _ -> drain ()
          | exception Bitio.Corrupt_stream _ -> ()
        in
        drain ());
    Alcotest.test_case "mtf known example" `Quick (fun () ->
        let state = Coder.Mtf_state.create [| [| 0; 1; 2; 3 |] |] in
        let ranks = List.map (Coder.Mtf_state.rank_of state 0) [ 2; 2; 0; 1; 1 ] in
        Alcotest.(check (list int)) "ranks" [ 2; 0; 1; 2; 0 ] ranks);
  ]

let kraft_ok lengths =
  (* sum 2^-l <= 1, scaled to avoid floats: use 64-bit with max len <= 60. *)
  let maxlen = List.fold_left (fun acc (_, l) -> max acc l) 0 lengths in
  let total =
    List.fold_left (fun acc (_, l) -> acc + (1 lsl (maxlen - l))) 0 lengths
  in
  total <= 1 lsl maxlen

let prop_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"lengths satisfy Kraft" ~count:300 arb_freqs
         (fun freqs -> kraft_ok (Huffman.code_lengths freqs)));
    qcheck
      (QCheck.Test.make ~name:"total bits within entropy+1 per symbol" ~count:300
         arb_freqs (fun freqs ->
           let n = List.fold_left (fun acc (_, c) -> acc + c) 0 freqs in
           let bits = Huffman.total_encoded_bits freqs in
           let h = Huffman.entropy_bits freqs in
           float_of_int bits >= (h *. float_of_int n) -. 1e-6
           && float_of_int bits <= ((h +. 1.0) *. float_of_int n) +. 1e-6));
    qcheck
      (QCheck.Test.make ~name:"canonical encode/decode roundtrip" ~count:300
         arb_symbol_seq (fun syms ->
           let c = Canonical.of_freqs (freqs_of_seq syms) in
           let w = Bitio.Writer.create () in
           List.iter (Canonical.encode c w) syms;
           let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
           List.for_all
             (fun s ->
               let s', _, _ = Canonical.decode c r in
               s' = s)
             syms));
    qcheck
      (QCheck.Test.make ~name:"canonical codewords are prefix-free" ~count:200
         arb_freqs (fun freqs ->
           let c = Canonical.of_freqs freqs in
           let words =
             List.filter_map
               (fun (s, _) -> Canonical.codeword c s)
               freqs
           in
           let prefix (c1, l1) (c2, l2) =
             l1 <= l2 && c2 lsr (l2 - l1) = c1
           in
           List.for_all
             (fun w1 ->
               List.for_all (fun w2 -> w1 = w2 || not (prefix w1 w2)) words)
             words));
    qcheck
      (QCheck.Test.make ~name:"mtf roundtrip" ~count:300 arb_symbol_seq
         (fun syms ->
           let alphabets = [| Array.of_list (List.sort_uniq compare syms) |] in
           let enc = Coder.Mtf_state.create alphabets in
           let dec = Coder.Mtf_state.create alphabets in
           let ranks = List.map (Coder.Mtf_state.rank_of enc 0) syms in
           List.map (Coder.Mtf_state.value_at dec 0) ranks = syms));
    qcheck
      (QCheck.Test.make ~name:"decode consumes exactly the encoded bits" ~count:200
         arb_symbol_seq (fun syms ->
           let c = Canonical.of_freqs (freqs_of_seq syms) in
           let w = Bitio.Writer.create () in
           List.iter (Canonical.encode c w) syms;
           let total = Bitio.Writer.length_bits w in
           let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
           let consumed =
             List.fold_left
               (fun acc _ ->
                 let _, bits, _ = Canonical.decode c r in
                 acc + bits)
               0 syms
           in
           consumed = total));
    qcheck
      (QCheck.Test.make
         ~name:"table decode == bit-loop decode (symbols, positions, work)"
         ~count:300 arb_symbol_seq (fun syms ->
           let c = Canonical.of_freqs (freqs_of_seq syms) in
           let w = Bitio.Writer.create () in
           List.iter (Canonical.encode c w) syms;
           let data = Bitio.Writer.contents w in
           let rt = Bitio.Reader.of_string data in
           let rb = Bitio.Reader.of_string data in
           List.for_all
             (fun _ ->
               let st, bt, probes = Canonical.decode c rt in
               let sb, bb = Canonical.decode_bitloop c rb in
               st = sb && bt = bb
               && Bitio.Reader.pos rt = Bitio.Reader.pos rb
               && probes >= 1
               && probes <= 1 + bt)
             syms));
    qcheck
      (QCheck.Test.make ~name:"Kraft-violating length multisets are rejected"
         ~count:300 arb_freqs (fun freqs ->
           (* Take a valid assignment and shorten one codeword of length >= 2:
              the result always over-fills the Kraft budget. *)
           let lengths = Huffman.code_lengths freqs in
           match
             List.partition (fun (_, l) -> l >= 2) lengths
           with
           | [], _ -> QCheck.assume_fail ()
           | (s, l) :: rest, short ->
             let bad = ((s, l - 1) :: rest) @ short in
             (match Canonical.of_lengths bad with
             | exception Canonical.Invalid_code _ -> true
             | _ -> false)));
  ]

let suite = [ ("huffman", unit_tests @ prop_tests) ]
