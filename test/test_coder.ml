(* The coder abstraction: every backend, and a hand-built model that moves
   every register stream to front, round-trips arbitrary regions
   byte-identically with sane work accounting and refuses truncated
   streams; every backend refuses reads past a region's end; and the
   context coder actually earns its keep on the workload suite. *)

open QCheck

let qcheck = QCheck_alcotest.to_alcotest

(* Region bodies must not contain the sentinel: it terminates decoding, so
   an interior one would legitimately truncate the stream. *)
let gen_body_instr =
  Gen.map
    (function Instr.Sentinel -> Instr.Nop | i -> i)
    Test_instr.gen_instr

let print_regions rs =
  String.concat " | "
    (List.map
       (fun r -> String.concat "; " (List.map Instr.to_string r))
       rs)

let arb_regions =
  QCheck.make ~print:print_regions
    Gen.(list_size (int_range 1 6) (list_size (int_range 0 40) gen_body_instr))

let arb_fat_region =
  QCheck.make ~print:(fun r -> print_regions [ r ])
    Gen.(list_size (int_range 24 60) gen_body_instr)

(* A coder under test encodes regions and returns a decoder of its blob:
   [encode regions = (blob, offsets, decode)], where [decode blob
   ~bit_offset ~bit_end] decodes one region. *)
let backend_coder backend regions =
  let codes = Compress.build_codes ~backend regions in
  let blob, offsets = Compress.encode_regions codes regions in
  (blob, offsets, fun blob ~bit_offset ~bit_end ->
     Compress.decode_region codes blob ~bit_offset ?bit_end ())

(* Neither builder ranks every stream: the context builder moves a register
   stream to front only where that measures cheaper.  This model ranks
   every register stream over the register file regardless, so
   {!Coder.Mtf_state}'s encode and decode run on every random region set
   whatever the builders choose.  {!Coder.decode_region} takes no
   [bit_end]; that check is {!Compress}'s. *)
let forced_mtf_coder regions =
  let alphabets =
    Array.map
      (fun s ->
        if Coder.stream_value_bits s = 5 then Array.init Reg.count Fun.id else [||])
      Coder.stream_of_index
  in
  let syms = Array.make Coder.stream_count [] in
  Coder.iter_symbols ~alphabets (fun si _ sym -> syms.(si) <- sym :: syms.(si)) regions;
  let code = function
    | [] -> None
    | s ->
      Some
        { Coder.default = Some (Canonical.of_freqs (Coder.freqs_of_values s));
          dedicated = [||] }
  in
  let model = { Coder.per_stream = Array.map code syms; alphabets } in
  let blob, offsets = Coder.encode_regions model regions in
  (blob, offsets, fun blob ~bit_offset ~bit_end:_ -> Coder.decode_region model blob ~bit_offset)

let backend_coders =
  List.map (fun (name, backend) -> (name, backend_coder backend)) Compress.coders

let round_trip_test (name, encode) =
  Test.make
    ~name:(Printf.sprintf "%s: regions round-trip with sane work" name)
    ~count:60 arb_regions (fun rs ->
      let regions = Array.of_list rs in
      let blob, offsets, decode = encode regions in
      Array.for_all2
        (fun original (instrs, work) ->
          List.equal Instr.equal instrs original
          && work.Coder.bits > 0
          && work.Coder.steps >= 0)
        regions
        (Array.mapi
           (fun i bit_offset ->
             let bit_end =
               if i + 1 < Array.length offsets then Some offsets.(i + 1) else None
             in
             decode blob ~bit_offset ~bit_end)
           offsets))

(* Truncating a stream mid-region must raise (the sentinel is gone and the
   bits run out), never hang or silently return the full region. *)
let truncation_test (name, encode) =
  Test.make
    ~name:(Printf.sprintf "%s: truncated streams raise" name)
    ~count:40 arb_fat_region (fun r ->
      let blob, offsets, decode = encode [| r |] in
      let cut = String.sub blob 0 (String.length blob / 2) in
      match decode cut ~bit_offset:offsets.(0) ~bit_end:(Some (8 * String.length cut)) with
      | exception Bitio.Corrupt_stream _ -> true
      | instrs, _ -> not (List.equal Instr.equal instrs r))

(* Region 0 of a two-region blob ends exactly at region 1's offset, so a
   [bit_end] one bit earlier must make the decode raise. *)
let bit_end_test (name, encode) =
  Test.make
    ~name:(Printf.sprintf "%s: reading past bit_end raises" name)
    ~count:40
    (QCheck.pair arb_fat_region arb_fat_region)
    (fun (r0, r1) ->
      let blob, offsets, decode = encode [| r0; r1 |] in
      match decode blob ~bit_offset:offsets.(0) ~bit_end:(Some (offsets.(1) - 1)) with
      | exception Bitio.Corrupt_stream _ -> true
      | _ -> false)

(* Corrupting a byte may still decode to *something* (Huffman codes are
   complete), but it must terminate: either a raise or some stream.  Under
   move-to-front a corrupt rank past the end of a recency list must raise
   [Corrupt_stream] too. *)
let corruption_test (name, encode) =
  Test.make
    ~name:(Printf.sprintf "%s: corrupt streams terminate" name)
    ~count:40 arb_fat_region (fun r ->
      let blob, offsets, decode = encode [| r |] in
      let b = Bytes.of_string blob in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x5A));
      match
        decode (Bytes.to_string b) ~bit_offset:offsets.(0)
          ~bit_end:(Some (8 * Bytes.length b))
      with
      | exception Bitio.Corrupt_stream _ -> true
      | _ -> true)

let property_tests =
  List.concat_map
    (fun c -> [ round_trip_test c; truncation_test c; bit_end_test c; corruption_test c ])
    backend_coders
  @ List.map
      (fun test -> test ("forced MTF", forced_mtf_coder))
      [ round_trip_test; truncation_test; corruption_test ]
  |> List.map (qcheck ~long:false)

(* --- the workload suite under the context coder --------------------- *)

let fuel = 500_000_000

let squash_with coder wl =
  let p, _ = Squeeze.run (Workload.compile wl) in
  let profile, _ = Profile.collect ~fuel p ~input:(Workload.profiling_input wl) in
  let options =
    { Squash.default_options with Squash.theta = 1.0; Squash.coder = coder }
  in
  Squash.run ~options p profile

let total_bits (r : Squash.result) =
  let sq = r.Squash.squashed in
  let streams =
    Array.map (fun img -> img.Rewrite.stream) sq.Rewrite.images
  in
  Compress.compressed_bits sq.Rewrite.codes streams
  + Compress.table_bits sq.Rewrite.codes

let workload_tests =
  [
    Alcotest.test_case "context coder is byte-identical and lint-clean on \
                        every workload"
      `Slow
      (fun () ->
        List.iter
          (fun wl ->
            let r = squash_with `Context wl in
            let sq = r.Squash.squashed in
            Alcotest.(check string)
              (wl.Workload.name ^ " coder") "context"
              (Compress.coder_name sq.Rewrite.codes);
            Array.iteri
              (fun rid (img : Rewrite.region_image) ->
                let offsets = sq.Rewrite.blob_offsets in
                let bit_end =
                  if rid + 1 < Array.length offsets then Some offsets.(rid + 1)
                  else None
                in
                let instrs, work =
                  Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
                    ~bit_offset:offsets.(rid) ?bit_end ()
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s region %d stream" wl.Workload.name rid)
                  true
                  (List.equal Instr.equal instrs img.Rewrite.stream);
                Alcotest.(check bool)
                  (Printf.sprintf "%s region %d work" wl.Workload.name rid)
                  true
                  (work.Compress.bits > 0 && work.Compress.steps >= 0))
              sq.Rewrite.images;
            let errs = Verify.errors (Verify.run sq) in
            Alcotest.(check int)
              (wl.Workload.name ^ " lint errors")
              0 (List.length errs))
          Workloads.all);
    Alcotest.test_case "context coder beats huffman on a majority of workloads"
      `Slow
      (fun () ->
        let wins, total =
          List.fold_left
            (fun (wins, total) wl ->
              let ctx = total_bits (squash_with `Context wl) in
              let huf = total_bits (squash_with `Split_stream wl) in
              ((if ctx < huf then wins + 1 else wins), total + 1))
            (0, 0) Workloads.all
        in
        Alcotest.(check bool)
          (Printf.sprintf "context wins %d/%d" wins total)
          true
          (2 * wins > total));
  ]

(* --- golden output ----------------------------------------------------- *)

(* The round-trip properties accept any self-consistent format; these
   digests pin the bytes themselves.  Each covers one squash's blob, region
   offsets, table footprint and per-stream bits, so a change to any
   coder's model, walk order or accounting shows up here. *)
let golden =
  [
    ("gsm", 0.01, "huffman", "6f372c45fe48b4df7b475ea4c17b5f3f");
    ("gsm", 0.01, "context", "83d41bcb3e34526a7a6f3af278f178ea");
    ("gsm", 1.0, "huffman", "69ec58f3aba05b0d068d3db62d72017a");
    ("gsm", 1.0, "context", "84e45ba1a1ed7e6e1b88c00c268d3aa4");
    ("adpcm", 0.01, "huffman", "4379e0938ea33c58dcc245318727a55d");
    ("adpcm", 0.01, "context", "6a8a94c6dacc52c3a8a179de3920ad6f");
    ("adpcm", 1.0, "huffman", "cdc214739f817d56aca7b98b919ca3d6");
    ("adpcm", 1.0, "context", "befabd0f7e752acdcee33d25b6121e27");
  ]

let output_digest name theta coder =
  let p = Exp_data.prepare (Option.get (Workloads.find name)) in
  let options =
    { Squash.default_options with
      Squash.theta;
      coder = List.assoc coder Compress.coders }
  in
  let sq =
    (Exp_data.squash_with_profile p options p.Exp_data.profile).Squash.squashed
  in
  let streams =
    Array.map (fun (img : Rewrite.region_image) -> img.Rewrite.stream)
      sq.Rewrite.images
  in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  [
    string_of_int (String.length sq.Rewrite.blob);
    sq.Rewrite.blob;
    ints sq.Rewrite.blob_offsets;
    string_of_int (Compress.table_bits sq.Rewrite.codes);
    String.concat ","
      (List.map
         (fun (s, b) -> Printf.sprintf "%s=%d" s b)
         (Compress.stream_bits sq.Rewrite.codes streams));
  ]
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let golden_tests =
  [
    Alcotest.test_case "every coder's output matches its golden digest" `Quick
      (fun () ->
        List.iter
          (fun (name, theta, coder, digest) ->
            Alcotest.(check string)
              (Printf.sprintf "%s theta=%g %s" name theta coder)
              digest (output_digest name theta coder))
          golden);
  ]

let suite = [ ("coder", property_tests @ workload_tests @ golden_tests) ]
