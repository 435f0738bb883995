(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) and runs bechamel
   microbenchmarks of the runtime-critical primitives.

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- T1 F6         # selected experiments
     dune exec bench/main.exe -- micro         # microbenchmarks only
     dune exec bench/main.exe -- --json FILE   # also write machine-readable
                                               # wall-clock + key metrics
     dune exec bench/main.exe -- --jobs N      # engine pool size (default:
                                               # $JOBS, then domain count)
     dune exec bench/main.exe -- --repeat N    # time each experiment N times,
                                               # each from scratch (for
                                               # benchdiff significance)
     dune exec bench/main.exe -- --no-ledger   # skip the _bench/history.jsonl
                                               # run-ledger append           *)

let hr title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '#')
    (Printf.sprintf "## %s" title)
    (String.make 78 '#')

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (bechamel): the primitives whose speed the paper's
   design section worries about — the canonical-Huffman DECODE loop, a
   whole-region decompression, and the simulator's dispatch rate. *)

let micro_tests () =
  let open Bechamel in
  (* A canonical code over a realistic opcode-like distribution. *)
  let freqs = List.init 48 (fun i -> (i, 1 + ((48 - i) * (48 - i)))) in
  let code = Canonical.of_freqs freqs in
  let symbols = List.init 512 (fun i -> i * 7 mod 48) in
  let encoded =
    let w = Bitio.Writer.create () in
    List.iter (Canonical.encode code w) symbols;
    Bitio.Writer.contents w
  in
  let decode_512 () =
    let r = Bitio.Reader.of_string encoded in
    for _ = 1 to 512 do
      ignore (Canonical.decode code r)
    done
  in
  (* The pre-table decoder (one bit per loop iteration), kept as the
     slow-path fallback — benched against the table-driven decode above. *)
  let decode_bitloop_512 () =
    let r = Bitio.Reader.of_string encoded in
    for _ = 1 to 512 do
      ignore (Canonical.decode_bitloop code r)
    done
  in
  (* A squashed workload for decompression and end-to-end timing. *)
  let prepared = Exp_data.prepare (List.hd Workloads.all) in
  let result =
    Exp_data.squash_result prepared
      { Squash.default_options with Squash.theta = 1.0 }
  in
  let sq = result.Squash.squashed in
  let biggest =
    Array.fold_left
      (fun best (img : Rewrite.region_image) ->
        match best with
        | Some (b : Rewrite.region_image) when b.Rewrite.buffer_words >= img.Rewrite.buffer_words ->
          best
        | _ -> Some img)
      None sq.Rewrite.images
    |> Option.get
  in
  let decompress_region () =
    ignore
      (Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
         ~bit_offset:sq.Rewrite.blob_offsets.(biggest.Rewrite.rid) ())
  in
  let huffman_build () = ignore (Canonical.of_freqs freqs) in
  [
    Test.make ~name:"canonical-decode-512sym" (Staged.stage decode_512);
    Test.make ~name:"canonical-bitloop-512sym" (Staged.stage decode_bitloop_512);
    Test.make ~name:"canonical-build-48sym" (Staged.stage huffman_build);
    Test.make
      ~name:(Printf.sprintf "decompress-region-%dw" biggest.Rewrite.buffer_words)
      (Staged.stage decompress_region);
  ]

(* The simulator's steady-state dispatch rate, measured over one long run
   so that it times instruction dispatch, not VM creation. *)
let vm_throughput () =
  let vm_prog =
    Minic.compile_exn
      "int main() { int i; int s; s = 0; for (i = 0; i < 2000000; i = i + 1) s = (s + i) ^ (s >> 3); return s & 255; }"
  in
  let vm_img = Layout.emit vm_prog in
  let vm = Vm.of_image ~fuel:100_000_000 vm_img ~input:"" in
  let outcome, cost = Obs.measure (fun () -> Vm.run vm) in
  let dt = cost.Obs.elapsed_s in
  let rate = float_of_int outcome.Vm.icount /. dt /. 1e6 in
  Experiments.record_metric "vm_minstr_per_s" (Report.Json.Float rate);
  Printf.sprintf "%-40s %8.1f M instr/s (%d instructions in %.2fs)\n"
    "vm dispatch rate" rate outcome.Vm.icount dt

(* Bechamel's OLS estimate of each test's time per run, printed and
   recorded as the [ns_per_run] metric. *)
let run_micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s/%s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Some est
          | Some [] | None -> None
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Experiments.record_metric "ns_per_run"
    (Report.Json.Obj
       (List.map
          (fun (name, est) ->
            ( name,
              match est with
              | Some ns -> Report.Json.Float ns
              | None -> Report.Json.Null ))
          rows));
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-40s %s\n" "benchmark" "time per run";
  Printf.bprintf b "%s\n" (String.make 64 '-');
  List.iter
    (fun (name, est) ->
      Printf.bprintf b "%-40s %s\n" name
        (match est with
        | Some ns -> Printf.sprintf "%12.1f ns" ns
        | None -> "           n/a"))
    rows;
  Buffer.add_string b (vm_throughput ());
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref None in
  let repeat = ref 1 and no_ledger = ref false in
  let json = ref None in
  let rec split_json acc = function
    | "--json" :: file :: rest ->
      json := Some file;
      split_json acc rest
    | "--json" :: [] ->
      prerr_endline "--json requires a file argument";
      exit 1
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := Some j;
        split_json acc rest
      | Some _ | None ->
        prerr_endline "--jobs requires a positive integer";
        exit 1)
    | "--jobs" :: [] ->
      prerr_endline "--jobs requires a positive integer";
      exit 1
    | "--repeat" :: n :: rest -> (
      match int_of_string_opt n with
      | Some r when r >= 1 ->
        repeat := r;
        split_json acc rest
      | Some _ | None ->
        prerr_endline "--repeat requires a positive integer";
        exit 1)
    | "--repeat" :: [] ->
      prerr_endline "--repeat requires a positive integer";
      exit 1
    | "--no-ledger" :: rest ->
      no_ledger := true;
      split_json acc rest
    | a :: rest -> split_json (a :: acc) rest
    | [] -> List.rev acc
  in
  let ids = split_json [] args in
  let json_file = !json in
  Exp_grid.set_jobs !jobs;
  Printf.printf "engine: %d jobs\n%!" (Exp_grid.jobs ());
  let requested =
    match ids with
    | _ :: _ -> ids
    | [] -> List.map fst Experiments.all @ [ "micro" ]
  in
  let t0 = Obs.Clock.now () in
  (* The workloads' inputs are generated lazily and never reset, so they
     are forced here, outside every timed sample. *)
  List.iter
    (fun wl ->
      ignore
        ( Workload.profiling_input wl,
          Workload.timing_input wl,
          Workload.drift_input wl ))
    Workloads.all;
  let setup = Obs.Clock.now () -. t0 in
  Printf.printf "setup: workload inputs in %.2fs\n%!" setup;
  let unknown = ref [] in
  let recorded = ref [] in
  let samples_by_id = ref [] in
  (* Every sample recomputes from scratch ({!Experiments.sample}); only
     the first one's report is printed and its metrics recorded. *)
  let run id f =
    let s = Experiments.sample ~repeat:!repeat f in
    print_string s.Experiments.report;
    let samples = s.Experiments.seconds in
    samples_by_id := (id, samples) :: !samples_by_id;
    recorded :=
      Report.Json.Obj
        [ ("id", Report.Json.String id);
          ("seconds", Report.Json.Float (Report.Stats.mean samples));
          ( "samples",
            Report.Json.List
              (List.map (fun s -> Report.Json.Float s) samples) );
          ("metrics", Report.Json.Obj s.Experiments.metrics) ]
      :: !recorded
  in
  List.iter
    (fun id ->
      match List.assoc_opt id Experiments.all with
      | Some f ->
        hr id;
        run id f;
        Printf.printf "[%s done at %.1fs]\n%!" id (Obs.Clock.now () -. t0)
      | None ->
        if id = "micro" then begin
          hr "micro (bechamel)";
          run id run_micro
        end
        else unknown := id :: !unknown)
    requested;
  let total = Obs.Clock.now () -. t0 in
  Printf.printf "\ntotal time: %.1fs\n" total;
  (* A representative runtime-stats sample (first workload, θ=0.01),
     served from the memo when the last experiment built it.  Its scalar counters are
     deterministic at a fixed revision, which is what lets benchdiff
     treat any drift in them as a behaviour change. *)
  let runtime_sample =
    let wl = List.hd Workloads.all in
    let p = Exp_data.prepare wl in
    let r =
      Exp_data.squash_result p
        { Squash.default_options with Squash.theta = 0.01 }
    in
    let _, stats = Exp_data.timing_run p r in
    Report.Json.Obj
      [ ("workload", Report.Json.String wl.Workload.name);
        ("theta", Report.Json.Float 0.01);
        ("stats", Runtime.stats_to_json stats) ]
  in
  let provenance =
    [ ("schema", Report.Json.String "pgcc-bench-v2");
      ("timestamp", Report.Json.String (Ledger.timestamp ()));
      ( "rev",
        match Ledger.git_rev () with
        | Some r -> Report.Json.String r
        | None -> Report.Json.Null );
      ("jobs", Report.Json.Int (Exp_grid.jobs ()));
      ("repeat", Report.Json.Int !repeat);
      ("setup_seconds", Report.Json.Float setup);
      ("total_seconds", Report.Json.Float total) ]
  in
  (match json_file with
  | None -> ()
  | Some file ->
    let doc =
      Report.Json.Obj
        (provenance
        @ [ ("experiments", Report.Json.List (List.rev !recorded));
            ("runtime_sample", runtime_sample) ])
    in
    let oc = open_out file in
    output_string oc (Report.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" file);
  (if not !no_ledger then
     (* The history line keeps only what benchdiff consumes — provenance,
        samples and the deterministic counters — so years of runs stay a
        few kilobytes. *)
     let slim =
       List.rev_map
         (fun (id, samples) ->
           Report.Json.Obj
             [ ("id", Report.Json.String id);
               ("seconds", Report.Json.Float (Report.Stats.mean samples));
               ( "samples",
                 Report.Json.List
                   (List.map (fun s -> Report.Json.Float s) samples) ) ])
         !samples_by_id
     in
     let entry =
       Report.Json.Obj
         (provenance
         @ [ ("experiments", Report.Json.List slim);
             ("runtime_sample", runtime_sample) ])
     in
     match Ledger.append entry with
     | Ok path -> Printf.printf "ledger: appended to %s\n" path
     | Error msg -> Printf.eprintf "ledger: append failed: %s\n" msg);
  match List.rev !unknown with
  | [] -> ()
  | ids ->
    Printf.eprintf "unknown experiment%s: %s\nvalid ids: %s micro\n"
      (if List.length ids > 1 then "s" else "")
      (String.concat ", " ids)
      (String.concat " " (List.map fst Experiments.all));
    exit 1
