(* squashc: the command-line front end to the whole pipeline.

     squashc compile prog.mc -o prog.s        MiniC -> SQ32 assembly
     squashc run prog.mc --input-file in.bin  execute on the simulator
     squashc profile prog.mc ... -o p.prof    collect a basic-block profile
                                              (repeat --input/--input-file to
                                              merge several training runs)
     squashc profdiff a.prof b.prof           distance between two profiles
     squashc squash prog.mc --profile p.prof --theta 0.001 --verify
                                              compress; report sizes; run the
                                              image against the original
                                              (--trace t.json records it)
     squashc attrib gsm --theta 0.01          per-region runtime overhead
     squashc stats prog.mc                    static code statistics
     squashc grid gsm pgp --jobs 4            workload x theta x K sweep on
                                              the parallel engine (JSON/CSV)
     squashc benchdiff a.json b.json          compare two bench runs
     squashc tracediff a.json b.jsonl         compare the spans of two traces
     squashc lint --theta 0.0,0.01            static image verifier
     squashc prove --slots 1,4                symbolic equivalence prover
     squashc workloads                        list the built-in benchmarks

   Programs may be MiniC (.mc) or SQ32 assembly (anything else); the name of
   a built-in workload (e.g. "gsm") may be used instead of a file, in which
   case its built-in profiling/timing inputs are the defaults. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  match open_out_bin path with
  | oc ->
    output_string oc contents;
    close_out oc
  | exception Sys_error msg ->
    prerr_endline ("squashc: cannot write " ^ msg);
    exit 1

let write_json path doc = write_file path (Report.Json.to_string doc ^ "\n")

(* The file name picks the format: [.jsonl] is one event per line, any
   other name gets Chrome trace-event JSON. *)
let write_trace path tr =
  if Filename.check_suffix path ".jsonl" then
    write_file path (Obs.Trace.to_jsonl tr)
  else write_json path (Obs.Trace.to_chrome tr);
  let per_shard =
    Array.to_list (Obs.Trace.shard_stats tr)
    |> List.mapi (fun sid (e, d) -> Printf.sprintf "%d:%d/%d" sid e d)
  in
  Printf.printf "trace: %d events (%d dropped) on %d shards [%s] -> %s\n"
    (Obs.Trace.emitted tr) (Obs.Trace.dropped tr) (Obs.Trace.shard_count tr)
    (String.concat " " per_shard)
    path

(* Resolve a program argument: workload name, MiniC file, or assembly file. *)
let load_program arg =
  match Workloads.find arg with
  | Some wl -> Ok (Workload.compile wl, Some wl)
  | None ->
    if not (Sys.file_exists arg) then
      Error (Printf.sprintf "no such file or workload: %s" arg)
    else begin
      let text = read_file arg in
      if Filename.check_suffix arg ".mc" then
        match Minic.compile text with
        | Ok p -> Ok (p, None)
        | Error e ->
          Error (Printf.sprintf "%s:%s" arg (Minic.error_to_string e))
      else
        match Asm.parse_program text with
        | Ok p -> Ok (p, None)
        | Error e -> Error (Printf.sprintf "%s: %s" arg e)
    end

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("squashc: " ^ msg);
    exit 2

let prog_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROG" ~doc:"MiniC file (.mc), SQ32 assembly file, or built-in workload name.")

let input_args =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "input-file" ] ~docv:"FILE" ~doc:"Input byte stream for the program.")
  in
  let text =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"TEXT" ~doc:"Literal input text for the program.")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing-input" ]
          ~doc:"For a built-in workload: use its timing input (default is the profiling input).")
  in
  Term.(
    const (fun file text timing -> (file, text, timing)) $ file $ text $ timing)

let resolve_input (file, text, timing) wl =
  match (file, text, wl) with
  | Some path, _, _ -> read_file path
  | None, Some t, _ -> t
  | None, None, Some wl ->
    if timing then Workload.timing_input wl else Workload.profiling_input wl
  | None, None, None -> ""

let squeeze_flag =
  Arg.(
    value & flag
    & info [ "no-squeeze" ] ~doc:"Skip the squeeze compaction pass.")

let prepare prog_name no_squeeze =
  let prog, wl = or_die (load_program prog_name) in
  let prog = if no_squeeze then prog else fst (Squeeze.run prog) in
  (prog, wl)

let cache_slots_arg =
  Arg.(
    value & opt int 1
    & info [ "cache-slots" ] ~docv:"N"
        ~doc:"Number of decompressed-region cache slots the runtime keeps \
              resident (default 1; each extra slot costs one buffer's worth \
              of RAM and saves re-inflations).")

let k_bytes_arg =
  Arg.(
    value & opt int 512
    & info [ "k" ] ~docv:"BYTES" ~doc:"Runtime buffer size bound.")

let coder_arg =
  Arg.(
    value
    & opt (enum Compress.coders) `Split_stream
    & info [ "coder" ] ~docv:"CODER"
        ~doc:
          (Printf.sprintf
             "Compression backend: %s (split-stream canonical Huffman, the \
              paper's scheme; its move-to-front variant; order-1 \
              context-modeled split streams)."
             (doc_alts_enum Compress.coders)))

let workloads_arg verb =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"WORKLOAD"
        ~doc:(Printf.sprintf "Built-in workloads to %s (default: all)." verb))

(* The named built-in workloads; none names all of them. *)
let find_workloads = function
  | [] -> Workloads.all
  | names ->
    List.map
      (fun n ->
        or_die
          (Option.to_result
             ~none:("no such workload: " ^ n ^ " (see squashc workloads)")
             (Workloads.find n)))
      names

(* --- compile -------------------------------------------------------- *)

let compile_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the assembly here (default stdout).")
  in
  let run prog_name no_squeeze out =
    let prog, _ = prepare prog_name no_squeeze in
    let text = Format.asprintf "%a" Asm.pp_program prog in
    match out with None -> print_string text | Some path -> write_file path text
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC to SQ32 assembly (squeezed by default).")
    Term.(const run $ prog_arg $ squeeze_flag $ out)

(* --- run ------------------------------------------------------------ *)

let run_cmd =
  let fuel =
    Arg.(
      value & opt int 2_000_000_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget before aborting.")
  in
  let run prog_name no_squeeze inputs fuel =
    let prog, wl = prepare prog_name no_squeeze in
    let input = resolve_input inputs wl in
    let outcome = Vm.run (Vm.of_image ~fuel (Layout.emit prog) ~input) in
    print_string outcome.Vm.output;
    Printf.eprintf "[exit %d, %d instructions, %d cycles]\n"
      outcome.Vm.exit_code outcome.Vm.icount outcome.Vm.cycles;
    exit outcome.Vm.exit_code
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program on the SQ32 simulator.")
    Term.(const run $ prog_arg $ squeeze_flag $ input_args $ fuel)

(* --- profile --------------------------------------------------------- *)

let profile_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the profile here (default stdout).")
  in
  (* Unlike the other commands, profiling accepts repeated inputs: one
     profile is collected per training input and the results are merged
     (pointwise sum), the paper's multi-input training setup. *)
  let input_files =
    Arg.(
      value & opt_all string []
      & info [ "input-file" ] ~docv:"FILE"
          ~doc:"Input byte stream for a training run (repeatable; profiles \
                from all inputs are merged).")
  in
  let input_texts =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"TEXT"
          ~doc:"Literal input text for a training run (repeatable).")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing-input" ]
          ~doc:"For a built-in workload: use its timing input (default is \
                the profiling input).")
  in
  let sample_period =
    Arg.(
      value & opt int 0
      & info [ "sample-period" ] ~docv:"N"
          ~doc:"Collect a sampled profile: record about one in $(docv) \
                executed instructions and scale the estimate up (0, the \
                default, collects exact counts; 1 is exact via the sampler).")
  in
  let sample_seed =
    Arg.(
      value & opt int 1
      & info [ "sample-seed" ] ~docv:"S"
          ~doc:"Seed for the sampler's stride jitter; a fixed seed makes \
                sampled profiles byte-reproducible.")
  in
  let merge_files =
    Arg.(
      value & opt_all string []
      & info [ "merge" ] ~docv:"FILE"
          ~doc:"Merge a previously collected profile into the result \
                (repeatable), weighted by $(b,--merge-weight).")
  in
  let merge_weight =
    Arg.(
      value & opt float 1.0
      & info [ "merge-weight" ] ~docv:"W"
          ~doc:"Weight applied to each $(b,--merge) profile's counts.")
  in
  let decay_arg =
    Arg.(
      value & opt (some float) None
      & info [ "decay" ] ~docv:"F"
          ~doc:"Exponential aging factor in [0,1].  With $(b,--merge), it \
                ages each merged-in (old) profile before merging; without, \
                it ages the collected profile itself.")
  in
  let truncate_arg =
    Arg.(
      value & opt (some int) None
      & info [ "truncate" ] ~docv:"K"
          ~doc:"Keep only the $(docv) heaviest blocks of the final profile.")
  in
  let run prog_name no_squeeze input_files input_texts timing sample_period
      sample_seed merge_files merge_weight decay_arg truncate_arg out =
    let prog, wl = prepare prog_name no_squeeze in
    let inputs =
      match (List.map read_file input_files @ input_texts, wl) with
      | (_ :: _ as inputs), _ -> inputs
      | [], Some wl ->
        [ (if timing then Workload.timing_input wl
           else Workload.profiling_input wl) ]
      | [], None -> [ "" ]
    in
    let collect input =
      if sample_period > 0 then
        Profile.collect_sampled ~period:sample_period ~seed:sample_seed prog
          ~input
      else Profile.collect prog ~input
    in
    let profile =
      List.fold_left
        (fun acc input ->
          let profile, outcome = collect input in
          Printf.eprintf "[exit %d, %d instructions profiled]\n"
            outcome.Vm.exit_code outcome.Vm.icount;
          match acc with
          | None -> Some profile
          | Some acc -> Some (Profile.merge acc profile))
        None inputs
      |> Option.get
    in
    if List.length inputs > 1 then
      Format.eprintf "[merged %d training runs: %a]@." (List.length inputs)
        Profile.pp_summary profile;
    (* Lifecycle post-processing: age and fold in old profiles, then
       truncate — the order a production pipeline applies them. *)
    let old_profiles =
      List.map (fun path -> or_die (Profile.of_string (read_file path))) merge_files
    in
    let profile =
      match (old_profiles, decay_arg) with
      | [], None -> profile
      | [], Some f -> Profile_ops.decay profile ~factor:f
      | olds, _ ->
        List.fold_left
          (fun acc old ->
            let old =
              match decay_arg with
              | None -> old
              | Some f -> Profile_ops.decay old ~factor:f
            in
            Profile_ops.merge ~w:merge_weight acc old)
          profile olds
    in
    let profile =
      match truncate_arg with
      | None -> profile
      | Some keep -> Profile_ops.truncate_top profile ~keep
    in
    let text = Profile.to_string profile in
    match out with None -> print_string text | Some path -> write_file path text
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Collect a basic-block execution profile (merging the runs of \
             every given input), exactly or via periodic sampling, \
             optionally folding in and aging previously saved profiles.")
    Term.(
      const run $ prog_arg $ squeeze_flag $ input_files $ input_texts $ timing
      $ sample_period $ sample_seed $ merge_files $ merge_weight $ decay_arg
      $ truncate_arg $ out)

(* --- profdiff --------------------------------------------------------- *)

let profdiff_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A.prof" ~doc:"First profile file.")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B.prof" ~doc:"Second profile file.")
  in
  let max_distance =
    Arg.(
      value & opt (some float) None
      & info [ "max-distance" ] ~docv:"X"
          ~doc:"Exit with status 1 if the distance exceeds $(docv) (for CI \
                bounds).")
  in
  let movers =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Show the $(docv) blocks whose weight share moved the most.")
  in
  let run a_path b_path max_distance movers =
    let a = or_die (Profile.of_string (read_file a_path)) in
    let b = or_die (Profile.of_string (read_file b_path)) in
    let d = Profile_ops.distance a b in
    Format.printf "a: %a@.b: %a@." Profile.pp_summary a Profile.pp_summary b;
    Printf.printf "distance %.6f\noverlap %.6f\n" d (Profile_ops.overlap a b);
    (* Largest per-block movements of normalised weight share. *)
    let ta = float_of_int (max 1 (Profile.total_weight a)) in
    let tb = float_of_int (max 1 (Profile.total_weight b)) in
    let shares =
      let tbl = Hashtbl.create 512 in
      Profile.fold
        (fun key ~freq:_ ~weight () ->
          Hashtbl.replace tbl key (float_of_int weight /. ta, 0.0))
        a ();
      Profile.fold
        (fun key ~freq:_ ~weight () ->
          let sa, _ =
            Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl key)
          in
          Hashtbl.replace tbl key (sa, float_of_int weight /. tb))
        b ();
      Hashtbl.fold (fun key (sa, sb) acc -> (key, sa, sb) :: acc) tbl []
    in
    let sorted =
      List.sort
        (fun (ka, sa, sb) (kb, sa', sb') ->
          match compare (Float.abs (sb' -. sa')) (Float.abs (sb -. sa)) with
          | 0 -> compare ka kb
          | c -> c)
        shares
    in
    let t =
      Report.Table.create ~title:"Largest weight-share movements"
        [ ("Block", Report.Table.Left); ("share in A", Report.Table.Right);
          ("share in B", Report.Table.Right); ("Δ", Report.Table.Right) ]
    in
    List.iteri
      (fun i ((f, blk), sa, sb) ->
        if i < movers then
          Report.Table.add_row t
            [ Printf.sprintf "%s.%d" f blk;
              Report.Table.cell_percent ~decimals:2 sa;
              Report.Table.cell_percent ~decimals:2 sb;
              Printf.sprintf "%+.2f%%" (100.0 *. (sb -. sa)) ])
      sorted;
    print_string (Report.Table.render t);
    match max_distance with
    | Some bound when d > bound ->
      Printf.eprintf "squashc: distance %.6f exceeds bound %.6f\n" d bound;
      exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "profdiff"
       ~doc:"Compare two saved profiles: total-variation distance on \
             normalised block weights, plus the largest movers.")
    Term.(const run $ a_arg $ b_arg $ max_distance $ movers)

(* --- squash and attrib: build, run and trace one image ------------------ *)

(* What [squash] and [attrib] share: the program, its inputs and profile,
   θ, K and the runtime's cache slots. *)
type image_args = {
  prog_name : string;
  no_squeeze : bool;
  inputs : string option * string option * bool;
  theta : float;
  k_bytes : int;
  cache_slots : int;
  profile_file : string option;
}

let image_args ~theta =
  let theta =
    Arg.(
      value & opt float theta
      & info [ "theta" ] ~docv:"T" ~doc:"Cold-code threshold in [0, 1].")
  in
  let profile_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Profile file (from $(b,squashc profile)); collected on the \
                fly otherwise.")
  in
  Term.(
    const
      (fun prog_name no_squeeze inputs theta k_bytes cache_slots profile_file ->
        { prog_name; no_squeeze; inputs; theta; k_bytes; cache_slots;
          profile_file })
    $ prog_arg $ squeeze_flag $ input_args $ theta $ k_bytes_arg
    $ cache_slots_arg $ profile_file)

type image = {
  args : image_args;
  prog : Prog.t;  (** The program the image was squashed from. *)
  profile : Profile.t;
  result : Squash.result;
  run_input : string;  (** The workload's timing input, else the given one. *)
}

(* Squash the program under [options] (θ and K from [args]), profiling it
   on the resolved input unless [--profile] names a saved profile. *)
let squash_image ?(options = Squash.default_options) ?check_each ?lint ?prove
    ?trace ?obs args =
  let prog, wl = prepare args.prog_name args.no_squeeze in
  let input = resolve_input args.inputs wl in
  let profile =
    match args.profile_file with
    | Some path -> or_die (Profile.of_string (read_file path))
    | None -> fst (Profile.collect prog ~input)
  in
  let options =
    { options with Squash.theta = args.theta; k_bytes = args.k_bytes }
  in
  let result =
    try Squash.run ~options ?check_each ?lint ?prove ?trace ?obs prog profile
    with Pipeline.Check_failed { pass; errors } ->
      Printf.eprintf "squashc: pass %S broke an invariant:\n" pass;
      List.iter (fun e -> Printf.eprintf "squashc:   %s\n" e) errors;
      exit 1
  in
  let run_input =
    match wl with Some wl -> Workload.timing_input wl | None -> input
  in
  { args; prog; profile; result; run_input }

let run_image ?obs img =
  Runtime.run ~slots:img.args.cache_slots ?obs img.result.Squash.squashed
    ~input:img.run_input

let squash_cmd =
  let no_pack = Arg.(value & flag & info [ "no-pack" ] ~doc:"Disable region packing.") in
  let no_bsafe =
    Arg.(value & flag & info [ "no-buffer-safe" ] ~doc:"Disable the buffer-safe optimisation.")
  in
  let no_unswitch =
    Arg.(value & flag & info [ "no-unswitch" ] ~doc:"Disable jump-table unswitching.")
  in
  let sharp_bsafe =
    Arg.(
      value & flag
      & info [ "sharp-buffer-safe" ]
          ~doc:"Use the sharpened buffer-safe analysis: an indirect call \
                contributes its resolved candidate targets (constant \
                propagation, else the address-taken set) instead of \
                poisoning its whole call chain.")
  in
  let linear_regions =
    Arg.(
      value & flag
      & info [ "linear-regions" ]
          ~doc:"Use linear-scan region formation instead of depth-first growth.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Run the squashed program and check its behaviour against the original.")
  in
  let trace_passes =
    Arg.(
      value & flag
      & info [ "trace-passes" ]
          ~doc:"Print each pipeline pass as it runs (timing, size deltas, \
                summary), then the per-pass statistics table.")
  in
  let check_each =
    Arg.(
      value & flag
      & info [ "check-each" ]
          ~doc:"Validate the IR after every pipeline pass; a failure names \
                the pass that broke an invariant.  The image is checked by \
                the lint pass (always on) and $(b,--prove).")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write per-pass timing and size statistics as JSON.")
  in
  let stream_bits =
    Arg.(
      value & flag
      & info [ "stream-bits" ]
          ~doc:"Print the per-stream compressed-bits breakdown \
                (bits/instruction over the compressed regions, code tables \
                included in the total).")
  in
  let prove_flag =
    Arg.(
      value & flag
      & info [ "prove" ]
          ~doc:"Run the symbolic equivalence prover over the finished image \
                (as pipeline pass $(b,prove), two cache slots); exit 1 on \
                any unproved region.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write an event trace here: the pipeline pass spans and, with \
                $(b,--verify), the squashed run's decompressions, buffer \
                entries and stub transitions (simulated-cycle and wall-clock \
                events on separate tracks).  A $(b,.jsonl) file gets one \
                event per line; any other name gets Chrome trace-event JSON, \
                loadable in Perfetto.")
  in
  let run args no_pack no_bsafe no_unswitch sharp_bsafe coder linear_regions
      verify trace_passes check_each stats_json stream_bits prove trace_out =
    let options =
      {
        Squash.default_options with
        Squash.pack = not no_pack;
        use_buffer_safe = not no_bsafe;
        sharp_buffer_safe = sharp_bsafe;
        unswitch = not no_unswitch;
        coder;
        regions_strategy = (if linear_regions then `Linear else `Dfs);
      }
    in
    let trace =
      if trace_passes then Some (fun line -> Printf.eprintf "squashc: %s\n%!" line)
      else None
    in
    let metrics = Obs.Metrics.create () in
    let obs =
      Obs.create
        ?trace:(Option.map (fun _ -> Obs.Trace.create ()) trace_out)
        ~metrics ()
    in
    let img =
      squash_image ~options ~check_each ~lint:true ~prove ?trace ~obs args
    in
    let result = img.result in
    Format.printf "%a@." Squash.pp_summary result;
    if trace_passes then print_string (Pipeline.render_stats result.Squash.stats);
    let region_streams () =
      Array.map
        (fun (img : Rewrite.region_image) -> img.Rewrite.stream)
        result.Squash.squashed.Rewrite.images
    in
    let coder_stream_bits () =
      Compress.stream_bits result.Squash.squashed.Rewrite.codes (region_streams ())
    in
    if stream_bits then begin
      let codes = result.Squash.squashed.Rewrite.codes in
      let per_stream = coder_stream_bits () in
      let instrs = Squash.compressed_instr_count result in
      let payload = List.fold_left (fun acc (_, b) -> acc + b) 0 per_stream in
      let tbl = Compress.table_bits codes in
      Format.printf "@.coder %s: per-stream bits over %d compressed instructions@."
        (Compress.coder_name codes) instrs;
      List.iter
        (fun (name, b) ->
          Format.printf "  %-10s %8d bits  %6.2f bits/instr@." name b
            (float_of_int b /. float_of_int (max 1 instrs)))
        per_stream;
      Format.printf "  %-10s %8d bits  %6.2f bits/instr@." "tables" tbl
        (float_of_int tbl /. float_of_int (max 1 instrs));
      Format.printf "  %-10s %8d bits  %6.2f bits/instr@." "total" (payload + tbl)
        (float_of_int (payload + tbl) /. float_of_int (max 1 instrs))
    end;
    let runtime_stats = ref None in
    if verify then begin
      let baseline =
        Vm.run (Vm.of_image (Layout.emit img.prog) ~input:img.run_input)
      in
      let outcome, stats = run_image ~obs img in
      runtime_stats := Some stats;
      if
        outcome.Vm.output = baseline.Vm.output
        && outcome.Vm.exit_code = baseline.Vm.exit_code
      then
        Format.printf
          "verified: identical behaviour; %d decompressions, %d cache hits, \
           %.2fx cycles@."
          stats.Runtime.decompressions stats.Runtime.cache_hits
          (float_of_int outcome.Vm.cycles /. float_of_int baseline.Vm.cycles)
      else begin
        Format.printf "VERIFICATION FAILED: behaviour diverged@.";
        exit 1
      end
    end;
    (match stats_json with
    | None -> ()
    | Some path ->
      let codes = result.Squash.squashed.Rewrite.codes in
      write_json path
        (Report.Json.Obj
           ([ ("schema", Report.Json.String "pgcc-squash-stats-v4");
              ("coder", Report.Json.String (Compress.coder_name codes));
              ("table_bits", Report.Json.Int (Compress.table_bits codes));
              ("stream_bits",
               Report.Json.Obj
                 (List.map
                    (fun (name, b) -> (name, Report.Json.Int b))
                    (coder_stream_bits ())));
              ("pipeline", Pipeline.stats_json result.Squash.stats);
              ("metrics", Obs.Metrics.to_json metrics) ]
           @
           match !runtime_stats with
           | None -> []
           | Some st -> [ ("runtime", Runtime.stats_to_json st) ])));
    match (trace_out, obs.Obs.trace) with
    | Some path, Some tr -> write_trace path tr
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "squash"
       ~doc:"Profile-guided compression; report the footprint.  The finished \
             image always passes the lint level of the image gate (pipeline \
             pass $(b,lint)); any error-severity diagnostic exits 1.")
    Term.(
      const run $ image_args ~theta:0.0 $ no_pack $ no_bsafe $ no_unswitch
      $ sharp_bsafe $ coder_arg $ linear_regions $ verify $ trace_passes
      $ check_each $ stats_json $ stream_bits $ prove_flag $ trace_out)

let attrib_cmd =
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the attribution rows and totals as JSON \
                (schema pgcc-attrib-v1, loadable by $(b,--compare)).")
  in
  let compare_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:"A saved attribution JSON (from a previous $(b,--json)) to \
                diff this run against: per-region signed cycle and share \
                deltas, with the saved run as side A.")
  in
  let run args json_out compare_file =
    let img = squash_image args in
    let outcome, stats = run_image img in
    let a = Attrib.compute ~profile:img.profile img.result stats in
    print_string (Attrib.render a);
    Printf.printf
      "overhead: %d decompressions (%d cache hits), %d cycles (%.2f%% of %d \
       total cycles)\n"
      a.Attrib.total_decompressions stats.Runtime.cache_hits
      a.Attrib.total_cycles
      (if outcome.Vm.cycles > 0 then
         100.0 *. float_of_int a.Attrib.total_cycles
         /. float_of_int outcome.Vm.cycles
       else 0.0)
      outcome.Vm.cycles;
    let params =
      [ ("prog", Report.Json.String args.prog_name);
        ("theta", Report.Json.Float args.theta);
        ("k_bytes", Report.Json.Int args.k_bytes);
        ("slots", Report.Json.Int args.cache_slots) ]
    in
    (match json_out with
    | None -> ()
    | Some path ->
      write_json path (Attrib.to_json ~params ~run_cycles:outcome.Vm.cycles a));
    match compare_file with
    | None -> ()
    | Some path -> (
      match Attrib.Saved.load_file path with
      | Error msg ->
        Printf.eprintf "squashc: %s\n" msg;
        exit 1
      | Ok saved ->
        let here =
          Attrib.to_saved ~run_cycles:outcome.Vm.cycles
            ~params:
              [ ("prog", args.prog_name);
                ("theta", Printf.sprintf "%g" args.theta);
                ("k_bytes", string_of_int args.k_bytes);
                ("slots", string_of_int args.cache_slots) ]
            a
        in
        print_newline ();
        print_string (Attrib.render_diff saved here))
  in
  Cmd.v
    (Cmd.info "attrib"
       ~doc:"Per-region runtime-overhead attribution: squash, run the \
             timing input, and break the decompression cycles down by \
             region (optionally diffed against a saved run).")
    Term.(const run $ image_args ~theta:0.01 $ json_out $ compare_file)

(* --- stats ------------------------------------------------------------ *)

let stats_cmd =
  let run prog_name =
    let prog, _ = or_die (load_program prog_name) in
    let input = Squeeze.remove_unreachable prog in
    let squeezed, st = Squeeze.run prog in
    Printf.printf "functions:            %d\n" (List.length prog.Prog.funcs);
    Printf.printf "instructions (raw):   %d\n" (Prog.instr_count prog);
    Printf.printf "instructions (input): %d\n" (Prog.instr_count input);
    Printf.printf "instructions (squeezed): %d\n" (Prog.instr_count squeezed);
    Format.printf "%a@." Squeeze.pp_stats st
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Static code statistics before/after squeeze.")
    Term.(const run $ prog_arg)

(* --- grid ------------------------------------------------------------- *)

let grid_cmd =
  let thetas =
    Arg.(
      value
      & opt (list float) Exp_data.theta_grid
      & info [ "theta" ] ~docv:"T,T,..." ~doc:"Cold-code thresholds to sweep.")
  in
  let ks =
    Arg.(
      value
      & opt (list int) [ 512 ]
      & info [ "k" ] ~docv:"B,B,..." ~doc:"Runtime-buffer bounds to sweep.")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:"Also run each squashed cell on its timing input (cycles, \
                decompressions).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Engine pool size (default: \\$JOBS, then the recommended \
                domain count).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write per-cell results as JSON.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-cell results as CSV.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "engine-stats" ]
          ~doc:"Print the per-job wall-clock table after the grid.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Trace the grid run into sharded per-domain sinks (engine \
                job spans, pipeline pass spans) and write the deterministic \
                merged export here: one event per line for a $(b,.jsonl) \
                file, Chrome trace-event JSON otherwise.")
  in
  let run names thetas ks timing cache_slots jobs json_out csv_out stats_flag
      trace_out =
    let wls = find_workloads names in
    let obs =
      match trace_out with
      | None -> None
      | Some _ ->
        (* One shard per worker domain plus the submitting main domain, so
           the sink's fast path stays uncontended whatever the host's core
           count says. *)
        let pool = (match jobs with Some j -> j | None -> Exp_grid.jobs ()) in
        Some (Obs.full ~shards:(pool + 1) ())
    in
    Exp_grid.set_obs obs;
    (* Workload-innermost order so the first [jobs] cells touch distinct
       workloads and the prepare stages parallelise. *)
    let cells =
      List.concat_map
        (fun k ->
          List.concat_map
            (fun theta ->
              List.map
                (fun wl ->
                  Exp_grid.cell ~timing ~slots:cache_slots wl
                    { Squash.default_options with Squash.theta; k_bytes = k })
                wls)
            thetas)
        ks
    in
    let results, stats = Exp_grid.run ?jobs cells in
    print_string (Exp_grid.render_table results);
    if stats_flag then print_string (Engine.render_stats stats)
    else
      Printf.printf
        "engine: %d cells on %d workers in %.2fs (busy %.2fs, %d failed)\n"
        stats.Engine.submitted stats.Engine.pool stats.Engine.wall_s
        stats.Engine.busy_s stats.Engine.failed;
    (match (trace_out, obs) with
    | Some path, Some { Obs.trace = Some tr; _ } -> write_trace path tr
    | _ -> ());
    (match json_out with
    | None -> ()
    | Some path ->
      write_json path
        (Report.Json.Obj
           [ ("schema", Report.Json.String "pgcc-grid-v1");
             ("engine", Engine.stats_json stats);
             ("cells", Exp_grid.to_json results) ]));
    (match csv_out with
    | None -> ()
    | Some path -> write_file path (Exp_grid.to_csv results));
    match Exp_grid.failures results with
    | [] -> ()
    | fs ->
      List.iter
        (fun e -> prerr_endline ("squashc: " ^ Engine.error_to_string e))
        fs;
      exit 1
  in
  Cmd.v
    (Cmd.info "grid"
       ~doc:"Run a workload x theta x K sweep on the parallel experiment \
             engine.")
    Term.(
      const run $ workloads_arg "sweep" $ thetas $ ks $ timing $ cache_slots_arg
      $ jobs $ json_out $ csv_out $ stats_flag $ trace_out)

(* --- benchdiff -------------------------------------------------------- *)

let benchdiff_cmd =
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A.json" ~doc:"Baseline run (bench --json output).")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B.json" ~doc:"Candidate run to compare against A.")
  in
  let threshold =
    Arg.(
      value & opt float 0.10
      & info [ "threshold" ] ~docv:"REL"
          ~doc:"Relative wall-clock slowdown above which an experiment is \
                flagged (0.10 = 10% slower); statistical significance is \
                still required when both runs carry repeated samples.")
  in
  let counter_threshold =
    Arg.(
      value & opt float 0.0
      & info [ "counter-threshold" ] ~docv:"REL"
          ~doc:"Relative drift tolerated in the deterministic runtime \
                counters (default 0: any drift flags).")
  in
  let run file_a file_b threshold counter_threshold =
    let load f =
      match Benchdiff.load_file f with
      | Ok r -> r
      | Error msg ->
        Printf.eprintf "squashc: %s\n" msg;
        exit 2
    in
    let a = load file_a and b = load file_b in
    let report =
      Benchdiff.compare_runs ~wall_threshold:threshold ~counter_threshold a b
    in
    print_string (Benchdiff.render a b report);
    if Benchdiff.regressed report then exit 1
  in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:"Compare two benchmark runs with repeated-sample statistics; \
             exit 1 on a significant regression (for CI gates).")
    Term.(const run $ file_a $ file_b $ threshold $ counter_threshold)

(* --- tracediff -------------------------------------------------------- *)

let tracediff_cmd =
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"Baseline trace (chrome or jsonl export).")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Candidate trace to compare against A.")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N"
          ~doc:"Show only the N largest duration deltas (0 = all).")
  in
  let run file_a file_b top =
    let load f =
      match Tracediff.load_file f with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "squashc: %s\n" msg;
        exit 2
    in
    let a = load file_a and b = load file_b in
    let top = if top <= 0 then None else Some top in
    print_string (Tracediff.render ?top a b)
  in
  Cmd.v
    (Cmd.info "tracediff"
       ~doc:"Diff the span profiles of two exported traces: per span name, \
             signed count and duration deltas.")
    Term.(const run $ file_a $ file_b $ top)

(* --- lint ------------------------------------------------------------- *)

let lint_cmd =
  let thetas =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.01 ]
      & info [ "theta" ] ~docv:"T,T,..."
          ~doc:"Cold-code thresholds to build and verify at.")
  in
  let sharp =
    Arg.(
      value & flag
      & info [ "sharp-buffer-safe" ]
          ~doc:"Build the images with the sharpened buffer-safe analysis \
                (the verifier always checks unchanged calls against it, so \
                both builds must lint clean).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write per-image diagnostics and safe-call counts as JSON.")
  in
  let run names thetas k_bytes sharp coder json_out =
    let wls = find_workloads names in
    let t =
      Report.Table.create ~title:"squashc lint"
        [ ("Program", Report.Table.Left); ("theta", Report.Table.Right);
          ("errors", Report.Table.Right); ("warnings", Report.Table.Right);
          ("safe calls (cons)", Report.Table.Right);
          ("safe calls (sharp)", Report.Table.Right);
          ("delta", Report.Table.Right) ]
    in
    let any_errors = ref false in
    let cells = ref [] in
    List.iter
      (fun (wl : Workload.t) ->
        let prepared = Exp_data.prepare wl in
        List.iter
          (fun theta ->
            let options =
              {
                Squash.default_options with
                Squash.theta;
                k_bytes;
                sharp_buffer_safe = sharp;
                coder;
              }
            in
            let sq = (Exp_data.squash_result prepared options).Squash.squashed in
            let diags = Verify.run sq in
            let nerrors = List.length (Verify.errors diags) in
            let nwarnings = List.length diags - nerrors in
            if nerrors > 0 then any_errors := true;
            (* What the sharpening buys on this image: Section 6.1 safe
               call sites under each analysis, over the same regions. *)
            let p = sq.Rewrite.prog in
            let regions = sq.Rewrite.regions in
            let has_compressed = Regions.has_compressed regions p in
            let in_region f b = Regions.block_region regions f b <> None in
            let safe_calls analysis =
              let `Safe_calls sc, `Direct_calls _, `Indirect_calls _ =
                Buffer_safe.stats p analysis ~in_region
              in
              sc
            in
            let c_cons = safe_calls (Buffer_safe.analyze p ~has_compressed) in
            let c_sharp =
              safe_calls (Buffer_safe.analyze_sharp p ~has_compressed)
            in
            Report.Table.add_row t
              [ wl.Workload.name; Printf.sprintf "%g" theta;
                string_of_int nerrors; string_of_int nwarnings;
                string_of_int c_cons; string_of_int c_sharp;
                Printf.sprintf "%+d" (c_sharp - c_cons) ];
            cells := (wl.Workload.name, theta, diags, c_cons, c_sharp) :: !cells)
          thetas;
        (* Drop this workload's images before building the next one's. *)
        Exp_data.reset ())
      wls;
    print_string (Report.Table.render t);
    List.iter
      (fun (name, theta, diags, _, _) ->
        if diags <> [] then begin
          Printf.printf "%s @ theta=%g:\n" name theta;
          print_string (Verify.render diags)
        end)
      (List.rev !cells);
    (match json_out with
    | None -> ()
    | Some path ->
      write_json path
        (Report.Json.Obj
           [ ("schema", Report.Json.String "pgcc-lint-v1");
             ( "cells",
               Report.Json.List
                 (List.rev_map
                    (fun (name, theta, diags, c_cons, c_sharp) ->
                      Report.Json.Obj
                        [ ("workload", Report.Json.String name);
                          ("theta", Report.Json.Float theta);
                          ( "errors",
                            Report.Json.Int (List.length (Verify.errors diags))
                          );
                          ( "warnings",
                            Report.Json.Int
                              (List.length diags
                              - List.length (Verify.errors diags)) );
                          ("safe_calls_conservative", Report.Json.Int c_cons);
                          ("safe_calls_sharp", Report.Json.Int c_sharp);
                          ("diags", Verify.to_json diags) ])
                    !cells) ) ]));
    if !any_errors then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify squashed images: layout, entry stubs, \
             stream round-trips, dangling transfers into removed regions, \
             stub-register liveness, and buffer-safety of unchanged calls.  \
             Exits 1 on any error-severity diagnostic.")
    Term.(
      const run $ workloads_arg "lint" $ thetas $ k_bytes_arg $ sharp
      $ coder_arg $ json_out)

(* --- prove -------------------------------------------------------------- *)

let prove_cmd =
  let thetas =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.001; 0.01; 1.0 ]
      & info [ "theta" ] ~docv:"T,T,..."
          ~doc:"Cold-code thresholds to build and prove at.")
  in
  let slots_list =
    Arg.(
      value
      & opt (list int) [ 1; 4 ]
      & info [ "slots" ] ~docv:"N,N,..."
          ~doc:"Cache-slot counts to prove each image for (every slot's \
                displacement rebias is checked).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write per-image proof reports as JSON.")
  in
  let run names thetas slots_list k_bytes coder json_out =
    let wls = find_workloads names in
    let t =
      Report.Table.create ~title:"squashc prove"
        [ ("Program", Report.Table.Left); ("theta", Report.Table.Right);
          ("slots", Report.Table.Right); ("regions", Report.Table.Right);
          ("proved", Report.Table.Right); ("stubs", Report.Table.Right);
          ("conservative", Report.Table.Right);
          ("unproved", Report.Table.Right); ("time (s)", Report.Table.Right) ]
    in
    let any_failures = ref false in
    let cells = ref [] in
    List.iter
      (fun (wl : Workload.t) ->
        let prepared = Exp_data.prepare wl in
        List.iter
          (fun theta ->
            let options =
              { Squash.default_options with Squash.theta; k_bytes; coder }
            in
            let sq = (Exp_data.squash_result prepared options).Squash.squashed in
            List.iter
              (fun slots ->
                let t0 = Unix.gettimeofday () in
                let r = Prove.run ~slots sq in
                let dt = Unix.gettimeofday () -. t0 in
                if r.Prove.failures <> [] then any_failures := true;
                Report.Table.add_row t
                  [ wl.Workload.name; Printf.sprintf "%g" theta;
                    string_of_int slots; string_of_int r.Prove.regions;
                    Printf.sprintf "%d/%d" r.Prove.proved r.Prove.blocks;
                    string_of_int r.Prove.stubs;
                    string_of_int r.Prove.conservative;
                    string_of_int (List.length r.Prove.failures);
                    Printf.sprintf "%.3f" dt ];
                cells := (wl.Workload.name, theta, slots, r, dt) :: !cells)
              slots_list)
          thetas;
        (* Drop this workload's images before building the next one's. *)
        Exp_data.reset ())
      wls;
    print_string (Report.Table.render t);
    List.iter
      (fun (name, theta, slots, r, _) ->
        if r.Prove.failures <> [] then begin
          Printf.printf "%s @ theta=%g, slots=%d:\n" name theta slots;
          print_endline (Prove.render r)
        end)
      (List.rev !cells);
    (match json_out with
    | None -> ()
    | Some path ->
      write_json path
        (Report.Json.Obj
           [ ("schema", Report.Json.String "pgcc-prove-v2");
             ( "cells",
               Report.Json.List
                 (List.rev_map
                    (fun (name, theta, slots, r, dt) ->
                      Report.Json.Obj
                        [ ("workload", Report.Json.String name);
                          ("theta", Report.Json.Float theta);
                          ("slots", Report.Json.Int slots);
                          ("seconds", Report.Json.Float dt);
                          ("report", Prove.report_json r) ])
                    !cells) ) ]));
    if !any_failures then exit 1
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Translation validation: symbolically execute every compressed \
             region block and its materialised counterpart (per cache slot) \
             and prove that registers, memory effects and exit targets \
             match.  Exits 1 on any unproved region, printing the \
             divergence trace.")
    Term.(
      const run $ workloads_arg "prove" $ thetas $ slots_list $ k_bytes_arg
      $ coder_arg $ json_out)

(* --- workloads ---------------------------------------------------------- *)

let workloads_cmd =
  let run () =
    List.iter
      (fun (wl : Workload.t) ->
        Printf.printf "%-10s %s\n" wl.Workload.name wl.Workload.description)
      Workloads.all
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the built-in benchmark workloads.")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "squashc" ~version:"1.0.0"
       ~doc:"Profile-guided code compression for the SQ32 embedded target.")
    [ compile_cmd; run_cmd; profile_cmd; profdiff_cmd; squash_cmd; attrib_cmd;
      stats_cmd;
      grid_cmd; benchdiff_cmd; tracediff_cmd; lint_cmd; prove_cmd;
      workloads_cmd ]

let () = exit (Cmd.eval main)
