(* The four workloads of the performance benchmark, the layer calls their
   jobs make, and the metrics computed from them (see README.md).

   Every layer is called through its public function, never through the
   experiment memo tables, the persistent cache or the engine pool, so each
   pass of a workload does all of its work again.  Runs are sequential in
   one process: a closed loop with one client. *)

let fuel = 2_000_000_000

type config = { theta : float; coder : Compress.backend }

let coders = [ ("huffman", `Split_stream); ("context", `Context) ]

let coder_label c =
  fst (List.find (fun (_, b) -> b = c.coder) coders)

let config_label c = Printf.sprintf "theta=%g,%s" c.theta (coder_label c)

(* ------------------------------------------------------------------ *)
(* Job outcomes and the per-run context. *)

type outcome = {
  failure : string option;
  footprint : float option;  (* squashed words over squeezed words *)
  slowdown : float option;  (* squashed cycles over squeezed cycles *)
  proved : bool option;  (* the prover discharged every region *)
}

let no_outcome = { failure = None; footprint = None; slowdown = None; proved = None }

(* What the coder replays need of one squashed image. *)
type image = {
  codes : Compress.codes;
  streams : Instr.t list array;  (* by region id *)
  blob : string;
  offsets : int array;
  decodes : int array;  (* runtime decompressions per region, traced passes *)
}

type ctx = {
  spans : Spans.t;
  mutable next_job : int;
  mutable steps : (float * outcome option) list;
      (* this pass, newest first: seconds, and the outcome of a job or None
         for the steps a program's jobs share *)
  mutable notes : string list;  (* setup remarks, newest first *)
  mutable setup_errors : string list;
  images : (string, image) Hashtbl.t;
  baselines : (string, Prog.t * string) Hashtbl.t;
      (* run key -> squeezed program and input, for the overhead replay *)
  mutable squashed_runs : (string * float) list;
      (* run key, host seconds of a squashed run in a traced pass *)
}

let create_ctx () =
  { spans = Spans.create (); next_job = 0; steps = []; notes = [];
    setup_errors = []; images = Hashtbl.create 64; baselines = Hashtbl.create 64;
    squashed_runs = [] }

let tracing ctx = ctx.spans.Spans.on
let span ctx = Spans.span ctx.spans
let count ctx name v = Spans.count ctx.spans name v

let describe = function
  | Vm.Trap { pc; reason } -> Printf.sprintf "trap at 0x%x: %s" pc reason
  | Pipeline.Check_failed { pass; errors } ->
    Printf.sprintf "%s: %s" pass (String.concat "; " errors)
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Layer calls.  Each is one span; counters are only gathered while
   tracing. *)

let compile ctx src =
  count ctx "minic.compile.calls" 1.0;
  span ctx "minic.compile" (fun () ->
      match Minic.compile src with
      | Ok p -> p
      | Error e -> failwith ("compile: " ^ Minic.error_to_string e))

let squeeze ctx p =
  let q, _ = span ctx "squeeze" (fun () -> Squeeze.run p) in
  if tracing ctx then begin
    count ctx "squeeze.words_in" (float_of_int (Prog.text_words p));
    count ctx "squeeze.words_out" (float_of_int (Prog.text_words q))
  end;
  q

let profile ctx p ~input =
  let prof, o = span ctx "profile.collect" (fun () -> Profile.collect ~fuel p ~input) in
  count ctx "profile.collect.instr" (float_of_int o.Vm.icount);
  (prof, o)

(* The seven pipeline passes, one [Pass.transform] at a time.  Returns the
   image and its footprint over the squeezed program's. *)
let squash ctx config prog prof =
  let options =
    { Squash.default_options with Squash.theta = config.theta; coder = config.coder }
  in
  let st =
    List.fold_left
      (fun st (p : Pass.t) ->
        span ctx ("pass." ^ p.Pass.name) (fun () -> p.Pass.transform st))
      (Pass.init ~options prog prof)
      (Pipeline.of_options options)
  in
  let sq = Pass.get_squashed ~who:"perf" st in
  if tracing ctx then begin
    let regions = Pass.get_regions ~who:"perf" st in
    count ctx "regions.compressed_instrs"
      (float_of_int (Regions.compressed_instr_count sq.Rewrite.prog regions));
    count ctx "regions.cold_instrs"
      (float_of_int (Cold.cold_instr_count (Pass.get_cold ~who:"perf" st)))
  end;
  (sq, float_of_int (Rewrite.total_words sq) /. float_of_int st.Pass.original_words)

let lint ctx sq =
  let errors = Verify.errors (span ctx "verify" (fun () -> Verify.run sq)) in
  count ctx "verify.errors" (float_of_int (List.length errors));
  errors

let prove ctx sq =
  let r = span ctx "prove" (fun () -> Prove.run ~slots:2 sq) in
  if tracing ctx then begin
    count ctx "prove.blocks" (float_of_int r.Prove.blocks);
    count ctx "prove.conservative" (float_of_int r.Prove.conservative);
    count ctx "prove.failures" (float_of_int (List.length r.Prove.failures))
  end;
  r.Prove.failures = []

let keep_image ctx key (sq : Rewrite.t) =
  if tracing ctx && not (Hashtbl.mem ctx.images key) then begin
    let n = Array.length sq.Rewrite.images in
    let streams = Array.make n [] in
    Array.iter
      (fun (img : Rewrite.region_image) -> streams.(img.Rewrite.rid) <- img.Rewrite.stream)
      sq.Rewrite.images;
    Hashtbl.replace ctx.images key
      { codes = sq.Rewrite.codes; streams; blob = sq.Rewrite.blob;
        offsets = sq.Rewrite.blob_offsets; decodes = Array.make n 0 }
  end

let count_run ctx (o : Vm.outcome) =
  if tracing ctx then begin
    count ctx "vm.create.calls" 1.0;
    count ctx "vm.run.instr" (float_of_int o.Vm.icount);
    count ctx "vm.run.hooks" (float_of_int o.Vm.hook_invocations)
  end

(* A squashed image on [input], one cache slot.  [image_key] names the image
   for the decode replay, [base_key] the squeezed run it is compared with. *)
let run_squashed ctx ~image_key ~base_key sq ~input =
  let t0 = Obs.Clock.now () in
  let vm, s = span ctx "vm.create" (fun () -> Runtime.launch ~fuel sq ~input) in
  let o = span ctx "vm.run" (fun () -> Vm.run vm) in
  let seconds = Obs.Clock.now () -. t0 in
  count_run ctx o;
  if tracing ctx then begin
    count ctx "runtime.decompressions" (float_of_int s.Runtime.decompressions);
    count ctx "runtime.cache_hits" (float_of_int s.Runtime.cache_hits);
    count ctx "runtime.words_materialised" (float_of_int s.Runtime.words_materialised);
    count ctx "runtime.stub_creates" (float_of_int s.Runtime.stub_creates);
    count ctx "runtime.stub_reuses" (float_of_int s.Runtime.stub_reuses);
    ctx.squashed_runs <- (base_key, seconds) :: ctx.squashed_runs;
    match Hashtbl.find_opt ctx.images image_key with
    | Some img ->
      (* [per_region] has one slot even for an image without regions. *)
      Array.iteri (fun r n -> img.decodes.(r) <- n + s.Runtime.per_region.(r)) img.decodes
    | None -> ()
  end;
  o

let run_squeezed ctx prog ~input =
  let vm = span ctx "vm.create" (fun () -> Vm.of_image ~fuel (Layout.emit prog) ~input) in
  let o = span ctx "vm.run" (fun () -> Vm.run vm) in
  count_run ctx o;
  o

(* ------------------------------------------------------------------ *)
(* Reference outputs, from the MiniC interpreter, which shares no code with
   the compiler, the squeezer or the simulator.  A program the interpreter
   does not support falls back to [vm], the squeezed program's VM run. *)

type reference = { output : string; exit_code : int }

let reference ctx ~name src ~input ~vm =
  match
    span ctx "reference" (fun () ->
        match Mc_interp.run_source ~fuel src ~input with
        | r -> Some { output = r.Mc_interp.output; exit_code = r.Mc_interp.exit_code }
        | exception Mc_interp.Unsupported _ -> None)
  with
  | Some r -> r
  | None ->
    ctx.notes <- Printf.sprintf "%s: reference=vm" name :: ctx.notes;
    let (o : Vm.outcome) = vm () in
    { output = o.Vm.output; exit_code = o.Vm.exit_code }

let mismatch (r : reference) (o : Vm.outcome) =
  if o.Vm.output = r.output && o.Vm.exit_code = r.exit_code then None
  else
    Some
      (Printf.sprintf "output mismatch (exit %d, expected %d; %d output bytes, expected %d)"
         o.Vm.exit_code r.exit_code (String.length o.Vm.output) (String.length r.output))

let check_setup ctx what r o =
  match mismatch r o with
  | None -> ()
  | Some m -> ctx.setup_errors <- (what ^ ": " ^ m) :: ctx.setup_errors

(* Squashed cycles over the squeezed program's cycles on the same input. *)
let slowdown (o : Vm.outcome) ~base_cycles =
  float_of_int o.Vm.cycles /. float_of_int base_cycles

(* ------------------------------------------------------------------ *)
(* Jobs. *)

let record ctx seconds outcome = ctx.steps <- (seconds, outcome) :: ctx.steps

let job ctx f =
  ctx.next_job <- ctx.next_job + 1;
  let t0 = Obs.Clock.now () in
  let outcome =
    Spans.job ctx.spans ~id:ctx.next_job "job" (fun () ->
        try f () with e -> { no_outcome with failure = Some (describe e) })
  in
  record ctx (Obs.Clock.now () -. t0) (Some outcome)

(* The per-program steps shared by that program's jobs.  When they fail,
   each of the program's [jobs] is attempted and failed. *)
let prep ctx ~jobs f k =
  let t0 = Obs.Clock.now () in
  let r = span ctx "prep" (fun () -> try Ok (f ()) with e -> Error (describe e)) in
  record ctx (Obs.Clock.now () -. t0) None;
  match r with
  | Ok v -> k v
  | Error e ->
    for _ = 1 to jobs do
      record ctx 0.0 (Some { no_outcome with failure = Some e })
    done

let lint_failure = function
  | [] -> None
  | d :: _ as errors ->
    Some
      (Printf.sprintf "lint: %d errors, first %s" (List.length errors) (Verify.message d))

(* ------------------------------------------------------------------ *)
(* Workloads. *)

type workload = {
  name : string;
  setup : ctx -> seed:int -> unit -> unit;
      (* Builds the inputs and returns the function that runs one pass.
         Only the corpus depends on the seed: the MediaBench-analogue
         programs and their inputs are fixed, and so is their job order, so
         that heap growth, and with it peak RSS, repeats from run to run. *)
}

(* sweep: the compile path a user runs with [squashc squash --lint --prove],
   over 11 programs x 12 configs.  The passes, the coder's encode side, lint
   and prove do most of the work; the VM only profiles. *)
let sweep_configs =
  List.concat_map
    (fun theta -> List.map (fun (_, coder) -> { theta; coder }) coders)
    [ 0.0; 1e-4; 1e-3; 0.01; 0.1; 1.0 ]

let sweep ?(programs = Workloads.all) ?(configs = sweep_configs) () =
  let setup ctx ~seed:_ =
    let programs =
      List.map
        (fun (wl : Workload.t) ->
          let input = Workload.profiling_input wl in
          let r =
            reference ctx ~name:wl.Workload.name wl.Workload.source ~input ~vm:(fun () ->
                run_squeezed ctx (squeeze ctx (compile ctx wl.Workload.source)) ~input)
          in
          (wl, input, r))
        programs
    in
    fun () ->
      List.iter
        (fun ((wl : Workload.t), input, r) ->
          prep ctx ~jobs:(List.length configs)
            (fun () ->
              let q = squeeze ctx (compile ctx wl.Workload.source) in
              let prof, o = profile ctx q ~input in
              Option.iter failwith (mismatch r o);
              (q, prof))
            (fun (q, prof) ->
              List.iter
                (fun c ->
                  job ctx (fun () ->
                      let sq, footprint = squash ctx c q prof in
                      keep_image ctx (wl.Workload.name ^ "|" ^ config_label c) sq;
                      let errors = lint ctx sq in
                      let proved = prove ctx sq in
                      { no_outcome with failure = lint_failure errors;
                        footprint = Some footprint; proved = Some proved }))
                configs))
        programs
  in
  { name = "sweep"; setup }

(* corpus: small generated programs, each squashed at two thresholds with
   both coders, then linted, proved and run on a short input.  Creating a VM
   (allocating its 16 MiB memory image) dominates here and is negligible
   elsewhere; this is also the traffic a fuzzing campaign sends. *)
let corpus_configs =
  List.concat_map
    (fun theta -> List.map (fun (_, coder) -> { theta; coder }) coders)
    [ 0.01; 1.0 ]

(* Program [i] of seed [s]'s corpus uses generator seed [(s-1)*size + i + 1],
   so seed 1 draws generator seeds 1..size and seeds never share programs. *)
let corpus_sources ~seed ~size =
  List.init size (fun i -> Corpus_gen.random_program ~seed:(((seed - 1) * size) + i + 1))

let corpus_digest sources =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun s -> string_of_int (String.length s) ^ ":" ^ s) sources)))

let default_corpus_size = 32

let corpus ?(size = default_corpus_size) () =
  let setup ctx ~seed =
    let programs =
      List.mapi
        (fun i src ->
          let name = Printf.sprintf "gen%d" (((seed - 1) * size) + i + 1) in
          let r =
            reference ctx ~name src ~input:"" ~vm:(fun () ->
                run_squeezed ctx (squeeze ctx (compile ctx src)) ~input:"")
          in
          (name, src, r))
        (span ctx "generate" (fun () -> corpus_sources ~seed ~size))
    in
    fun () ->
      List.iter
        (fun (name, src, r) ->
          prep ctx ~jobs:(List.length corpus_configs)
            (fun () ->
              let q = squeeze ctx (compile ctx src) in
              let prof, o = profile ctx q ~input:"" in
              Option.iter failwith (mismatch r o);
              if tracing ctx then Hashtbl.replace ctx.baselines name (q, "");
              (q, prof, o))
            (fun (q, prof, (base : Vm.outcome)) ->
              List.iter
                (fun c ->
                  job ctx (fun () ->
                      let image_key = name ^ "|" ^ config_label c in
                      let sq, footprint = squash ctx c q prof in
                      keep_image ctx image_key sq;
                      let errors = lint ctx sq in
                      let proved = prove ctx sq in
                      let o = run_squashed ctx ~image_key ~base_key:name sq ~input:"" in
                      let failure =
                        match lint_failure errors with
                        | Some _ as f -> f
                        | None -> mismatch r o
                      in
                      { failure; footprint = Some footprint;
                        slowdown = Some (slowdown o ~base_cycles:base.Vm.cycles);
                        proved = Some proved }))
                corpus_configs))
        programs
  in
  { name = "corpus"; setup }

(* A squashed image prepared in set-up, and what its runs are checked
   against. *)
type prepared_run = {
  image_key : string;
  base_key : string;
  image : Rewrite.t;
  input : string;
  expected : reference;
  base_cycles : int;
  footprint : float;
}

let run_pass ctx runs () =
  List.iter
    (fun { image_key; base_key; image; input; expected; base_cycles; footprint } ->
      job ctx (fun () ->
          let o = run_squashed ctx ~image_key ~base_key image ~input in
          { no_outcome with failure = mismatch expected o; footprint = Some footprint;
            slowdown = Some (slowdown o ~base_cycles) }))
    runs

(* run-hot: the 11 programs at the paper's operating point (its θ = 5e-5 is
   1e-3 on our profile scale), one slot, huffman, on their timing inputs.
   VM dispatch does most of the work and the decoder little. *)
let hot_config = { theta = 1e-3; coder = `Split_stream }

let run_hot =
  let setup ctx ~seed:_ =
    let runs =
      List.map
        (fun (wl : Workload.t) ->
          let name = wl.Workload.name in
          let input = Workload.timing_input wl in
          let q = squeeze ctx (compile ctx wl.Workload.source) in
          let prof, _ = profile ctx q ~input:(Workload.profiling_input wl) in
          let image, footprint = squash ctx hot_config q prof in
          let image_key = name ^ "|" ^ config_label hot_config in
          keep_image ctx image_key image;
          let base = run_squeezed ctx q ~input in
          let expected =
            reference ctx ~name wl.Workload.source ~input ~vm:(fun () -> base)
          in
          check_setup ctx (name ^ " squeezed") expected base;
          if tracing ctx then Hashtbl.replace ctx.baselines name (q, input);
          { image_key; base_key = name; image; input; expected;
            base_cycles = base.Vm.cycles; footprint })
        Workloads.all
    in
    run_pass ctx runs
  in
  { name = "run-hot"; setup }

(* run-cold: the 11 programs at θ = 1 with both coders, one slot, on their
   profiling inputs.  Every block is cold whatever the profile, so runtime
   decoding does most of the work: the decode side of the coder that sweep
   encodes.  The input only sets the run length; the timing inputs would
   take over twice as long. *)
let run_cold =
  let setup ctx ~seed:_ =
    let runs =
      List.concat_map
        (fun (wl : Workload.t) ->
          let name = wl.Workload.name in
          let input = Workload.profiling_input wl in
          let q = squeeze ctx (compile ctx wl.Workload.source) in
          let prof, base = profile ctx q ~input in
          let expected =
            reference ctx ~name wl.Workload.source ~input ~vm:(fun () -> base)
          in
          check_setup ctx (name ^ " squeezed") expected base;
          if tracing ctx then Hashtbl.replace ctx.baselines name (q, input);
          List.map
            (fun (_, coder) ->
              let c = { theta = 1.0; coder } in
              let image, footprint = squash ctx c q prof in
              let image_key = name ^ "|" ^ config_label c in
              keep_image ctx image_key image;
              { image_key; base_key = name; image; input; expected;
                base_cycles = base.Vm.cycles; footprint })
            coders)
        Workloads.all
    in
    run_pass ctx runs
  in
  { name = "run-cold"; setup }

let all = [ sweep (); corpus (); run_hot; run_cold ]

(* ------------------------------------------------------------------ *)
(* Replays after the timed phase of a traced run: re-encode and re-decode
   every distinct image's regions, and run each squeezed baseline once. *)

let replay ctx =
  let spans = ctx.spans in
  spans.Spans.phase <- Spans.Replay;
  let images =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.images []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (_, img) ->
      let backend = Compress.backend_of img.codes in
      let codes, (blob, _) =
        span ctx "coder.encode" (fun () ->
            let codes = Compress.build_codes ~backend img.streams in
            (codes, Compress.encode_regions codes img.streams))
      in
      count ctx "coder.encode.bits"
        (float_of_int ((8 * String.length blob) + Compress.table_bits codes));
      count ctx "coder.encode.instrs"
        (float_of_int (Array.fold_left (fun n s -> n + List.length s) 0 img.streams)))
    images;
  (* Each region decoded as many times as the traced runs decompressed it. *)
  List.iter
    (fun (_, img) ->
      let bits = ref 0 in
      let t0 = Obs.Clock.now () in
      span ctx "coder.decode" (fun () ->
          Array.iteri
            (fun r bit_offset ->
              let bit_end =
                if r + 1 < Array.length img.offsets then Some img.offsets.(r + 1) else None
              in
              for _ = 1 to img.decodes.(r) do
                let _, work =
                  Compress.decode_region img.codes img.blob ~bit_offset ?bit_end ()
                in
                bits := !bits + work.Compress.bits
              done)
            img.offsets);
      count ctx "coder.decode.replay_s" (Obs.Clock.now () -. t0);
      count ctx "coder.decode.replay_bits" (float_of_int !bits))
    images;
  let base_s = Hashtbl.create 16 in
  List.iter
    (fun (key, seconds) ->
      let b =
        match Hashtbl.find_opt base_s key with
        | Some b -> b
        | None ->
          let prog, input = Hashtbl.find ctx.baselines key in
          let image = Layout.emit prog in
          Gc.full_major ();
          let b =
            span ctx "replay.squeezed" (fun () ->
                let t0 = Obs.Clock.now () in
                ignore (Vm.run (Vm.of_image ~fuel image ~input));
                Obs.Clock.now () -. t0)
          in
          Hashtbl.replace base_s key b;
          b
      in
      count ctx "runtime.overhead_s" (seconds -. b))
    (List.rev ctx.squashed_runs)

(* ------------------------------------------------------------------ *)
(* Running a workload. *)

type pass = { traced : bool; seconds : float; steps : (float * outcome option) list }

type result = {
  setup_s : float list;
  passes : pass list;  (* in order *)
  ctx : ctx;
  peak_rss_mb : float;
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
      | Some kb -> float_of_int kb /. 1024.0
      | None -> scan ())
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect scan ~finally:(fun () -> close_in ic)

(* Set up [setup_reps] times (keeping the last), then run whole passes
   until they add up to [seconds], and at least two, so that every step has
   a second try (see [best_steps]).  With [trace], passes alternate between
   untraced and traced. *)
let run ?(setup_reps = 3) ~seed ~seconds ~trace w =
  let ctx = create_ctx () in
  let spans = ctx.spans in
  spans.Spans.on <- trace;
  spans.Spans.phase <- Spans.Setup;
  let setup_s = ref [] and pass_fn = ref (fun () -> ()) in
  (* Each set-up and each pass starts from a collected heap, so none of them
     pays for the garbage of the one before. *)
  for _ = 1 to setup_reps do
    ctx.notes <- [];
    ctx.setup_errors <- [];
    pass_fn := ignore;
    Gc.full_major ();
    let t0 = Obs.Clock.now () in
    pass_fn := span ctx "setup" (fun () -> w.setup ctx ~seed);
    setup_s := (Obs.Clock.now () -. t0) :: !setup_s
  done;
  spans.Spans.phase <- Spans.Timed;
  let rec loop acc elapsed =
    let n = List.length acc in
    let traced = trace && n mod 2 = 1 in
    spans.Spans.on <- traced;
    ctx.steps <- [];
    Gc.full_major ();
    let t0 = Obs.Clock.now () in
    span ctx "pass" !pass_fn;
    let p = { traced; seconds = Obs.Clock.now () -. t0; steps = List.rev ctx.steps } in
    let acc = p :: acc and n = n + 1 and elapsed = elapsed +. p.seconds in
    if n < 2 || elapsed < seconds then loop acc elapsed else List.rev acc
  in
  let passes = loop [] 0.0 in
  let peak_rss_mb = peak_rss_mb () in
  spans.Spans.on <- trace;
  if trace then replay ctx;
  { setup_s = List.rev !setup_s; passes; ctx; peak_rss_mb }

let jobs steps = List.filter_map (fun (s, o) -> Option.map (fun o -> (s, o)) o) steps
let all_jobs r = List.concat_map (fun p -> jobs p.steps) r.passes
let attempted r = List.length (all_jobs r)

let failures r =
  List.filter_map (fun (_, (o : outcome)) -> o.failure) (all_jobs r)

let correct r = failures r = [] && r.ctx.setup_errors = []

(* ------------------------------------------------------------------ *)
(* End-to-end metrics, from the untraced passes. *)

let end_to_end_units =
  [ ("setup_s", "s"); ("jobs_per_s", "1/s"); ("job_ms_p50", "ms"); ("job_ms_p90", "ms");
    ("peak_rss_mb", "MB"); ("footprint_ratio", "ratio"); ("slowdown", "ratio") ]

let untraced r = List.filter (fun p -> not p.traced) r.passes
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Each step's fastest time over the untraced passes.  Every pass repeats
   the same steps in the same order, so a step's position identifies it.
   Contention from other tenants of a shared host only ever slows a step
   down, so its fastest pass is the steadiest estimate of its own cost. *)
let best_steps r =
  match untraced r with
  | [] -> []
  | p :: ps ->
    List.fold_left
      (fun best q ->
        if List.compare_lengths best q.steps <> 0 then best
        else List.map2 (fun (b, o) (s, _) -> (Float.min b s, o)) best q.steps)
      p.steps ps

let job_ms r = List.map (fun (s, _) -> 1000.0 *. s) (jobs (best_steps r))

let end_to_end r =
  let steps = best_steps r in
  let ms = job_ms r in
  let outcomes = List.map snd (jobs steps) in
  let values =
    [ Pstats.median r.setup_s;
      float_of_int (List.length ms) /. sum fst steps;
      Pstats.percentile ~pct:50 ms;
      Pstats.percentile ~pct:90 ms;
      r.peak_rss_mb;
      Pstats.geomean (List.filter_map (fun (o : outcome) -> o.footprint) outcomes);
      Pstats.geomean (List.filter_map (fun (o : outcome) -> o.slowdown) outcomes) ]
  in
  List.map2 (fun (name, unit) v -> (name, v, unit)) end_to_end_units values

let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let failed_share r = share (List.length (failures r)) (attempted r)

(* Jobs whose prover report has any failure, over jobs proved. *)
let unproved_share r =
  let proved = List.filter_map (fun (_, (o : outcome)) -> o.proved) (all_jobs r) in
  share (List.length (List.filter not proved)) (List.length proved)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, from a traced run: set-up layers per set-up, timed
   layers per traced pass. *)

let pass_names =
  [ "resolve"; "cold"; "unswitch"; "exclude"; "regions"; "buffer-safe"; "rewrite" ]

let harness_spans = [ "pass"; "prep"; "job" ]

let per_layer r =
  let ctx = r.ctx in
  let spans = ctx.spans.Spans.spans in
  let traced = List.filter (fun p -> p.traced) r.passes in
  let tp = float_of_int (List.length traced) in
  let reps = float_of_int (List.length r.setup_s) in
  let per_setup_and_pass setup timed = (setup /. reps) +. (timed /. tp) in
  let totals = Hashtbl.create 64 in
  let total phase name =
    Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals (phase, name))
  in
  List.iter
    (fun (s : Spans.span) ->
      let d, a = total s.Spans.phase s.Spans.name in
      Hashtbl.replace totals (s.Spans.phase, s.Spans.name)
        (d +. Spans.duration s, a +. s.Spans.alloc_words))
    spans;
  let busy name =
    per_setup_and_pass (fst (total Spans.Setup name)) (fst (total Spans.Timed name))
  in
  let alloc_mw name =
    per_setup_and_pass (snd (total Spans.Setup name)) (snd (total Spans.Timed name)) /. 1e6
  in
  let cnt name =
    per_setup_and_pass
      (Spans.counter ctx.spans Spans.Setup name)
      (Spans.counter ctx.spans Spans.Timed name)
  in
  let replayed name = Spans.counter ctx.spans Spans.Replay name in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let children = Spans.children_index spans in
  let harness_self =
    sum
      (fun (s : Spans.span) -> Spans.self_time ~children:(children s) s)
      (List.filter
         (fun (s : Spans.span) ->
           s.Spans.phase = Spans.Timed && List.mem s.Spans.name harness_spans)
         spans)
    /. tp
  in
  let traced_pass_s = sum (fun p -> p.seconds) traced /. tp in
  let untraced_pass_s =
    let u = untraced r in
    sum (fun p -> p.seconds) u /. float_of_int (List.length u)
  in
  let decompressions = cnt "runtime.decompressions" and hits = cnt "runtime.cache_hits" in
  let creates = cnt "runtime.stub_creates" and reuses = cnt "runtime.stub_reuses" in
  [ ("minic.compile.calls", cnt "minic.compile.calls", "count");
    ("minic.compile.busy_s", busy "minic.compile", "s");
    ("minic.compile.alloc_mw", alloc_mw "minic.compile", "Mw");
    ("squeeze.busy_s", busy "squeeze", "s");
    ( "squeeze.words_ratio",
      ratio (cnt "squeeze.words_out") (cnt "squeeze.words_in"),
      "ratio" );
    ("profile.collect.busy_s", busy "profile.collect", "s");
    ("profile.collect.sim_minstr", cnt "profile.collect.instr" /. 1e6, "Minstr");
    ("vm.create.calls", cnt "vm.create.calls", "count");
    ("vm.create.busy_s", busy "vm.create", "s");
    ("vm.run.busy_s", busy "vm.run", "s");
    ("vm.run.sim_minstr", cnt "vm.run.instr" /. 1e6, "Minstr");
    ("vm.run.sim_mips", ratio (cnt "vm.run.instr") (busy "vm.run") /. 1e6, "Minstr/s");
    ("vm.run.hooks", cnt "vm.run.hooks", "count") ]
  @ List.concat_map
      (fun p ->
        [ (Printf.sprintf "pass.%s.busy_s" p, busy ("pass." ^ p), "s");
          (Printf.sprintf "pass.%s.alloc_mw" p, alloc_mw ("pass." ^ p), "Mw") ])
      pass_names
  @ [ ( "regions.useful_share",
        ratio (cnt "regions.compressed_instrs") (cnt "regions.cold_instrs"),
        "ratio" );
      ("coder.encode.busy_s", fst (total Spans.Replay "coder.encode"), "s");
      ( "coder.encode.bits_per_instr",
        ratio (replayed "coder.encode.bits") (replayed "coder.encode.instrs"),
        "bits/instr" );
      ("coder.decode.busy_s", replayed "coder.decode.replay_s" /. tp, "s");
      ( "coder.decode.mbits_per_s",
        ratio (replayed "coder.decode.replay_bits") (replayed "coder.decode.replay_s")
        /. 1e6,
        "Mbit/s" );
      ("runtime.decompressions", decompressions, "count");
      ("runtime.cache_hits", hits, "count");
      ("runtime.hit_ratio", ratio hits (hits +. decompressions), "ratio");
      ("runtime.words_materialised", cnt "runtime.words_materialised", "count");
      ("runtime.stub_reuse_ratio", ratio reuses (creates +. reuses), "ratio");
      ("runtime.overhead_s", replayed "runtime.overhead_s" /. tp, "s");
      ("verify.busy_s", busy "verify", "s");
      ("verify.errors", cnt "verify.errors", "count");
      ("prove.busy_s", busy "prove", "s");
      ("prove.blocks", cnt "prove.blocks", "count");
      ("prove.conservative", cnt "prove.conservative", "count");
      ("prove.failures", cnt "prove.failures", "count");
      ("prove.unproved_share", unproved_share r, "ratio");
      ("reference.busy_s", busy "reference", "s");
      ("harness.self_s", harness_self, "s");
      ("harness.self_share", ratio harness_self traced_pass_s, "ratio");
      ("trace.overhead_share", (traced_pass_s /. untraced_pass_s) -. 1.0, "ratio") ]

(* ------------------------------------------------------------------ *)
(* Reports. *)

let metrics_json metrics =
  let open Report.Json in
  Obj
    (List.map
       (fun (name, v, unit) -> (name, Obj [ ("value", Float v); ("unit", String unit) ]))
       metrics)

let result_line r metrics =
  let open Report.Json in
  to_string
    (Obj
       [ ("correct", Bool (correct r)); ("attempted", Int (attempted r));
         ("failed", Int (List.length (failures r))); ("metrics", metrics_json metrics) ])

let render_metrics ~title metrics =
  let t =
    Report.Table.create ~title
      [ ("metric", Report.Table.Left); ("value", Report.Table.Right);
        ("unit", Report.Table.Left) ]
  in
  List.iter
    (fun (name, v, unit) -> Report.Table.add_row t [ name; Printf.sprintf "%.6g" v; unit ])
    metrics;
  Report.Table.render t
