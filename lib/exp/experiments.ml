let opts theta = { Squash.default_options with Squash.theta }

let with_all f = List.map (fun wl -> f (Exp_data.prepare wl)) Workloads.all

(* Machine-readable metrics: experiments push (key, value) pairs as they
   run; [sample] collects them after each run for the bench harness's
   [--json] report. *)
let metrics : (string * Report.Json.t) list ref = ref []
let record_metric key v = metrics := (key, v) :: !metrics

type sampled = {
  report : string;
  seconds : float list;
  metrics : (string * Report.Json.t) list;
}

let sample ~repeat f =
  let run () =
    metrics := [];
    Exp_data.reset ();
    let report, cost = Obs.measure f in
    (report, cost.Obs.elapsed_s, List.rev !metrics)
  in
  let report, first, metrics = run () in
  let rest = List.init (repeat - 1) (fun _ -> let _, dt, _ = run () in dt) in
  { report; seconds = first :: rest; metrics }

(* Every driver submits its cell set to the engine up front: the grid is
   evaluated concurrently into the Exp_data memos, then the rendering below
   reads the warm memos.  Cells are listed workload-innermost so the first
   [jobs] dequeued cells touch distinct workloads and their prepare stages
   parallelise.  A failed cell is surfaced as a metric (and will re-raise
   during rendering if the renderer actually needs it). *)
let submit cells =
  let results, stats = Exp_grid.run ~jobs:(Exp_grid.jobs ()) cells in
  record_metric "engine" (Engine.stats_json stats);
  (match Exp_grid.failures results with
  | [] -> ()
  | fs ->
    record_metric "engine_failures"
      (Report.Json.List (List.map Engine.error_json fs)));
  results

let grid_cells ?(timing = false) option_list =
  List.concat_map
    (fun o -> List.map (fun wl -> Exp_grid.cell ~timing wl o) Workloads.all)
    option_list

(* ------------------------------------------------------------------ *)

let table1 () =
  ignore (submit (grid_cells [ opts 0.0 ]));
  let t =
    Report.Table.create ~title:"Table 1: code size data for the benchmarks (instructions)"
      [ ("Program", Report.Table.Left); ("Input", Report.Table.Right);
        ("Squeeze", Report.Table.Right); ("Reduction", Report.Table.Right) ]
  in
  let rows =
    with_all (fun p ->
        let input = Prog.instr_count p.Exp_data.input_prog in
        let squeezed = Prog.instr_count p.Exp_data.squeezed in
        Report.Table.add_row t
          [ p.Exp_data.wl.Workload.name; string_of_int input; string_of_int squeezed;
            Report.Table.cell_percent
              (float_of_int (input - squeezed) /. float_of_int input) ];
        float_of_int squeezed /. float_of_int input)
  in
  Report.Table.add_separator t;
  Report.Table.add_row t
    [ "geo. mean"; ""; "";
      Report.Table.cell_percent (1.0 -. Report.gmean rows) ];
  Report.Table.render t

(* ------------------------------------------------------------------ *)

let fig3_ks = [ 64; 128; 256; 512; 1024; 2048; 4096 ]
let fig3_thetas = [ 0.0; 1e-4; 1e-3 ]

let fig3 () =
  ignore
    (submit
       (grid_cells
          (List.concat_map
             (fun theta ->
               List.map (fun k -> { (opts theta) with Squash.k_bytes = k }) fig3_ks)
             fig3_thetas)));
  let size_ratio p theta k =
    let r =
      Exp_data.squash_result p { (opts theta) with Squash.k_bytes = k }
    in
    float_of_int r.Squash.squashed_words /. float_of_int r.Squash.original_words
  in
  let chart =
    Report.Chart.create
      ~title:
        "Figure 3: effect of the buffer size bound K on code size\n\
         (squashed size / squeezed size; geometric mean over all benchmarks)"
      ~x_labels:(List.map string_of_int fig3_ks) ~height:14 ()
  in
  let t =
    Report.Table.create ~title:"Figure 3 data (squashed/squeezed, geometric mean)"
      (("theta \\ K", Report.Table.Left)
      :: List.map (fun k -> (string_of_int k, Report.Table.Right)) fig3_ks)
  in
  List.iter
    (fun theta ->
      let means =
        List.map
          (fun k -> Report.gmean (with_all (fun p -> size_ratio p theta k)))
          fig3_ks
      in
      Report.Chart.add_series chart ~name:("theta=" ^ Exp_data.theta_label theta) means;
      Report.Table.add_row t
        (Exp_data.theta_label theta :: List.map (Report.Table.cell_float ~decimals:3) means))
    fig3_thetas;
  let overall =
    List.map
      (fun k ->
        Report.gmean
          (List.concat_map
             (fun theta -> with_all (fun p -> size_ratio p theta k))
             fig3_thetas))
      fig3_ks
  in
  Report.Chart.add_series chart ~name:"mean" overall;
  Report.Table.add_separator t;
  Report.Table.add_row t
    ("mean" :: List.map (Report.Table.cell_float ~decimals:3) overall);
  Report.Chart.render chart ^ "\n" ^ Report.Table.render t

(* ------------------------------------------------------------------ *)

let fig4 () =
  ignore (submit (grid_cells (List.map opts Exp_data.theta_grid)));
  let chart =
    Report.Chart.create
      ~title:
        "Figure 4: amount of cold and compressible code (fraction of all\n\
         instructions; geometric mean over all benchmarks)"
      ~x_labels:(List.map Exp_data.theta_label Exp_data.theta_grid) ~height:12 ()
  in
  let t =
    Report.Table.create ~title:"Figure 4 data"
      (("fraction \\ theta", Report.Table.Left)
      :: List.map
           (fun th -> (Exp_data.theta_label th, Report.Table.Right))
           Exp_data.theta_grid)
  in
  let cold_fracs =
    List.map
      (fun theta ->
        Report.gmean
          (with_all (fun p ->
               let r = Exp_data.squash_result p (opts theta) in
               Cold.cold_fraction r.Squash.cold)))
      Exp_data.theta_grid
  in
  let compressible_fracs =
    List.map
      (fun theta ->
        Report.gmean
          (with_all (fun p ->
               let r = Exp_data.squash_result p (opts theta) in
               float_of_int (Squash.compressed_instr_count r)
               /. float_of_int (Cold.total_instr_count r.Squash.cold))))
      Exp_data.theta_grid
  in
  Report.Chart.add_series chart ~name:"cold" cold_fracs;
  Report.Chart.add_series chart ~name:"compressible" compressible_fracs;
  Report.Table.add_row t
    ("cold" :: List.map (Report.Table.cell_float ~decimals:3) cold_fracs);
  Report.Table.add_row t
    ("compressible" :: List.map (Report.Table.cell_float ~decimals:3) compressible_fracs);
  Report.Chart.render chart ^ "\n" ^ Report.Table.render t

(* ------------------------------------------------------------------ *)

let fig5 () =
  let t =
    Report.Table.create ~title:"Figure 5: inputs used for profiling and timing runs"
      [ ("Program", Report.Table.Left); ("Profiling input (bytes)", Report.Table.Right);
        ("Timing input (bytes)", Report.Table.Right);
        ("Ratio", Report.Table.Right) ]
  in
  List.iter
    (fun (wl : Workload.t) ->
      let p = String.length (Workload.profiling_input wl) in
      let tm = String.length (Workload.timing_input wl) in
      Report.Table.add_row t
        [ wl.Workload.name; string_of_int p; string_of_int tm;
          Report.Table.cell_float ~decimals:1 (float_of_int tm /. float_of_int p) ])
    Workloads.all;
  Report.Table.render t

(* ------------------------------------------------------------------ *)

let fig6 () =
  ignore (submit (grid_cells (List.map opts Exp_data.theta_grid)));
  let t =
    Report.Table.create
      ~title:"Figure 6: code size reduction due to profile-guided compression (vs squeezed)"
      (("Program", Report.Table.Left)
      :: List.map
           (fun th -> ("θ=" ^ Exp_data.theta_label th, Report.Table.Right))
           Exp_data.theta_grid)
  in
  let per_theta = Hashtbl.create 16 in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let cells =
        List.map
          (fun theta ->
            let r = Exp_data.squash_result p (opts theta) in
            let red = Squash.size_reduction r in
            Hashtbl.replace per_theta theta
              (red :: Option.value ~default:[] (Hashtbl.find_opt per_theta theta));
            Report.Table.cell_percent red)
          Exp_data.theta_grid
      in
      Report.Table.add_row t (wl.Workload.name :: cells))
    Workloads.all;
  Report.Table.add_separator t;
  let means =
    List.map
      (fun theta ->
        let rs = Option.value ~default:[] (Hashtbl.find_opt per_theta theta) in
        let ratios = List.map (fun red -> 1.0 -. red) rs in
        1.0 -. Report.gmean ratios)
      Exp_data.theta_grid
  in
  Report.Table.add_row t ("geo. mean" :: List.map Report.Table.cell_percent means);
  record_metric "size_reduction_geomean"
    (Report.Json.Obj
       (List.map2
          (fun theta m -> (Exp_data.theta_label theta, Report.Json.Float m))
          Exp_data.theta_grid means));
  let chart =
    Report.Chart.create ~title:"Figure 6 (mean size reduction vs θ)"
      ~x_labels:(List.map Exp_data.theta_label Exp_data.theta_grid) ~height:10 ()
  in
  Report.Chart.add_series chart ~name:"mean reduction" means;
  Report.Table.render t ^ "\n" ^ Report.Chart.render chart

(* ------------------------------------------------------------------ *)

let fig7 () =
  ignore
    (submit
       (grid_cells ~timing:true
          (List.map (fun (_, th) -> opts th) Exp_data.fig7_thetas)));
  let size_t =
    Report.Table.create
      ~title:
        "Figure 7(a): code size relative to squeezed code\n\
         (θ labels are the paper's; parenthesised values are our scaled θ)"
      (("Program", Report.Table.Left)
      :: List.map
           (fun (label, th) ->
             (Printf.sprintf "θ=%s (%g)" label th, Report.Table.Right))
           Exp_data.fig7_thetas)
  in
  let time_t =
    Report.Table.create
      ~title:"Figure 7(b): execution time relative to squeezed code (simulated cycles)"
      (("Program", Report.Table.Left)
      :: List.map
           (fun (label, th) ->
             (Printf.sprintf "θ=%s (%g)" label th, Report.Table.Right))
           Exp_data.fig7_thetas
      @ [ ("decompressions θ_max", Report.Table.Right) ])
  in
  let size_ratios = Hashtbl.create 8 and time_ratios = Hashtbl.create 8 in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let baseline = Exp_data.baseline_timing p in
      let size_cells, time_cells, last_stats =
        List.fold_left
          (fun (sc, tc, _) (label, theta) ->
            let r = Exp_data.squash_result p (opts theta) in
            let outcome, stats = Exp_data.timing_run p r in
            let sratio =
              float_of_int r.Squash.squashed_words
              /. float_of_int r.Squash.original_words
            in
            let tratio =
              float_of_int outcome.Vm.cycles /. float_of_int baseline.Vm.cycles
            in
            Hashtbl.replace size_ratios label
              (sratio :: Option.value ~default:[] (Hashtbl.find_opt size_ratios label));
            Hashtbl.replace time_ratios label
              (tratio :: Option.value ~default:[] (Hashtbl.find_opt time_ratios label));
            ( Report.Table.cell_float ~decimals:3 sratio :: sc,
              Report.Table.cell_float ~decimals:3 tratio :: tc,
              Some stats ))
          ([], [], None) Exp_data.fig7_thetas
      in
      Report.Table.add_row size_t (wl.Workload.name :: List.rev size_cells);
      Report.Table.add_row time_t
        (wl.Workload.name :: List.rev time_cells
        @ [ string_of_int
              (match last_stats with
              | Some s -> s.Runtime.decompressions
              | None -> 0) ]))
    Workloads.all;
  let add_means tbl ratios extra =
    Report.Table.add_separator tbl;
    Report.Table.add_row tbl
      ("geo. mean"
      :: List.map
           (fun (label, _) ->
             Report.Table.cell_float ~decimals:3
               (Report.gmean (Option.value ~default:[] (Hashtbl.find_opt ratios label))))
           Exp_data.fig7_thetas
      @ extra)
  in
  add_means size_t size_ratios [];
  add_means time_t time_ratios [ "" ];
  Report.Table.render size_t ^ "\n" ^ Report.Table.render time_t

(* ------------------------------------------------------------------ *)

let gamma () =
  ignore (submit (grid_cells [ opts 1.0 ]));
  let t =
    Report.Table.create
      ~title:
        "Section 3: achieved compression factor γ (compressed size incl. code\n\
         tables / original size of compressed regions); paper reports ≈ 0.66"
      [ ("Program", Report.Table.Left); ("γ at θ=1.0", Report.Table.Right);
        ("regions", Report.Table.Right); ("entries", Report.Table.Right) ]
  in
  let gs =
    with_all (fun p ->
        let r = Exp_data.squash_result p (opts 1.0) in
        let g = Squash.gamma_achieved r in
        Report.Table.add_row t
          [ p.Exp_data.wl.Workload.name; Report.Table.cell_float g;
            string_of_int (Array.length r.Squash.regions.Regions.regions);
            string_of_int (Hashtbl.length r.Squash.regions.Regions.entries) ];
        g)
  in
  Report.Table.add_separator t;
  Report.Table.add_row t
    [ "geo. mean"; Report.Table.cell_float (Report.gmean gs); ""; "" ];
  Report.Table.render t

(* ------------------------------------------------------------------ *)

let stubs () =
  let theta_aggressive = 0.01 in
  ignore (submit (grid_cells ~timing:true [ opts theta_aggressive ]));
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "Section 2.2: restore stubs at θ=%g (paper: compile-time stubs would\n\
            cost 13-27%% of never-compressed code; max 9 live runtime stubs)"
           theta_aggressive)
      [ ("Program", Report.Table.Left);
        ("compile-time stub share", Report.Table.Right);
        ("created", Report.Table.Right); ("reused", Report.Table.Right);
        ("max live", Report.Table.Right) ]
  in
  let shares = ref [] in
  let max_live = ref 0 in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let r = Exp_data.squash_result p (opts theta_aggressive) in
      (* What the compile-time scheme would cost: one 2-word stub per
         expanding call site in the compressed streams. *)
      let call_sites =
        Array.fold_left
          (fun acc (img : Rewrite.region_image) ->
            acc + List.length (List.filter Rewrite.is_marker img.Rewrite.stream))
          0 r.Squash.squashed.Rewrite.images
      in
      let never = Rewrite.never_compressed_words r.Squash.squashed in
      let share = float_of_int (2 * call_sites) /. float_of_int never in
      shares := share :: !shares;
      let _, stats = Exp_data.timing_run p r in
      max_live := max !max_live stats.Runtime.max_live_stubs;
      Report.Table.add_row t
        [ wl.Workload.name; Report.Table.cell_percent share;
          string_of_int stats.Runtime.stub_creates;
          string_of_int stats.Runtime.stub_reuses;
          string_of_int stats.Runtime.max_live_stubs ])
    Workloads.all;
  Report.Table.add_separator t;
  Report.Table.add_row t
    [ "mean / max"; Report.Table.cell_percent
        (List.fold_left ( +. ) 0.0 !shares /. float_of_int (List.length !shares));
      ""; ""; string_of_int !max_live ];
  Report.Table.render t

(* ------------------------------------------------------------------ *)

let bsafe () =
  ignore (submit (grid_cells [ opts 0.0 ]));
  let t =
    Report.Table.create
      ~title:
        "Section 6.1: buffer-safe analysis at θ=0 (paper: ≈12.5% of regions\n\
         benefit; gsm and g721_enc the most)"
      [ ("Program", Report.Table.Left); ("safe funcs", Report.Table.Right);
        ("total funcs", Report.Table.Right);
        ("safe call sites in regions", Report.Table.Right);
        ("direct sites", Report.Table.Right);
        ("indirect sites", Report.Table.Right);
        ("share", Report.Table.Right) ]
  in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let r = Exp_data.squash_result p (opts 0.0) in
      let safe = List.length (Buffer_safe.safe_functions r.Squash.buffer_safe) in
      let total = List.length p.Exp_data.squeezed.Prog.funcs in
      let `Safe_calls sc, `Direct_calls dc, `Indirect_calls ic =
        Buffer_safe.stats p.Exp_data.squeezed r.Squash.buffer_safe
          ~in_region:(fun f b -> Regions.block_region r.Squash.regions f b <> None)
      in
      Report.Table.add_row t
        [ wl.Workload.name; string_of_int safe; string_of_int total;
          string_of_int sc; string_of_int dc; string_of_int ic;
          (if dc = 0 then "-" else Report.Table.cell_percent (float_of_int sc /. float_of_int dc)) ])
    Workloads.all;
  Report.Table.render t

(* ------------------------------------------------------------------ *)

let ablation () =
  let theta = 1e-3 in
  let base = opts theta in
  let variants =
    [ ("default", base);
      ("packing off", { base with Squash.pack = false });
      ("buffer-safe off", { base with Squash.use_buffer_safe = false });
      ("sharp buffer-safe", { base with Squash.sharp_buffer_safe = true });
      ("unswitch off", { base with Squash.unswitch = false });
      ("Context coder", { base with Squash.coder = `Context });
      ("linear regions", { base with Squash.regions_strategy = `Linear }) ]
  in
  ignore (submit (grid_cells (List.map snd variants)));
  let t =
    Report.Table.create
      ~title:(Printf.sprintf "Ablation at θ=%g: squashed size / squeezed size" theta)
      (("Program", Report.Table.Left)
      :: List.map (fun (name, _) -> (name, Report.Table.Right)) variants)
  in
  let sums = Hashtbl.create 8 in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let cells =
        List.map
          (fun (name, o) ->
            let r = Exp_data.squash_result p o in
            let ratio =
              float_of_int r.Squash.squashed_words
              /. float_of_int r.Squash.original_words
            in
            Hashtbl.replace sums name
              (ratio :: Option.value ~default:[] (Hashtbl.find_opt sums name));
            Report.Table.cell_float ~decimals:3 ratio)
          variants
      in
      Report.Table.add_row t (wl.Workload.name :: cells))
    Workloads.all;
  Report.Table.add_separator t;
  Report.Table.add_row t
    ("geo. mean"
    :: List.map
         (fun (name, _) ->
           Report.Table.cell_float ~decimals:3
             (Report.gmean (Option.value ~default:[] (Hashtbl.find_opt sums name))))
         variants);
  Report.Table.render t

(* ------------------------------------------------------------------ *)

let coders () =
  (* Head-to-head: the paper's split-stream coder vs the order-1 context
     coder, on everything the regions pass hands to the coder at θ=1.0
     (all compressible code).  Bits/instruction includes the shipped code
     tables, so a context model only wins by genuinely out-coding the
     baseline's single-code-per-stream scheme. *)
  let theta = 1.0 in
  let huff = opts theta in
  let ctx = { huff with Squash.coder = `Context } in
  ignore (submit (grid_cells [ huff; ctx ]));
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "Coder ablation at θ=%g: total compressed bits/instruction (incl. tables)"
           theta)
      [ ("Program", Report.Table.Left); ("instrs", Report.Table.Right);
        ("huffman b/i", Report.Table.Right); ("context b/i", Report.Table.Right);
        ("Δ", Report.Table.Right); ("huffman tbl", Report.Table.Right);
        ("context tbl", Report.Table.Right) ]
  in
  let wins = ref 0 and total = ref 0 in
  let ratios = ref [] in
  let stream_rows = Hashtbl.create 16 in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let bits_per_instr o =
        let r = Exp_data.squash_result p o in
        let codes = r.Squash.squashed.Rewrite.codes in
        let streams =
          Array.map
            (fun (img : Rewrite.region_image) -> img.Rewrite.stream)
            r.Squash.squashed.Rewrite.images
        in
        let stream_bits = Compress.stream_bits codes streams in
        let payload = List.fold_left (fun acc (_, b) -> acc + b) 0 stream_bits in
        let table = Compress.table_bits codes in
        let instrs = Squash.compressed_instr_count r in
        (payload + table, table, instrs, stream_bits)
      in
      let hb, ht, hi, h_streams = bits_per_instr huff in
      let cb, ct, ci, c_streams = bits_per_instr ctx in
      assert (hi = ci);
      let per i total = float_of_int total /. float_of_int (max 1 i) in
      incr total;
      if cb < hb then incr wins;
      ratios := (per hi (cb - hb) /. per hi hb) :: !ratios;
      List.iter
        (fun (name, b) ->
          let h, c = Option.value ~default:(0, 0) (Hashtbl.find_opt stream_rows name) in
          Hashtbl.replace stream_rows name (h + b, c))
        h_streams;
      List.iter
        (fun (name, b) ->
          let h, c = Option.value ~default:(0, 0) (Hashtbl.find_opt stream_rows name) in
          Hashtbl.replace stream_rows name (h, c + b))
        c_streams;
      Report.Table.add_row t
        [ wl.Workload.name; string_of_int hi;
          Report.Table.cell_float ~decimals:2 (per hi hb);
          Report.Table.cell_float ~decimals:2 (per ci cb);
          Report.Table.cell_percent ~decimals:1
            (float_of_int (cb - hb) /. float_of_int hb);
          string_of_int ht; string_of_int ct ])
    Workloads.all;
  Report.Table.add_separator t;
  Report.Table.add_row t
    [ Printf.sprintf "context wins %d/%d" !wins !total; ""; ""; ""; ""; ""; "" ];
  record_metric "coder_context_wins"
    (Report.Json.Obj
       [ ("wins", Report.Json.Int !wins); ("total", Report.Json.Int !total) ]);
  (* Where the bits move: per-stream totals summed over all workloads. *)
  let t2 =
    Report.Table.create
      ~title:"Per-stream payload bits, summed over all workloads (θ=1.0)"
      [ ("Stream", Report.Table.Left); ("huffman", Report.Table.Right);
        ("context", Report.Table.Right); ("Δ", Report.Table.Right) ]
  in
  List.iter
    (fun stream ->
      let name = Instr.stream_name stream in
      match Hashtbl.find_opt stream_rows name with
      | None -> ()
      | Some (h, c) ->
        Report.Table.add_row t2
          [ name; string_of_int h; string_of_int c;
            (if h = 0 then "-"
             else Report.Table.cell_percent ~decimals:1
                    (float_of_int (c - h) /. float_of_int h)) ])
    Instr.all_streams;
  Report.Table.render t ^ "\n" ^ Report.Table.render t2

(* ------------------------------------------------------------------ *)

let passes () =
  let theta = 1e-3 in
  ignore (submit (grid_cells [ opts theta ]));
  let pass_names = Pipeline.names (Pipeline.of_options (opts theta)) in
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "Pipeline: where squash time goes at θ=%g (per-pass wall clock, ms)"
           theta)
      (("Program", Report.Table.Left)
      :: List.map (fun n -> (n, Report.Table.Right)) pass_names
      @ [ ("total", Report.Table.Right) ])
  in
  let sums = Hashtbl.create 8 in
  let totals = ref [] in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let r = Exp_data.squash_result p (opts theta) in
      let stats = r.Squash.stats in
      let cells =
        List.map
          (fun name ->
            match
              List.find_opt
                (fun (s : Pass.stats) -> s.Pass.pass_name = name)
                stats.Pipeline.passes
            with
            | None -> "-"
            | Some s ->
              Hashtbl.replace sums name
                (s.Pass.cost.Obs.elapsed_s
                +. Option.value ~default:0.0 (Hashtbl.find_opt sums name));
              Report.Table.cell_float ~decimals:2
                (1000.0 *. s.Pass.cost.Obs.elapsed_s))
          pass_names
      in
      totals := stats.Pipeline.total_s :: !totals;
      Report.Table.add_row t
        ((wl.Workload.name :: cells)
        @ [ Report.Table.cell_float ~decimals:2 (1000.0 *. stats.Pipeline.total_s) ]))
    Workloads.all;
  Report.Table.add_separator t;
  let grand_total = List.fold_left ( +. ) 0.0 !totals in
  Report.Table.add_row t
    (("sum (share)"
     :: List.map
          (fun name ->
            let s = Option.value ~default:0.0 (Hashtbl.find_opt sums name) in
            Printf.sprintf "%.2f (%s)" (1000.0 *. s)
              (if grand_total > 0.0 then
                 Report.Table.cell_percent ~decimals:1 (s /. grand_total)
               else "-"))
          pass_names)
    @ [ Report.Table.cell_float ~decimals:2 (1000.0 *. grand_total) ]);
  (* Before/after of the PR-2 packing rework: rebuild each workload's
     regions at the most aggressive threshold with the per-round rescan
     reference and with the incremental packer, on exactly the inputs the
     pipeline's regions pass saw.  The partitions are checked identical;
     only the time may differ. *)
  let theta_pack = 1.0 in
  let t2 =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "Region formation at θ=%g: per-round rescan reference vs incremental \
            packer (ms)"
           theta_pack)
      [ ("Program", Report.Table.Left); ("rescan", Report.Table.Right);
        ("incremental", Report.Table.Right); ("speedup", Report.Table.Right) ]
  in
  let tot_rescan = ref 0.0 and tot_inc = ref 0.0 in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let r = Exp_data.squash_result p (opts theta_pack) in
      let o = r.Squash.options in
      let prog = r.Squash.squashed.Rewrite.prog in
      let compressible f b =
        (not (List.mem f r.Squash.excluded_funcs))
        && (Cold.is_cold r.Squash.cold f b
           || Profile.freq p.Exp_data.profile f b = 0)
      in
      let params =
        {
          Regions.k_bytes = o.Squash.k_bytes;
          gamma = o.Squash.gamma;
          pack = o.Squash.pack;
          strategy = o.Squash.regions_strategy;
        }
      in
      let time packer =
        let t, cost =
          Obs.measure (fun () -> Regions.build ~packer prog ~compressible ~params)
        in
        (cost.Obs.elapsed_s, t)
      in
      let d_rescan, t_rescan = time `Rescan in
      let d_inc, t_inc = time `Incremental in
      let fingerprint (t : Regions.t) =
        Array.map (fun (rg : Regions.region) -> rg.Regions.blocks) t.Regions.regions
      in
      if fingerprint t_rescan <> fingerprint t_inc then
        failwith (wl.Workload.name ^ ": packers disagree");
      tot_rescan := !tot_rescan +. d_rescan;
      tot_inc := !tot_inc +. d_inc;
      Report.Table.add_row t2
        [ wl.Workload.name;
          Report.Table.cell_float ~decimals:2 (1000.0 *. d_rescan);
          Report.Table.cell_float ~decimals:2 (1000.0 *. d_inc);
          Printf.sprintf "%.1fx" (d_rescan /. d_inc) ])
    Workloads.all;
  Report.Table.add_separator t2;
  let speedup = !tot_rescan /. !tot_inc in
  Report.Table.add_row t2
    [ "sum"; Report.Table.cell_float ~decimals:2 (1000.0 *. !tot_rescan);
      Report.Table.cell_float ~decimals:2 (1000.0 *. !tot_inc);
      Printf.sprintf "%.1fx" speedup ];
  record_metric "region_formation_rescan_s" (Report.Json.Float !tot_rescan);
  record_metric "region_formation_incremental_s" (Report.Json.Float !tot_inc);
  record_metric "region_formation_speedup" (Report.Json.Float speedup);
  Report.Table.render t ^ "\n" ^ Report.Table.render t2

(* ------------------------------------------------------------------ *)

let slots_counts = [ 1; 2; 4; 8 ]
let slots_thetas = [ 1e-3; 1e-2 ]

let slots_surface () =
  (* The Fig. 7-style surface for the region cache: slowdown vs squeezed
     as the slot count grows, at two aggressive thresholds.  Extra slots
     trade memory ((slots-1)·buffer_words words of RAM per benchmark) for
     fewer re-inflations; slots=1 already benefits from the resident-region
     fast path (a stub return into the still-materialised region is a
     cache hit, not a decompression). *)
  ignore
    (submit
       (List.concat_map
          (fun slots ->
            List.concat_map
              (fun theta ->
                List.map
                  (fun wl -> Exp_grid.cell ~timing:true ~slots wl (opts theta))
                  Workloads.all)
              slots_thetas)
          slots_counts));
  let hits_total = ref 0 in
  let metric_rows = ref [] in
  let sections =
    List.map
      (fun theta ->
        let t =
          Report.Table.create
            ~title:
              (Printf.sprintf
                 "Slots surface at θ=%s: slowdown vs squeezed\n\
                  (cells are time ratio, then decompressions/cache hits)"
                 (Exp_data.theta_label theta))
            (("Program", Report.Table.Left)
            :: List.map
                 (fun s -> (Printf.sprintf "slots=%d" s, Report.Table.Right))
                 slots_counts
            @ [ ("extra RAM (words)", Report.Table.Right) ])
        in
        let per_slot = Hashtbl.create 8 in
        List.iter
          (fun wl ->
            let p = Exp_data.prepare wl in
            let baseline = Exp_data.baseline_timing p in
            let r = Exp_data.squash_result p (opts theta) in
            let bw = r.Squash.squashed.Rewrite.buffer_words in
            let cells =
              List.map
                (fun slots ->
                  let outcome, stats = Exp_data.timing_run ~slots p r in
                  let ratio =
                    float_of_int outcome.Vm.cycles
                    /. float_of_int baseline.Vm.cycles
                  in
                  hits_total := !hits_total + stats.Runtime.cache_hits;
                  Hashtbl.replace per_slot slots
                    (ratio
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt per_slot slots));
                  metric_rows :=
                    Report.Json.Obj
                      [ ("workload", Report.Json.String wl.Workload.name);
                        ("theta", Report.Json.Float theta);
                        ("slots", Report.Json.Int slots);
                        ("time_ratio", Report.Json.Float ratio);
                        ("decompressions",
                         Report.Json.Int stats.Runtime.decompressions);
                        ("cache_hits", Report.Json.Int stats.Runtime.cache_hits);
                        ("cache_evictions",
                         Report.Json.Int stats.Runtime.cache_evictions) ]
                    :: !metric_rows;
                  Printf.sprintf "%.3f %d/%d" ratio stats.Runtime.decompressions
                    stats.Runtime.cache_hits)
                slots_counts
            in
            Report.Table.add_row t
              (wl.Workload.name :: cells
              @ [ string_of_int ((List.fold_left max 1 slots_counts - 1) * bw) ]))
          Workloads.all;
        Report.Table.add_separator t;
        Report.Table.add_row t
          ("geo. mean"
          :: List.map
               (fun slots ->
                 Report.Table.cell_float ~decimals:3
                   (Report.gmean
                      (Option.value ~default:[]
                         (Hashtbl.find_opt per_slot slots))))
               slots_counts
          @ [ "" ]);
        Report.Table.render t)
      slots_thetas
  in
  record_metric "cache_hits_total" (Report.Json.Int !hits_total);
  record_metric "slots_surface" (Report.Json.List (List.rev !metric_rows));
  String.concat "\n" sections

(* ------------------------------------------------------------------ *)

let p8_theta = 1e-3
let p8_periods = [ 1; 16; 64; 256 ]
let p8_seed = 7
let p8_decay_factor = 0.5
let p8_decay_steps = [ 1; 2; 4; 8 ]
let p8_truncate_keep = 16

(* The lifecycle axis: which profile guides compression.  Every variant is
   run on the drift input, so "exact(A)" is the realistic cross-input case
   (train on A, run on B) and "oracle(B)" its best-case bound. *)
let p8_specs =
  [ ("exact(A)", Exp_data.Pexact); ("oracle(B)", Exp_data.Poracle) ]
  @ List.map
      (fun period ->
        ( Printf.sprintf "sampled p=%d" period,
          Exp_data.Psampled { period; seed = p8_seed } ))
      p8_periods
  @ List.map
      (fun steps ->
        ( Printf.sprintf "decay n=%d" steps,
          Exp_data.Pdecayed { factor = p8_decay_factor; steps } ))
      p8_decay_steps
  @ [ ( Printf.sprintf "top-%d" p8_truncate_keep,
        Exp_data.Ptruncated { keep = p8_truncate_keep } ) ]

let lifecycle () =
  let o = opts p8_theta in
  ignore
    (submit
       (List.concat_map
          (fun (_, pspec) ->
            List.map
              (fun wl -> Exp_grid.cell ~timing:true ~pspec ~run_on:`Drift wl o)
              Workloads.all)
          p8_specs));
  let spec_cols =
    List.map (fun (name, _) -> (name, Report.Table.Right)) p8_specs
  in
  let t_size =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "P8(a): footprint under lifecycle profiles at θ=%g\n\
            (squashed/squeezed; compressed with the column's profile)"
           p8_theta)
      (("Program", Report.Table.Left) :: spec_cols)
  in
  let t_time =
    Report.Table.create
      ~title:
        "P8(b): slowdown on the drift input (cycles vs squeezed on the same \
         input)"
      (("Program", Report.Table.Left) :: spec_cols)
  in
  let t_dist =
    Report.Table.create
      ~title:
        "P8(c): profile distance to the drift-input oracle\n\
         (total variation on normalised block weights, 0=identical)"
      (("Program", Report.Table.Left) :: spec_cols)
  in
  let acc : (string, float list) Hashtbl.t = Hashtbl.create 64 in
  let push key v =
    Hashtbl.replace acc key (v :: Option.value ~default:[] (Hashtbl.find_opt acc key))
  in
  let mean_of key =
    Report.gmean (Option.value ~default:[] (Hashtbl.find_opt acc key))
  in
  let avg_of key =
    match Option.value ~default:[] (Hashtbl.find_opt acc key) with
    | [] -> 0.0
    | vs -> List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
  in
  let metric_rows = ref [] in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let baseline = Exp_data.baseline_timing ~on:`Drift p in
      let oracle_profile = Exp_data.profile_for p Exp_data.Poracle in
      let size_cells, time_cells, dist_cells =
        List.fold_left
          (fun (sc, tc, dc) (name, pspec) ->
            let r = Exp_data.squash_result ~pspec p o in
            let outcome, _stats = Exp_data.timing_run ~pspec ~on:`Drift p r in
            let sratio =
              float_of_int r.Squash.squashed_words
              /. float_of_int r.Squash.original_words
            in
            let tratio =
              float_of_int outcome.Vm.cycles /. float_of_int baseline.Vm.cycles
            in
            let dist =
              Profile_ops.distance (Exp_data.profile_for p pspec) oracle_profile
            in
            push ("size:" ^ name) sratio;
            push ("time:" ^ name) tratio;
            push ("dist:" ^ name) dist;
            metric_rows :=
              Report.Json.Obj
                [ ("workload", Report.Json.String wl.Workload.name);
                  ("profile", Report.Json.String (Exp_data.spec_label pspec));
                  ("size_ratio", Report.Json.Float sratio);
                  ("time_ratio", Report.Json.Float tratio);
                  ("distance", Report.Json.Float dist) ]
              :: !metric_rows;
            ( Report.Table.cell_float ~decimals:3 sratio :: sc,
              Report.Table.cell_float ~decimals:3 tratio :: tc,
              Report.Table.cell_float ~decimals:3 dist :: dc ))
          ([], [], []) p8_specs
      in
      Report.Table.add_row t_size (wl.Workload.name :: List.rev size_cells);
      Report.Table.add_row t_time (wl.Workload.name :: List.rev time_cells);
      Report.Table.add_row t_dist (wl.Workload.name :: List.rev dist_cells))
    Workloads.all;
  let add_mean tbl kind agg =
    Report.Table.add_separator tbl;
    Report.Table.add_row tbl
      ((match agg with `Geo -> "geo. mean" | `Avg -> "mean")
      :: List.map
           (fun (name, _) ->
             Report.Table.cell_float ~decimals:3
               (match agg with
               | `Geo -> mean_of (kind ^ ":" ^ name)
               | `Avg -> avg_of (kind ^ ":" ^ name)))
           p8_specs)
  in
  add_mean t_size "size" `Geo;
  add_mean t_time "time" `Geo;
  add_mean t_dist "dist" `Avg;
  (* Degradation surfaces: fidelity (sampling period) and staleness
     (decay applications) against footprint, slowdown and distance. *)
  let chart_fidelity =
    Report.Chart.create
      ~title:
        "P8: degradation vs sampling period (geo-mean footprint & slowdown,\n\
         mean distance to oracle; drift-input runs)"
      ~x_labels:(List.map string_of_int p8_periods)
      ~height:12 ()
  in
  let series kind agg names =
    List.map
      (fun n ->
        match agg with `Geo -> mean_of (kind ^ ":" ^ n) | `Avg -> avg_of (kind ^ ":" ^ n))
      names
  in
  let sampled_names = List.map (fun p -> Printf.sprintf "sampled p=%d" p) p8_periods in
  Report.Chart.add_series chart_fidelity ~name:"footprint"
    (series "size" `Geo sampled_names);
  Report.Chart.add_series chart_fidelity ~name:"slowdown"
    (series "time" `Geo sampled_names);
  Report.Chart.add_series chart_fidelity ~name:"distance"
    (series "dist" `Avg sampled_names);
  let chart_staleness =
    Report.Chart.create
      ~title:
        (Printf.sprintf
           "P8: degradation vs staleness (decay %g applied n times)"
           p8_decay_factor)
      ~x_labels:(List.map string_of_int p8_decay_steps)
      ~height:12 ()
  in
  let decayed_names = List.map (fun n -> Printf.sprintf "decay n=%d" n) p8_decay_steps in
  Report.Chart.add_series chart_staleness ~name:"footprint"
    (series "size" `Geo decayed_names);
  Report.Chart.add_series chart_staleness ~name:"slowdown"
    (series "time" `Geo decayed_names);
  Report.Chart.add_series chart_staleness ~name:"distance"
    (series "dist" `Avg decayed_names);
  record_metric "lifecycle" (Report.Json.List (List.rev !metric_rows));
  (* Iterative stability: squash, re-profile the squashed image on the
     profiling input (buffer executions are unattributable, so compressed
     code stays cold), re-squash with the derived profile, and require the
     footprint to settle.  Each intermediate image's behaviour is checked
     against the unsquashed profiling run. *)
  let t_stab =
    Report.Table.create
      ~title:
        (Printf.sprintf
           "P8(d): iterative stability at θ=%g — squash, re-profile the \
            squashed image, re-squash\n\
            (squashed words per iteration; Δ is the last step's relative \
            change)"
           p8_theta)
      [ ("Program", Report.Table.Left); ("iter0", Report.Table.Right);
        ("iter1", Report.Table.Right); ("iter2", Report.Table.Right);
        ("Δ last", Report.Table.Right); ("reprofile dist", Report.Table.Right) ]
  in
  let stab_rows = ref [] in
  List.iter
    (fun wl ->
      let p = Exp_data.prepare wl in
      let verify (outcome : Vm.outcome) =
        if
          outcome.Vm.output <> p.Exp_data.profile_outcome.Vm.output
          || outcome.Vm.exit_code <> p.Exp_data.profile_outcome.Vm.exit_code
        then
          failwith
            (wl.Workload.name
           ^ ": squashed image diverged on the profiling input during \
              re-profiling")
      in
      let input = Workload.profiling_input wl in
      let r0 = Exp_data.squash_result p o in
      let prof1, out0 = Exp_data.reprofile_squashed r0 ~input in
      verify out0;
      let r1 = Exp_data.squash_with_profile p o prof1 in
      let prof2, out1 = Exp_data.reprofile_squashed r1 ~input in
      verify out1;
      let r2 = Exp_data.squash_with_profile p o prof2 in
      let _, out2 = Exp_data.reprofile_squashed r2 ~input in
      verify out2;
      let s0 = r0.Squash.squashed_words in
      let s1 = r1.Squash.squashed_words in
      let s2 = r2.Squash.squashed_words in
      let delta = Float.abs (float_of_int (s2 - s1)) /. float_of_int (max 1 s1) in
      if delta > 0.10 then
        failwith
          (Printf.sprintf "%s: iterative re-squash did not converge (Δ=%.1f%%)"
             wl.Workload.name (100.0 *. delta));
      let rdist = Profile_ops.distance p.Exp_data.profile prof1 in
      stab_rows :=
        Report.Json.Obj
          [ ("workload", Report.Json.String wl.Workload.name);
            ("iter0", Report.Json.Int s0); ("iter1", Report.Json.Int s1);
            ("iter2", Report.Json.Int s2); ("delta", Report.Json.Float delta);
            ("reprofile_distance", Report.Json.Float rdist) ]
        :: !stab_rows;
      Report.Table.add_row t_stab
        [ wl.Workload.name; string_of_int s0; string_of_int s1; string_of_int s2;
          Report.Table.cell_percent ~decimals:2 delta;
          Report.Table.cell_float ~decimals:3 rdist ])
    Workloads.all;
  record_metric "lifecycle_stability" (Report.Json.List (List.rev !stab_rows));
  String.concat "\n"
    [ Report.Table.render t_size; Report.Table.render t_time;
      Report.Table.render t_dist; Report.Chart.render chart_fidelity;
      Report.Chart.render chart_staleness; Report.Table.render t_stab ]

let all =
  [ ("T1", table1); ("F3", fig3); ("F4", fig4); ("F5", fig5); ("F6", fig6);
    ("F7", fig7); ("S3-gamma", gamma); ("S2-stubs", stubs); ("S6-bsafe", bsafe);
    ("A1-ablation", ablation); ("C1-coders", coders); ("P1-passes", passes);
    ("S7-slots", slots_surface); ("P8-lifecycle", lifecycle) ]
