let opts theta = { Squash.default_options with Squash.theta }

type report = { text : string; metrics : (string * Report.Json.t) list }
type lookup = Exp_grid.cell -> Exp_grid.outcome
type driver = { cells : Exp_grid.cell list; render : lookup -> report }

let table ?(metrics = []) text = { text; metrics }

(* Render from the cells' outcomes alone.  A driver without cells (F5)
   records no engine stats. *)
let render d (results, stats) =
  let r = d.render (Exp_grid.lookup results) in
  match d.cells with
  | [] -> r
  | _ :: _ ->
    let failures =
      match Exp_grid.failures results with
      | [] -> []
      | fs ->
        [ ("engine_failures", Report.Json.List (List.map Engine.error_json fs)) ]
    in
    { r with metrics = (("engine", Engine.stats_json stats) :: failures) @ r.metrics }

let run ~jobs d = render d (Exp_grid.run ~jobs d.cells)

type sampled = { report : report; seconds : float list }

let sample ~repeat f =
  let run () =
    Exp_data.reset ();
    let report, cost = Obs.measure f in
    (report, cost.Obs.elapsed_s)
  in
  let report, first = run () in
  let rest = List.init (repeat - 1) (fun _ -> snd (run ())) in
  { report; seconds = first :: rest }

(* Cells are listed workload-innermost so the first [jobs] dequeued cells
   touch distinct workloads and their prepare stages parallelise. *)
let grid_cells ?(timing = false) option_list =
  List.concat_map
    (fun o -> List.map (fun wl -> Exp_grid.cell ~timing wl o) Workloads.all)
    option_list

(* ------------------------------------------------------------------ *)
(* A failed cell renders as FAILED, and so does every aggregate over it;
   the other rows render as if nothing had failed.  Metrics built from a
   failed aggregate are [null]. *)

let failed = "FAILED"

(* What cell [c] computed, or [None] when it failed. *)
let value look c = Result.to_option (look c)
let timing (v : Exp_grid.value) = Option.get v.Exp_grid.timed
let show f = function Some v -> f v | None -> failed
let json f = function Some v -> f v | None -> Report.Json.Null

(* Chart points: a failed aggregate is a missing point. *)
let points = List.map (Option.value ~default:Float.nan)

let failed_row t name ncols =
  Report.Table.add_row t (name :: List.init ncols (fun _ -> failed))

(* Every value, or [None] when any is missing. *)
let all_ok xs =
  List.fold_right
    (fun x acc ->
      match (x, acc) with Some v, Some vs -> Some (v :: vs) | _ -> None)
    xs (Some [])

let gmean_ok xs = Option.map Report.gmean (all_ok xs)
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* One row per workload: [row wl v] gives the [ncols] columns of what
   [get wl] computed and the value the aggregates read; a workload whose
   cell failed gets a FAILED row and [None]. *)
let rows t ~ncols get row =
  List.map
    (fun (wl : Workload.t) ->
      match get wl with
      | None ->
        failed_row t wl.Workload.name ncols;
        None
      | Some v ->
        let cols, x = row wl v in
        Report.Table.add_row t (wl.Workload.name :: cols);
        Some x)
    Workloads.all

(* One row per workload with a [fmt] cell per column of [cols] (plus the
   [extra] cell), then a [label] row aggregating each column by [agg];
   returns those aggregates. *)
let columns ?(label = "geo. mean") ?(agg = Report.gmean) ?extra ~fmt t cols =
  List.iter
    (fun (wl : Workload.t) ->
      Report.Table.add_row t
        ((wl.Workload.name :: List.map (fun f -> show fmt (f wl)) cols)
        @ Option.to_list (Option.map (fun f -> f wl) extra)))
    Workloads.all;
  let aggs =
    List.map (fun f -> Option.map agg (all_ok (List.map f Workloads.all))) cols
  in
  Report.Table.add_separator t;
  Report.Table.add_row t
    ((label :: List.map (show fmt) aggs)
    @ Option.to_list (Option.map (fun _ -> "") extra));
  aggs

let size_ratio look cell wl =
  Option.map (fun v -> Exp_grid.size_ratio v.Exp_grid.result) (value look (cell wl))

let time_ratio look cell wl =
  Option.map (fun v -> Exp_grid.time_ratio (timing v)) (value look (cell wl))

(* ------------------------------------------------------------------ *)

(* Table 1: code size (instructions) per benchmark, before ("Input") and
   after squeeze. *)
let table1 =
  let cell wl = Exp_grid.cell wl (opts 0.0) in
  let render look =
    let t =
      Report.Table.create ~title:"Table 1: code size data for the benchmarks (instructions)"
        [ ("Program", Report.Table.Left); ("Input", Report.Table.Right);
          ("Squeeze", Report.Table.Right); ("Reduction", Report.Table.Right) ]
    in
    let ratios =
      rows t ~ncols:3
        (fun wl -> value look (cell wl))
        (fun _ v ->
          let p = v.Exp_grid.prepared in
          let input = Prog.instr_count p.Exp_data.input_prog in
          let squeezed = Prog.instr_count p.Exp_data.squeezed in
          ( [ string_of_int input; string_of_int squeezed;
              Report.Table.cell_percent
                (float_of_int (input - squeezed) /. float_of_int input) ],
            float_of_int squeezed /. float_of_int input ))
    in
    Report.Table.add_separator t;
    Report.Table.add_row t
      [ "geo. mean"; ""; "";
        show (fun m -> Report.Table.cell_percent (1.0 -. m)) (gmean_ok ratios) ];
    table (Report.Table.render t)
  in
  { cells = List.map cell Workloads.all; render }

(* ------------------------------------------------------------------ *)

let fig3_ks = [ 64; 128; 256; 512; 1024; 2048; 4096 ]
let fig3_thetas = [ 0.0; 1e-4; 1e-3 ]

(* Figure 3: squashed size as the buffer bound K sweeps, at three θ plus
   their mean. *)
let fig3 =
  let o theta k = { (opts theta) with Squash.k_bytes = k } in
  let render look =
    let ratios theta k =
      List.map (size_ratio look (fun wl -> Exp_grid.cell wl (o theta k))) Workloads.all
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
    let add_row ~series name means =
      Report.Chart.add_series chart ~name:series (points means);
      Report.Table.add_row t
        (name :: List.map (show (Report.Table.cell_float ~decimals:3)) means)
    in
    List.iter
      (fun theta ->
        let label = Exp_data.theta_label theta in
        add_row ~series:("theta=" ^ label) label
          (List.map (fun k -> gmean_ok (ratios theta k)) fig3_ks))
      fig3_thetas;
    Report.Table.add_separator t;
    add_row ~series:"mean" "mean"
      (List.map
         (fun k -> gmean_ok (List.concat_map (fun theta -> ratios theta k) fig3_thetas))
         fig3_ks);
    table (Report.Chart.render chart ^ "\n" ^ Report.Table.render t)
  in
  { cells =
      grid_cells
        (List.concat_map (fun theta -> List.map (o theta) fig3_ks) fig3_thetas);
    render }

(* ------------------------------------------------------------------ *)

(* Figure 4: cold and compressible code vs θ. *)
let fig4 =
  let render look =
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
    let add_row name f =
      let fracs =
        List.map
          (fun theta ->
            gmean_ok
              (List.map
                 (fun wl ->
                   Option.map
                     (fun v -> f v.Exp_grid.result)
                     (value look (Exp_grid.cell wl (opts theta))))
                 Workloads.all))
          Exp_data.theta_grid
      in
      Report.Chart.add_series chart ~name (points fracs);
      Report.Table.add_row t
        (name :: List.map (show (Report.Table.cell_float ~decimals:3)) fracs)
    in
    add_row "cold" (fun r -> Cold.cold_fraction r.Squash.cold);
    add_row "compressible" (fun r ->
        float_of_int (Squash.compressed_instr_count r)
        /. float_of_int (Cold.total_instr_count r.Squash.cold));
    table (Report.Chart.render chart ^ "\n" ^ Report.Table.render t)
  in
  { cells = grid_cells (List.map opts Exp_data.theta_grid); render }

(* ------------------------------------------------------------------ *)

(* Figure 5: the profiling and timing inputs; it needs no cell. *)
let fig5 =
  let render _ =
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
    table (Report.Table.render t)
  in
  { cells = []; render }

(* ------------------------------------------------------------------ *)

(* Figure 6: code-size reduction vs θ for every benchmark. *)
let fig6 =
  let render look =
    let t =
      Report.Table.create
        ~title:"Figure 6: code size reduction due to profile-guided compression (vs squeezed)"
        (("Program", Report.Table.Left)
        :: List.map
             (fun th -> ("θ=" ^ Exp_data.theta_label th, Report.Table.Right))
             Exp_data.theta_grid)
    in
    let reduction theta wl =
      Option.map
        (fun v -> Squash.size_reduction v.Exp_grid.result)
        (value look (Exp_grid.cell wl (opts theta)))
    in
    let means =
      columns t ~fmt:Report.Table.cell_percent
        ~agg:(fun reds -> 1.0 -. Report.gmean (List.map (fun red -> 1.0 -. red) reds))
        (List.map reduction Exp_data.theta_grid)
    in
    let chart =
      Report.Chart.create ~title:"Figure 6 (mean size reduction vs θ)"
        ~x_labels:(List.map Exp_data.theta_label Exp_data.theta_grid) ~height:10 ()
    in
    Report.Chart.add_series chart ~name:"mean reduction" (points means);
    table
      ~metrics:
        [ ( "size_reduction_geomean",
            Report.Json.Obj
              (List.map2
                 (fun theta m ->
                   (Exp_data.theta_label theta, json (fun m -> Report.Json.Float m) m))
                 Exp_data.theta_grid means) ) ]
      (Report.Table.render t ^ "\n" ^ Report.Chart.render chart)
  in
  { cells = grid_cells (List.map opts Exp_data.theta_grid); render }

(* ------------------------------------------------------------------ *)

(* Figure 7: code size and execution time at the paper's three reporting
   thresholds, relative to squeezed code. *)
let fig7 =
  let thetas = List.map snd Exp_data.fig7_thetas in
  let cell theta wl = Exp_grid.cell ~timing:true wl (opts theta) in
  let render look =
    let theta_table title extra =
      Report.Table.create ~title
        ((("Program", Report.Table.Left)
         :: List.map
              (fun (label, th) ->
                (Printf.sprintf "θ=%s (%g)" label th, Report.Table.Right))
              Exp_data.fig7_thetas)
        @ extra)
    in
    let size_t =
      theta_table
        "Figure 7(a): code size relative to squeezed code\n\
         (θ labels are the paper's; parenthesised values are our scaled θ)"
        []
    in
    let time_t =
      theta_table
        "Figure 7(b): execution time relative to squeezed code (simulated cycles)"
        [ ("decompressions θ_max", Report.Table.Right) ]
    in
    let fmt = Report.Table.cell_float ~decimals:3 in
    let theta_max = List.nth thetas (List.length thetas - 1) in
    ignore (columns size_t ~fmt (List.map (fun th -> size_ratio look (cell th)) thetas));
    ignore
      (columns time_t ~fmt
         ~extra:(fun wl ->
           show
             (fun v -> string_of_int (timing v).Exp_grid.stats.Runtime.decompressions)
             (value look (cell theta_max wl)))
         (List.map (fun th -> time_ratio look (cell th)) thetas));
    table (Report.Table.render size_t ^ "\n" ^ Report.Table.render time_t)
  in
  { cells = grid_cells ~timing:true (List.map opts thetas); render }

(* ------------------------------------------------------------------ *)

(* Section 3: the achieved compression factor γ (paper ≈ 0.66). *)
let gamma =
  let cell wl = Exp_grid.cell wl (opts 1.0) in
  let render look =
    let t =
      Report.Table.create
        ~title:
          "Section 3: achieved compression factor γ (compressed size incl. code\n\
           tables / original size of compressed regions); paper reports ≈ 0.66"
        [ ("Program", Report.Table.Left); ("γ at θ=1.0", Report.Table.Right);
          ("regions", Report.Table.Right); ("entries", Report.Table.Right) ]
    in
    let gs =
      rows t ~ncols:3
        (fun wl -> value look (cell wl))
        (fun _ v ->
          let r = v.Exp_grid.result in
          let g = Squash.gamma_achieved r in
          ( [ Report.Table.cell_float g;
              string_of_int (Array.length r.Squash.regions.Regions.regions);
              string_of_int (Hashtbl.length r.Squash.regions.Regions.entries) ],
            g ))
    in
    Report.Table.add_separator t;
    Report.Table.add_row t
      [ "geo. mean"; show Report.Table.cell_float (gmean_ok gs); ""; "" ];
    table (Report.Table.render t)
  in
  { cells = List.map cell Workloads.all; render }

(* ------------------------------------------------------------------ *)

(* Section 2.2: what compile-time restore stubs would cost, and the live
   runtime stubs at an aggressive threshold. *)
let stubs =
  let theta_aggressive = 0.01 in
  let cell wl = Exp_grid.cell ~timing:true wl (opts theta_aggressive) in
  let render look =
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
    let per_workload =
      rows t ~ncols:4
        (fun wl -> value look (cell wl))
        (fun _ v ->
          let r = v.Exp_grid.result and stats = (timing v).Exp_grid.stats in
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
          ( [ Report.Table.cell_percent share;
              string_of_int stats.Runtime.stub_creates;
              string_of_int stats.Runtime.stub_reuses;
              string_of_int stats.Runtime.max_live_stubs ],
            (share, stats.Runtime.max_live_stubs) ))
      |> all_ok
    in
    Report.Table.add_separator t;
    Report.Table.add_row t
      [ "mean / max";
        show (fun ws -> Report.Table.cell_percent (mean (List.map fst ws))) per_workload;
        ""; "";
        show (fun ws -> string_of_int (List.fold_left max 0 (List.map snd ws))) per_workload ];
    table (Report.Table.render t)
  in
  { cells = List.map cell Workloads.all; render }

(* ------------------------------------------------------------------ *)

(* Section 6.1: buffer-safe functions and the compressed-region call sites
   they cover. *)
let bsafe =
  let cell wl = Exp_grid.cell wl (opts 0.0) in
  let render look =
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
    ignore
      (rows t ~ncols:6
         (fun wl -> value look (cell wl))
         (fun _ v ->
           let p = v.Exp_grid.prepared and r = v.Exp_grid.result in
           let safe = List.length (Buffer_safe.safe_functions r.Squash.buffer_safe) in
           let total = List.length p.Exp_data.squeezed.Prog.funcs in
           let `Safe_calls sc, `Direct_calls dc, `Indirect_calls ic =
             Buffer_safe.stats p.Exp_data.squeezed r.Squash.buffer_safe
               ~in_region:(fun f b -> Regions.block_region r.Squash.regions f b <> None)
           in
           ( [ string_of_int safe; string_of_int total; string_of_int sc;
               string_of_int dc; string_of_int ic;
               (if dc = 0 then "-"
                else Report.Table.cell_percent (float_of_int sc /. float_of_int dc)) ],
             () )));
    table (Report.Table.render t)
  in
  { cells = List.map cell Workloads.all; render }

(* ------------------------------------------------------------------ *)

(* Each design feature toggled at a mid threshold. *)
let ablation =
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
  let render look =
    let t =
      Report.Table.create
        ~title:(Printf.sprintf "Ablation at θ=%g: squashed size / squeezed size" theta)
        (("Program", Report.Table.Left)
        :: List.map (fun (name, _) -> (name, Report.Table.Right)) variants)
    in
    ignore
      (columns t ~fmt:(Report.Table.cell_float ~decimals:3)
         (List.map
            (fun (_, o) -> size_ratio look (fun wl -> Exp_grid.cell wl o))
            variants));
    table (Report.Table.render t)
  in
  { cells = grid_cells (List.map snd variants); render }

(* ------------------------------------------------------------------ *)

(* Head-to-head: the paper's split-stream coder vs the order-1 context
   coder, on everything the regions pass hands to the coder at θ=1.0 (all
   compressible code).  Bits/instruction includes the shipped code tables,
   so a context model only wins by genuinely out-coding the baseline's
   single-code-per-stream scheme. *)
let coders =
  let theta = 1.0 in
  let huff = opts theta in
  let ctx = { huff with Squash.coder = `Context } in
  let render look =
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
    let bits_per_instr wl o =
      Option.map
        (fun v ->
          let r = v.Exp_grid.result in
          let codes = r.Squash.squashed.Rewrite.codes in
          let streams =
            Array.map
              (fun (img : Rewrite.region_image) -> img.Rewrite.stream)
              r.Squash.squashed.Rewrite.images
          in
          let stream_bits = Compress.stream_bits codes streams in
          let payload = List.fold_left (fun acc (_, b) -> acc + b) 0 stream_bits in
          let table_bits = Compress.table_bits codes in
          let instrs = Squash.compressed_instr_count r in
          (payload + table_bits, table_bits, instrs, stream_bits))
        (value look (Exp_grid.cell wl o))
    in
    let per_workload =
      rows t ~ncols:6
        (fun wl ->
          match (bits_per_instr wl huff, bits_per_instr wl ctx) with
          | Some h, Some c -> Some (h, c)
          | _ -> None)
        (fun _ ((hb, ht, hi, h_streams), (cb, ct, ci, c_streams)) ->
          assert (hi = ci);
          let per i total = float_of_int total /. float_of_int (max 1 i) in
          ( [ string_of_int hi;
              Report.Table.cell_float ~decimals:2 (per hi hb);
              Report.Table.cell_float ~decimals:2 (per ci cb);
              Report.Table.cell_percent ~decimals:1
                (float_of_int (cb - hb) /. float_of_int hb);
              string_of_int ht; string_of_int ct ],
            (cb < hb, h_streams, c_streams) ))
      |> all_ok
    in
    let wins =
      Option.map
        (fun ws -> (List.length (List.filter (fun (win, _, _) -> win) ws), List.length ws))
        per_workload
    in
    Report.Table.add_separator t;
    Report.Table.add_row t
      [ "context wins " ^ show (fun (w, n) -> Printf.sprintf "%d/%d" w n) wins;
        ""; ""; ""; ""; ""; "" ];
    (* Where the bits move: per-stream totals summed over all workloads. *)
    let t2 =
      Report.Table.create
        ~title:"Per-stream payload bits, summed over all workloads (θ=1.0)"
        [ ("Stream", Report.Table.Left); ("huffman", Report.Table.Right);
          ("context", Report.Table.Right); ("Δ", Report.Table.Right) ]
    in
    let sum name streams =
      List.fold_left (fun acc (n, b) -> if n = name then acc + b else acc) 0 streams
    in
    List.iter
      (fun stream ->
        let name = Instr.stream_name stream in
        match per_workload with
        | None -> failed_row t2 name 3
        | Some ws ->
          let hs = List.concat_map (fun (_, h, _) -> h) ws in
          let cs = List.concat_map (fun (_, _, c) -> c) ws in
          let h = sum name hs and c = sum name cs in
          if List.mem_assoc name hs || List.mem_assoc name cs then
            Report.Table.add_row t2
              [ name; string_of_int h; string_of_int c;
                (if h = 0 then "-"
                 else Report.Table.cell_percent ~decimals:1
                        (float_of_int (c - h) /. float_of_int h)) ])
      Instr.all_streams;
    table
      ~metrics:
        [ ( "coder_context_wins",
            json
              (fun (w, n) ->
                Report.Json.Obj
                  [ ("wins", Report.Json.Int w); ("total", Report.Json.Int n) ])
              wins ) ]
      (Report.Table.render t ^ "\n" ^ Report.Table.render t2)
  in
  { cells = grid_cells [ huff; ctx ]; render }

(* ------------------------------------------------------------------ *)

(* Where squash time goes, per pass; then region formation at θ=1.0 with
   the rescan reference vs the incremental packer. *)
let passes =
  let theta = 1e-3 and theta_pack = 1.0 in
  let render look =
    let pass_names = Pipeline.names (Pipeline.of_options (opts theta)) in
    let ms s = Report.Table.cell_float ~decimals:2 (1000.0 *. s) in
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
    let ncols = List.length pass_names + 1 in
    let stats =
      rows t ~ncols
        (fun wl -> value look (Exp_grid.cell wl (opts theta)))
        (fun _ v ->
          let stats = v.Exp_grid.result.Squash.stats in
          let elapsed name =
            List.find_map
              (fun (s : Pass.stats) ->
                if s.Pass.pass_name = name then Some s.Pass.cost.Obs.elapsed_s
                else None)
              stats.Pipeline.passes
          in
          ( List.map (fun name -> Option.fold ~none:"-" ~some:ms (elapsed name)) pass_names
            @ [ ms stats.Pipeline.total_s ],
            (elapsed, stats.Pipeline.total_s) ))
    in
    Report.Table.add_separator t;
    (match all_ok stats with
    | None -> failed_row t "sum (share)" ncols
    | Some stats ->
      let grand_total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 stats in
      let share name =
        let s =
          List.fold_left
            (fun acc (elapsed, _) -> acc +. Option.value ~default:0.0 (elapsed name))
            0.0 stats
        in
        Printf.sprintf "%.2f (%s)" (1000.0 *. s)
          (if grand_total > 0.0 then
             Report.Table.cell_percent ~decimals:1 (s /. grand_total)
           else "-")
      in
      Report.Table.add_row t
        (("sum (share)" :: List.map share pass_names) @ [ ms grand_total ]));
    (* Before/after of the PR-2 packing rework: rebuild each workload's
       regions at the most aggressive threshold with the per-round rescan
       reference and with the incremental packer, on exactly the inputs the
       pipeline's regions pass saw.  The partitions are checked identical;
       only the time may differ. *)
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
    let timings =
      rows t2 ~ncols:3
        (fun wl -> value look (Exp_grid.cell wl (opts theta_pack)))
        (fun wl v ->
          let p = v.Exp_grid.prepared and r = v.Exp_grid.result in
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
          (* Not a cell: it times two packers against each other, away from the pool. *)
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
          ( [ ms d_rescan; ms d_inc; Printf.sprintf "%.1fx" (d_rescan /. d_inc) ],
            (d_rescan, d_inc) ))
    in
    Report.Table.add_separator t2;
    let totals =
      Option.map
        (fun ts ->
          let tot_rescan = List.fold_left (fun acc (d, _) -> acc +. d) 0.0 ts in
          let tot_inc = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 ts in
          (tot_rescan, tot_inc, tot_rescan /. tot_inc))
        (all_ok timings)
    in
    (match totals with
    | None -> failed_row t2 "sum" 3
    | Some (tot_rescan, tot_inc, speedup) ->
      Report.Table.add_row t2
        [ "sum"; ms tot_rescan; ms tot_inc; Printf.sprintf "%.1fx" speedup ]);
    let total f = json (fun x -> Report.Json.Float (f x)) totals in
    table
      ~metrics:
        [ ("region_formation_rescan_s", total (fun (r, _, _) -> r));
          ("region_formation_incremental_s", total (fun (_, i, _) -> i));
          ("region_formation_speedup", total (fun (_, _, s) -> s)) ]
      (Report.Table.render t ^ "\n" ^ Report.Table.render t2)
  in
  { cells = grid_cells [ opts theta; opts theta_pack ]; render }

(* ------------------------------------------------------------------ *)

let slots_counts = [ 1; 2; 4; 8 ]
let slots_thetas = [ 1e-3; 1e-2 ]

(* The Fig. 7-style surface for the region cache: slowdown vs squeezed as
   the slot count grows, at two aggressive thresholds.  Extra slots trade
   memory ((slots-1)·buffer_words words of RAM per benchmark) for fewer
   re-inflations; slots=1 already benefits from the resident-region fast
   path (a stub return into the still-materialised region is a cache hit,
   not a decompression). *)
let slots_surface =
  let cell theta slots wl = Exp_grid.cell ~timing:true ~slots wl (opts theta) in
  let render look =
    let timed theta slots wl = Option.map timing (value look (cell theta slots wl)) in
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
          List.iter
            (fun (wl : Workload.t) ->
              let cells =
                List.map
                  (fun slots ->
                    show
                      (fun (tm : Exp_grid.timing) ->
                        Printf.sprintf "%.3f %d/%d" (Exp_grid.time_ratio tm)
                          tm.Exp_grid.stats.Runtime.decompressions
                          tm.Exp_grid.stats.Runtime.cache_hits)
                      (timed theta slots wl))
                  slots_counts
              in
              (* Every slot count shares one squash, so any computed cell
                 knows the buffer size. *)
              let bw =
                List.find_map
                  (fun slots ->
                    Option.map
                      (fun v -> v.Exp_grid.result.Squash.squashed.Rewrite.buffer_words)
                      (value look (cell theta slots wl)))
                  slots_counts
              in
              Report.Table.add_row t
                (wl.Workload.name :: cells
                @ [ show
                      (fun bw ->
                        string_of_int ((List.fold_left max 1 slots_counts - 1) * bw))
                      bw ]))
            Workloads.all;
          Report.Table.add_separator t;
          Report.Table.add_row t
            ("geo. mean"
            :: List.map
                 (fun slots ->
                   show (Report.Table.cell_float ~decimals:3)
                     (gmean_ok
                        (List.map
                           (fun wl -> Option.map Exp_grid.time_ratio (timed theta slots wl))
                           Workloads.all)))
                 slots_counts
            @ [ "" ]);
          Report.Table.render t)
        slots_thetas
    in
    let runs =
      List.concat_map
        (fun theta ->
          List.concat_map
            (fun (wl : Workload.t) ->
              List.map (fun slots -> (theta, wl, slots, timed theta slots wl)) slots_counts)
            Workloads.all)
        slots_thetas
    in
    let hits_total =
      all_ok
        (List.map
           (fun (_, _, _, tm) ->
             Option.map (fun tm -> tm.Exp_grid.stats.Runtime.cache_hits) tm)
           runs)
    in
    let surface_row (theta, (wl : Workload.t), slots, tm) =
      Option.map
        (fun (tm : Exp_grid.timing) ->
          let stats = tm.Exp_grid.stats in
          Report.Json.Obj
            [ ("workload", Report.Json.String wl.Workload.name);
              ("theta", Report.Json.Float theta);
              ("slots", Report.Json.Int slots);
              ("time_ratio", Report.Json.Float (Exp_grid.time_ratio tm));
              ("decompressions", Report.Json.Int stats.Runtime.decompressions);
              ("cache_hits", Report.Json.Int stats.Runtime.cache_hits);
              ("cache_evictions", Report.Json.Int stats.Runtime.cache_evictions) ])
        tm
    in
    table
      ~metrics:
        [ ( "cache_hits_total",
            json (fun hs -> Report.Json.Int (List.fold_left ( + ) 0 hs)) hits_total );
          ("slots_surface", Report.Json.List (List.filter_map surface_row runs)) ]
      (String.concat "\n" sections)
  in
  { cells =
      List.concat_map
        (fun slots ->
          List.concat_map
            (fun theta -> List.map (cell theta slots) Workloads.all)
            slots_thetas)
        slots_counts;
    render }

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

(* P8: every workload compressed under each lifecycle profile and run on
   the drift input (footprint, slowdown, distance to the oracle, the
   degradation surfaces), then the iterative-stability chain. *)
let lifecycle =
  let o = opts p8_theta in
  let cell pspec wl = Exp_grid.cell ~timing:true ~pspec ~run_on:`Drift wl o in
  let render look =
    let spec_table title =
      Report.Table.create ~title
        (("Program", Report.Table.Left)
        :: List.map (fun (name, _) -> (name, Report.Table.Right)) p8_specs)
    in
    let t_size =
      spec_table
        (Printf.sprintf
           "P8(a): footprint under lifecycle profiles at θ=%g\n\
            (squashed/squeezed; compressed with the column's profile)"
           p8_theta)
    in
    let t_time =
      spec_table
        "P8(b): slowdown on the drift input (cycles vs squeezed on the same \
         input)"
    in
    let t_dist =
      spec_table
        "P8(c): profile distance to the drift-input oracle\n\
         (total variation on normalised block weights, 0=identical)"
    in
    (* (size ratio, time ratio, distance to the oracle) of one cell. *)
    let measure pspec wl =
      Option.map
        (fun v ->
          let p = v.Exp_grid.prepared in
          ( Exp_grid.size_ratio v.Exp_grid.result,
            Exp_grid.time_ratio (timing v),
            Profile_ops.distance (Exp_data.profile_for p pspec)
              (Exp_data.profile_for p Exp_data.Poracle) ))
        (value look (cell pspec wl))
    in
    let by_spec f =
      List.map (fun (_, pspec) wl -> Option.map f (measure pspec wl)) p8_specs
    in
    let fmt = Report.Table.cell_float ~decimals:3 in
    let size = columns t_size ~fmt (by_spec (fun (s, _, _) -> s)) in
    let time = columns t_time ~fmt (by_spec (fun (_, t, _) -> t)) in
    let dist = columns t_dist ~fmt ~label:"mean" ~agg:mean (by_spec (fun (_, _, d) -> d)) in
    (* Degradation surfaces: fidelity (sampling period) and staleness
       (decay applications) against footprint, slowdown and distance. *)
    let surface chart names =
      let pick aggs =
        points (List.map (fun n -> List.assoc n (List.combine (List.map fst p8_specs) aggs)) names)
      in
      Report.Chart.add_series chart ~name:"footprint" (pick size);
      Report.Chart.add_series chart ~name:"slowdown" (pick time);
      Report.Chart.add_series chart ~name:"distance" (pick dist)
    in
    let chart_fidelity =
      Report.Chart.create
        ~title:
          "P8: degradation vs sampling period (geo-mean footprint & slowdown,\n\
           mean distance to oracle; drift-input runs)"
        ~x_labels:(List.map string_of_int p8_periods)
        ~height:12 ()
    in
    surface chart_fidelity
      (List.map (fun p -> Printf.sprintf "sampled p=%d" p) p8_periods);
    let chart_staleness =
      Report.Chart.create
        ~title:
          (Printf.sprintf
             "P8: degradation vs staleness (decay %g applied n times)"
             p8_decay_factor)
        ~x_labels:(List.map string_of_int p8_decay_steps)
        ~height:12 ()
    in
    surface chart_staleness
      (List.map (fun n -> Printf.sprintf "decay n=%d" n) p8_decay_steps);
    let lifecycle_rows =
      List.concat_map
        (fun (wl : Workload.t) ->
          List.filter_map
            (fun (_, pspec) ->
              Option.map
                (fun (sratio, tratio, dist) ->
                  Report.Json.Obj
                    [ ("workload", Report.Json.String wl.Workload.name);
                      ("profile", Report.Json.String (Exp_data.spec_label pspec));
                      ("size_ratio", Report.Json.Float sratio);
                      ("time_ratio", Report.Json.Float tratio);
                      ("distance", Report.Json.Float dist) ])
                (measure pspec wl))
            p8_specs)
        Workloads.all
    in
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
    let stab_rows =
      rows t_stab ~ncols:5
        (fun wl -> value look (cell Exp_data.Pexact wl))
        (fun wl v ->
          let p = v.Exp_grid.prepared in
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
          (* Not a cell: each re-squash's profile comes from the image before it. *)
          let r0 = v.Exp_grid.result in
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
          ( [ string_of_int s0; string_of_int s1; string_of_int s2;
              Report.Table.cell_percent ~decimals:2 delta;
              Report.Table.cell_float ~decimals:3 rdist ],
            Report.Json.Obj
              [ ("workload", Report.Json.String wl.Workload.name);
                ("iter0", Report.Json.Int s0); ("iter1", Report.Json.Int s1);
                ("iter2", Report.Json.Int s2); ("delta", Report.Json.Float delta);
                ("reprofile_distance", Report.Json.Float rdist) ] ))
    in
    table
      ~metrics:
        [ ("lifecycle", Report.Json.List lifecycle_rows);
          ("lifecycle_stability", Report.Json.List (List.filter_map Fun.id stab_rows)) ]
      (String.concat "\n"
         [ Report.Table.render t_size; Report.Table.render t_time;
           Report.Table.render t_dist; Report.Chart.render chart_fidelity;
           Report.Chart.render chart_staleness; Report.Table.render t_stab ])
  in
  { cells = List.concat_map (fun (_, pspec) -> List.map (cell pspec) Workloads.all) p8_specs;
    render }

let all =
  [ ("T1", table1); ("F3", fig3); ("F4", fig4); ("F5", fig5); ("F6", fig6);
    ("F7", fig7); ("S3-gamma", gamma); ("S2-stubs", stubs); ("S6-bsafe", bsafe);
    ("A1-ablation", ablation); ("C1-coders", coders); ("P1-passes", passes);
    ("S7-slots", slots_surface); ("P8-lifecycle", lifecycle) ]
