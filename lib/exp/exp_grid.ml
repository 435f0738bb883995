type cell = {
  wl : Workload.t;
  options : Squash.options;
  timing : bool;
  slots : int;
  pspec : Exp_data.profile_spec;
  run_on : Exp_data.run_input;
}

let cell ?(timing = false) ?(slots = 1) ?(pspec = Exp_data.Pexact)
    ?(run_on = `Timing) wl options =
  { wl; options; timing; slots; pspec; run_on }

let cell_label c =
  Printf.sprintf "%s θ=%s K=%d%s%s%s%s" c.wl.Workload.name
    (Exp_data.theta_label c.options.Squash.theta)
    c.options.Squash.k_bytes
    (if c.slots = 1 then "" else Printf.sprintf " slots=%d" c.slots)
    (match c.pspec with
    | Exp_data.Pexact -> ""
    | s -> " p=" ^ Exp_data.spec_label s)
    (match c.run_on with `Timing -> "" | `Drift -> " run=drift")
    (if c.timing then " +timing" else "")

type metrics = {
  original_words : int;
  squashed_words : int;
  size_ratio : float;
  size_reduction : float;
  coder : string;
  table_bits : int;
  cycles : int option;
  baseline_cycles : int option;
  time_ratio : float option;
  decompressions : int option;
  runtime : Runtime.stats option;
}

type outcome = (metrics, Engine.job_error) result
type results = (cell * outcome) list

let jobs_override : int option ref = ref None
let set_jobs j = jobs_override := j
let jobs () = match !jobs_override with Some j -> j | None -> Engine.default_jobs ()

let obs_sink : Obs.t option ref = ref None
let set_obs o = obs_sink := o

let parse_injection s =
  match String.index_opt s '@' with
  | Some i -> (
    let name = String.sub s 0 i in
    let theta = String.sub s (i + 1) (String.length s - i - 1) in
    match float_of_string_opt theta with
    | Some th when name <> "" -> Some (name, th)
    | _ -> None)
  | None -> None

let injected : (string * float) option ref =
  ref
    (match Sys.getenv_opt "PGCC_INJECT_TRAP" with
    | Some s -> parse_injection s
    | None -> None)

let set_injected_failure v = injected := v

let eval_cell c =
  (match !injected with
  | Some (name, theta)
    when name = c.wl.Workload.name && theta = c.options.Squash.theta ->
    raise (Vm.Trap { pc = 0; reason = "injected fault" })
  | _ -> ());
  let p = Exp_data.prepare c.wl in
  let r = Exp_data.squash_result ~pspec:c.pspec p c.options in
  let cycles, baseline_cycles, time_ratio, decompressions, runtime =
    if c.timing then begin
      let outcome, stats =
        Exp_data.timing_run ~slots:c.slots ~pspec:c.pspec ~on:c.run_on p r
      in
      let baseline = Exp_data.baseline_timing ~on:c.run_on p in
      (* The timing run may have been served from the memo, in which case
         no live runtime events fired; replaying the aggregates keeps the
         metrics snapshot the same whether this cell computed the run or
         reused it. *)
      (match !obs_sink with
      | None -> ()
      | Some o -> Runtime.observe_stats o stats);
      ( Some outcome.Vm.cycles,
        Some baseline.Vm.cycles,
        Some (float_of_int outcome.Vm.cycles /. float_of_int baseline.Vm.cycles),
        Some stats.Runtime.decompressions,
        Some stats )
    end
    else (None, None, None, None, None)
  in
  let original_words = r.Squash.original_words in
  let squashed_words = r.Squash.squashed_words in
  {
    original_words;
    squashed_words;
    size_ratio = float_of_int squashed_words /. float_of_int original_words;
    size_reduction = Squash.size_reduction r;
    coder = Compress.coder_name r.Squash.squashed.Rewrite.codes;
    table_bits = Compress.table_bits r.Squash.squashed.Rewrite.codes;
    cycles;
    baseline_cycles;
    time_ratio;
    decompressions;
    runtime;
  }

let classify = function
  | Vm.Trap { pc; reason } when reason = "out of fuel" ->
    (`Fuel, Printf.sprintf "out of fuel at pc=0x%x" pc)
  | Vm.Trap { pc; reason } -> (`Trap, Printf.sprintf "%s at pc=0x%x" reason pc)
  | Pipeline.Check_failed { pass; errors } ->
    (`Invariant,
     Printf.sprintf "pass %S broke an invariant: %s" pass
       (String.concat "; " errors))
  | Bitio.Corrupt_stream msg -> (`Failed, "corrupt stream: " ^ msg)
  | Failure msg -> (`Failed, msg)
  | e -> (`Exception, Printexc.to_string e)

let run ?jobs:j cells =
  let jobs = match j with Some j -> j | None -> jobs () in
  let arr = Array.of_list cells in
  let results, stats =
    Engine.run ~jobs ?obs:!obs_sink ~classify
      ~label:(fun i -> cell_label arr.(i))
      (List.map (fun c () -> eval_cell c) cells)
  in
  (List.combine cells (Array.to_list results), stats)

let failures results =
  List.filter_map
    (function _, Error (e : Engine.job_error) -> Some e | _, Ok _ -> None)
    results

let opt_cell to_s = function None -> "-" | Some v -> to_s v

let render_table (results : results) =
  let t =
    Report.Table.create ~title:"Experiment grid"
      [ ("Program", Report.Table.Left); ("theta", Report.Table.Right);
        ("K", Report.Table.Right); ("squeezed", Report.Table.Right);
        ("squashed", Report.Table.Right); ("ratio", Report.Table.Right);
        ("cycles x", Report.Table.Right); ("decomp", Report.Table.Right);
        ("status", Report.Table.Left) ]
  in
  List.iter
    (fun (c, outcome) ->
      let row =
        match outcome with
        | Ok m ->
          [ c.wl.Workload.name;
            Exp_data.theta_label c.options.Squash.theta;
            string_of_int c.options.Squash.k_bytes;
            string_of_int m.original_words; string_of_int m.squashed_words;
            Report.Table.cell_float ~decimals:3 m.size_ratio;
            opt_cell (Report.Table.cell_float ~decimals:3) m.time_ratio;
            opt_cell string_of_int m.decompressions; "ok" ]
        | Error e ->
          [ c.wl.Workload.name;
            Exp_data.theta_label c.options.Squash.theta;
            string_of_int c.options.Squash.k_bytes; "-"; "-"; "-"; "-"; "-";
            Printf.sprintf "FAILED [%s] %s"
              (Engine.kind_to_string e.Engine.kind)
              e.Engine.message ]
      in
      Report.Table.add_row t row)
    results;
  Report.Table.render t

let cell_json (c, outcome) =
  let base =
    [ ("workload", Report.Json.String c.wl.Workload.name);
      ("theta", Report.Json.Float c.options.Squash.theta);
      ("k_bytes", Report.Json.Int c.options.Squash.k_bytes);
      ("options", Report.Json.String (Exp_data.options_key c.options));
      ("slots", Report.Json.Int c.slots);
      ("profile", Report.Json.String (Exp_data.spec_label c.pspec));
      ("run_on", Report.Json.String (Exp_data.run_label c.run_on));
      ("timing", Report.Json.Bool c.timing) ]
  in
  match outcome with
  | Ok m ->
    Report.Json.Obj
      (base
      @ [ ("status", Report.Json.String "ok");
          ("original_words", Report.Json.Int m.original_words);
          ("squashed_words", Report.Json.Int m.squashed_words);
          ("size_ratio", Report.Json.Float m.size_ratio);
          ("size_reduction", Report.Json.Float m.size_reduction);
          ("coder", Report.Json.String m.coder);
          ("table_bits", Report.Json.Int m.table_bits) ]
      @ (match m.cycles with
        | None -> []
        | Some cy ->
          [ ("cycles", Report.Json.Int cy);
            ("baseline_cycles",
             Report.Json.Int (Option.value ~default:0 m.baseline_cycles));
            ("time_ratio",
             Report.Json.Float (Option.value ~default:Float.nan m.time_ratio));
            ("decompressions",
             Report.Json.Int (Option.value ~default:0 m.decompressions)) ])
      @ (match m.runtime with
        | None -> []
        | Some st -> [ ("runtime", Runtime.stats_to_json st) ]))
  | Error e ->
    Report.Json.Obj
      (base
      @ [ ("status", Report.Json.String "failed");
          ("error", Engine.error_json e) ])

let to_json results = Report.Json.List (List.map cell_json results)

let to_csv (results : results) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "workload,theta,k_bytes,status,original_words,squashed_words,size_ratio,cycles,baseline_cycles,decompressions\n";
  List.iter
    (fun (c, outcome) ->
      let name = c.wl.Workload.name in
      let theta = Printf.sprintf "%g" c.options.Squash.theta in
      let k = string_of_int c.options.Squash.k_bytes in
      (match outcome with
      | Ok m ->
        Buffer.add_string b
          (Printf.sprintf "%s,%s,%s,ok,%d,%d,%.6f,%s,%s,%s\n" name theta k
             m.original_words m.squashed_words m.size_ratio
             (opt_cell string_of_int m.cycles)
             (opt_cell string_of_int m.baseline_cycles)
             (opt_cell string_of_int m.decompressions))
      | Error e ->
        Buffer.add_string b
          (Printf.sprintf "%s,%s,%s,failed:%s,,,,,,\n" name theta k
             (Engine.kind_to_string e.Engine.kind))))
    results;
  Buffer.contents b
