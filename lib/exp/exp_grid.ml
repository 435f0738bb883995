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

(* The [options_key] fragments past the version, θ and K, so a label can
   name exactly the options that differ from the defaults. *)
let option_fragments o =
  match String.split_on_char ';' (Exp_data.options_key o) with
  | _version :: _theta :: _k :: rest -> rest
  | _ -> assert false

let cell_label c =
  Printf.sprintf "%s θ=%s K=%d%s%s%s%s%s" c.wl.Workload.name
    (Exp_data.theta_label c.options.Squash.theta)
    c.options.Squash.k_bytes
    (String.concat ""
       (List.map2
          (fun f d -> if f = d then "" else " " ^ f)
          (option_fragments c.options)
          (option_fragments Squash.default_options)))
    (if c.slots = 1 then "" else Printf.sprintf " slots=%d" c.slots)
    (match c.pspec with
    | Exp_data.Pexact -> ""
    | s -> " p=" ^ Exp_data.spec_label s)
    (match c.run_on with `Timing -> "" | `Drift -> " run=drift")
    (if c.timing then " +timing" else "")

type timing = {
  outcome : Vm.outcome;
  stats : Runtime.stats;
  baseline : Vm.outcome;
}

type value = {
  prepared : Exp_data.prepared;
  result : Squash.result;
  timed : timing option;
}

let size_ratio (r : Squash.result) =
  float_of_int r.Squash.squashed_words /. float_of_int r.Squash.original_words

let time_ratio t =
  float_of_int t.outcome.Vm.cycles /. float_of_int t.baseline.Vm.cycles

type outcome = (value, Engine.job_error) result
type results = (cell * outcome) list

let eval_cell ?trace c =
  let prepared = Exp_data.prepare c.wl in
  let result = Exp_data.squash_result ?trace ~pspec:c.pspec prepared c.options in
  let timed =
    if c.timing then begin
      let outcome, stats =
        Exp_data.timing_run ?trace ~slots:c.slots ~on:c.run_on prepared result
      in
      let baseline = Exp_data.baseline_timing ~on:c.run_on prepared in
      Some { outcome; stats; baseline }
    end
    else None
  in
  { prepared; result; timed }

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

let run ?jobs ?trace cells =
  let arr = Array.of_list cells in
  let results, stats =
    Engine.run ?jobs ?trace ~classify
      ~label:(fun i -> cell_label arr.(i))
      (List.map (fun c () -> eval_cell ?trace c) cells)
  in
  (List.combine cells (Array.to_list results), stats)

let key c =
  String.concat "|"
    [ c.wl.Workload.name; Exp_data.options_key c.options;
      string_of_int c.slots; Exp_data.spec_label c.pspec;
      Exp_data.run_label c.run_on; string_of_bool c.timing ]

let lookup (results : results) =
  let index = Hashtbl.create (List.length results) in
  List.iter (fun (c, o) -> Hashtbl.replace index (key c) o) results;
  fun c ->
    match Hashtbl.find_opt index (key c) with
    | Some o -> o
    | None -> invalid_arg ("Exp_grid.lookup: undeclared cell " ^ cell_label c)

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
        | Ok v ->
          [ c.wl.Workload.name;
            Exp_data.theta_label c.options.Squash.theta;
            string_of_int c.options.Squash.k_bytes;
            string_of_int v.result.Squash.original_words;
            string_of_int v.result.Squash.squashed_words;
            Report.Table.cell_float ~decimals:3 (size_ratio v.result);
            opt_cell
              (fun t -> Report.Table.cell_float ~decimals:3 (time_ratio t))
              v.timed;
            opt_cell (fun t -> string_of_int t.stats.Runtime.decompressions) v.timed;
            "ok" ]
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
  | Ok v ->
    let r = v.result in
    let codes = r.Squash.squashed.Rewrite.codes in
    Report.Json.Obj
      (base
      @ [ ("status", Report.Json.String "ok");
          ("original_words", Report.Json.Int r.Squash.original_words);
          ("squashed_words", Report.Json.Int r.Squash.squashed_words);
          ("size_ratio", Report.Json.Float (size_ratio r));
          ("size_reduction", Report.Json.Float (Squash.size_reduction r));
          ("coder", Report.Json.String (Compress.coder_name codes));
          ("table_bits", Report.Json.Int (Compress.table_bits codes)) ]
      @
      match v.timed with
      | None -> []
      | Some t ->
        [ ("cycles", Report.Json.Int t.outcome.Vm.cycles);
          ("baseline_cycles", Report.Json.Int t.baseline.Vm.cycles);
          ("time_ratio", Report.Json.Float (time_ratio t));
          ("decompressions", Report.Json.Int t.stats.Runtime.decompressions);
          ("runtime", Runtime.stats_to_json t.stats) ])
  | Error e ->
    Report.Json.Obj
      (base
      @ [ ("status", Report.Json.String "failed");
          ("error", Engine.error_json e) ])

let to_json results = Report.Json.List (List.map cell_json results)
