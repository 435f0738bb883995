module J = Report.Json
module Stats = Report.Stats

type exp = { id : string; samples : float list }

type run = {
  schema : string;
  rev : string option;
  timestamp : string option;
  jobs : int option;
  repeat : int option;
  experiments : exp list;
  counters : (string * float) list;
}

let str name doc = Option.bind (J.member name doc) J.to_string_opt
let int name doc = Option.bind (J.member name doc) J.to_int_opt

(* Scalar counters of the run's representative runtime sample
   (decompressions, cache hits, ...).  The simulator is deterministic, so
   at a fixed revision these must match exactly; a drift is a behaviour
   change, not noise. *)
let counters_of doc =
  match J.member "runtime_sample" doc with
  | Some sample -> (
    match J.member "stats" sample with
    | Some (J.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float_opt v))
        fields
    | Some _ | None -> [])
  | None -> []

let experiments_of doc =
  match J.member "experiments" doc with
  | Some (J.List exps) ->
    List.filter_map
      (fun e ->
        match str "id" e with
        | None -> None
        | Some id ->
          let samples =
            match J.member "samples" e with
            | Some (J.List l) -> List.filter_map J.to_float_opt l
            | Some _ | None -> (
              (* v1 records carry a single wall-clock scalar. *)
              match Option.bind (J.member "seconds" e) J.to_float_opt with
              | Some s -> [ s ]
              | None -> [])
          in
          if samples = [] then None else Some { id; samples })
      exps
  | Some _ | None -> []

let of_json doc =
  match str "schema" doc with
  | None -> Error "missing \"schema\" field"
  | Some schema ->
    let known = [ "pgcc-bench-v1"; "pgcc-bench-v2" ] in
    if not (List.mem schema known) then
      Error
        (Printf.sprintf "unsupported schema %S (expected %s)" schema
           (String.concat " or " known))
    else
      Ok
        {
          schema;
          rev = str "rev" doc;
          timestamp = str "timestamp" doc;
          jobs = int "jobs" doc;
          repeat = int "repeat" doc;
          experiments = experiments_of doc;
          counters = counters_of doc;
        }

let of_string s =
  match J.of_string s with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok doc -> of_json doc

let load_file path =
  Result.bind (J.load_file path) (fun doc ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json doc))

(* --- comparison -------------------------------------------------------- *)

type delta = {
  id : string;
  n_a : int;
  n_b : int;
  mean_a : float;
  mean_b : float;
  ci_a : float;  (** 95% CI half-widths; 0 for single samples. *)
  ci_b : float;
  rel : float;  (** (mean_b - mean_a) / mean_a. *)
  significant : bool;
  regressed : bool;
}

type counter_delta = {
  name : string;
  value_a : float;
  value_b : float;
  crel : float;
  drifted : bool;
}

type report = {
  wall_threshold : float;
  counter_threshold : float;
  deltas : delta list;
  counter_deltas : counter_delta list;
  only_a : string list;  (** Experiment ids present only in run A. *)
  only_b : string list;
}

let rel_delta a b =
  if a = 0.0 then (if b = 0.0 then 0.0 else infinity)
  else (b -. a) /. a

let compare_runs ?(wall_threshold = 0.10) ?(counter_threshold = 0.0) a b =
  let deltas =
    List.filter_map
      (fun (ea : exp) ->
        match
          List.find_opt (fun (eb : exp) -> eb.id = ea.id) b.experiments
        with
        | None -> None
        | Some eb ->
          let mean_a = Stats.mean ea.samples
          and mean_b = Stats.mean eb.samples in
          let rel = rel_delta mean_a mean_b in
          (* A shift below threshold is accepted outright; above it, the
             Welch test filters out what repeat-sample noise explains.
             With single samples on either side there is nothing to
             estimate variance from, so a large shift counts — the
             conservative choice for a CI gate. *)
          let significant = Stats.significant ea.samples eb.samples in
          Some
            {
              id = ea.id;
              n_a = List.length ea.samples;
              n_b = List.length eb.samples;
              mean_a;
              mean_b;
              ci_a = Stats.ci95 ea.samples;
              ci_b = Stats.ci95 eb.samples;
              rel;
              significant;
              regressed = rel > wall_threshold && significant;
            })
      a.experiments
  in
  let counter_deltas =
    List.filter_map
      (fun (name, va) ->
        match List.assoc_opt name b.counters with
        | None -> None
        | Some vb ->
          let crel = rel_delta va vb in
          Some
            {
              name;
              value_a = va;
              value_b = vb;
              crel;
              drifted = Float.abs crel > counter_threshold;
            })
      a.counters
  in
  let ids l = List.map (fun (e : exp) -> e.id) l in
  let only xs ys = List.filter (fun i -> not (List.mem i ys)) xs in
  {
    wall_threshold;
    counter_threshold;
    deltas;
    counter_deltas;
    only_a = only (ids a.experiments) (ids b.experiments);
    only_b = only (ids b.experiments) (ids a.experiments);
  }

let regressed r =
  List.exists (fun d -> d.regressed) r.deltas
  || List.exists (fun c -> c.drifted) r.counter_deltas

let describe_run label (r : run) =
  Printf.sprintf "%s: %s%s%s" label
    (match r.rev with
    | Some rev -> String.sub rev 0 (min 12 (String.length rev))
    | None -> "<no rev>")
    (match r.timestamp with Some t -> " " ^ t | None -> "")
    (match r.jobs with
    | Some j -> Printf.sprintf " jobs=%d" j
    | None -> "")

let pp_rel rel =
  if rel = infinity then "   +inf"
  else Printf.sprintf "%+6.1f%%" (100.0 *. rel)

let render (a : run) (b : run) r =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s\n%s\n" (describe_run "A" a) (describe_run "B" b);
  pf "wall-clock threshold %+.0f%%; counter threshold %.0f%%\n\n"
    (100.0 *. r.wall_threshold)
    (100.0 *. r.counter_threshold);
  pf "%-10s %12s %12s %8s  %-22s %s\n" "experiment" "mean A (s)" "mean B (s)"
    "delta" "95% CI (A / B)" "verdict";
  pf "%s\n" (String.make 78 '-');
  List.iter
    (fun d ->
      pf "%-10s %12.3f %12.3f %s  %8.3f / %-8.3f    %s\n" d.id d.mean_a
        d.mean_b (pp_rel d.rel) d.ci_a d.ci_b
        (if d.regressed then "REGRESSED"
         else if d.rel > r.wall_threshold then "within noise"
         else "ok"))
    r.deltas;
  if r.counter_deltas <> [] then begin
    pf "\n%-24s %14s %14s %8s  %s\n" "runtime counter" "A" "B" "delta"
      "verdict";
    pf "%s\n" (String.make 78 '-');
    List.iter
      (fun c ->
        pf "%-24s %14.0f %14.0f %s  %s\n" c.name c.value_a c.value_b
          (pp_rel c.crel)
          (if c.drifted then "DRIFT" else "ok"))
      r.counter_deltas
  end;
  if r.only_a <> [] then
    pf "\nonly in A: %s\n" (String.concat ", " r.only_a);
  if r.only_b <> [] then
    pf "only in B: %s\n" (String.concat ", " r.only_b);
  pf "\n%s\n"
    (if regressed r then "RESULT: regression detected"
     else "RESULT: no significant regression");
  Buffer.contents buf
