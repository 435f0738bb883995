module J = Report.Json

type span = { count : int; total_us : float }

type profile = {
  schema : string option;
  emitted : int option;
  dropped : int option;
  spans : (string * span) list;  (* sorted by name *)
}

let float_of_json = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let to_string_opt = function Some (J.String s) -> Some s | _ -> None

let to_int_opt = function Some (J.Int i) -> Some i | _ -> None

(* Aggregation happens through a mutable table keyed by span name; the
   profile is the table sorted, so two traces of the same run always
   aggregate identically regardless of event order. *)
let finish tbl ~schema ~emitted ~dropped =
  let spans =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { schema; emitted; dropped; spans }

let add tbl name us =
  let prev =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None -> { count = 0; total_us = 0.0 }
  in
  Hashtbl.replace tbl name
    { count = prev.count + 1; total_us = prev.total_us +. us }

(* A Chrome trace document: ph="X" events contribute their [dur], ph="i"
   instants count with zero duration, metadata rows are skipped. *)
let of_chrome doc =
  match J.member "traceEvents" doc with
  | Some (J.List evs) ->
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match (to_string_opt (J.member "ph" e), to_string_opt (J.member "name" e)) with
        | Some "X", Some name ->
          let dur =
            match Option.bind (J.member "dur" e) (fun d -> float_of_json d) with
            | Some d -> d
            | None -> 0.0
          in
          add tbl name dur
        | Some "i", Some name -> add tbl name 0.0
        | _ -> ())
      evs;
    let header = J.member "otherData" doc in
    let get name =
      Option.bind header (fun h -> to_int_opt (J.member name h))
    in
    Ok
      (finish tbl
         ~schema:(to_string_opt (J.member "schema" doc))
         ~emitted:(get "emitted") ~dropped:(get "dropped"))
  | Some _ | None -> Error "chrome trace: missing \"traceEvents\" list"

(* A JSONL trace: the header line carries schema and drop accounting; end
   events are re-synthesised into the same span names the Chrome exporter
   uses (1 simulated cycle rendered as 1 µs), so the two formats diff
   interchangeably. *)
let of_jsonl text =
  let tbl = Hashtbl.create 64 in
  let schema = ref None and emitted = ref None and dropped = ref None in
  let bad = ref None in
  let line_no = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr line_no;
         let line = String.trim line in
         if line <> "" && !bad = None then
           match J.of_string line with
           | Error msg ->
             bad := Some (Printf.sprintf "line %d: %s" !line_no msg)
           | Ok doc -> (
             match to_string_opt (J.member "ev" doc) with
             | Some ev ->
               let str name = to_string_opt (J.member name doc) in
               let num name =
                 Option.bind (J.member name doc) (fun v -> float_of_json v)
               in
               (match (ev, str "pass", str "job", num "cycles", num "region")
                with
               | "decomp_end", _, _, Some cycles, Some region ->
                 add tbl
                   (Printf.sprintf "decompress r%d" (int_of_float region))
                   cycles
               | "pass_end", Some pass, _, _, _ ->
                 let us =
                   match num "elapsed_s" with
                   | Some s -> 1e6 *. s
                   | None -> 0.0
                 in
                 add tbl ("pass " ^ pass) us
               | "job_finish", _, Some job, _, _ ->
                 let us =
                   match num "wall_s" with Some s -> 1e6 *. s | None -> 0.0
                 in
                 add tbl ("job " ^ job) us
               | _ -> add tbl ev 0.0)
             | None ->
               (* The header line. *)
               schema := to_string_opt (J.member "schema" doc);
               emitted := to_int_opt (J.member "emitted" doc);
               dropped := to_int_opt (J.member "dropped" doc)));
  match !bad with
  | Some msg -> Error msg
  | None ->
    Ok (finish tbl ~schema:!schema ~emitted:!emitted ~dropped:!dropped)

let of_string text =
  (* A whole-text parse succeeding means a single JSON document (the
     Chrome format); JSONL fails that parse at line 2. *)
  match J.of_string text with
  | Ok doc -> of_chrome doc
  | Error _ -> of_jsonl text

let load_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in_noerr ic;
    (match of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (path ^ ": " ^ msg))

type delta = {
  name : string;
  count_a : int;
  count_b : int;
  us_a : float;
  us_b : float;
}

let diff a b =
  let names =
    List.sort_uniq compare (List.map fst a.spans @ List.map fst b.spans)
  in
  List.map
    (fun name ->
      let get p =
        match List.assoc_opt name p.spans with
        | Some s -> (s.count, s.total_us)
        | None -> (0, 0.0)
      in
      let count_a, us_a = get a and count_b, us_b = get b in
      { name; count_a; count_b; us_a; us_b })
    names
  |> List.sort (fun x y ->
         match
           compare
             (Float.abs (y.us_b -. y.us_a))
             (Float.abs (x.us_b -. x.us_a))
         with
         | 0 -> compare x.name y.name
         | c -> c)

let render ?top a b =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let describe label p =
    pf "%s: %s; %d span names%s\n" label
      (match p.schema with Some s -> s | None -> "<no schema>")
      (List.length p.spans)
      (match (p.emitted, p.dropped) with
      | Some e, Some d -> Printf.sprintf "; %d events emitted, %d dropped" e d
      | _ -> "")
  in
  describe "A" a;
  describe "B" b;
  let ds = diff a b in
  let shown = match top with Some n -> List.filteri (fun i _ -> i < n) ds | None -> ds in
  let tbl =
    Report.Table.create ~title:"span profile diff (B - A)"
      [ ("span", Report.Table.Left); ("count A", Report.Table.Right);
        ("count B", Report.Table.Right); ("us A", Report.Table.Right);
        ("us B", Report.Table.Right); ("d us", Report.Table.Right) ]
  in
  List.iter
    (fun d ->
      Report.Table.add_row tbl
        [ d.name; string_of_int d.count_a; string_of_int d.count_b;
          Printf.sprintf "%.0f" d.us_a; Printf.sprintf "%.0f" d.us_b;
          Printf.sprintf "%+.0f" (d.us_b -. d.us_a) ])
    shown;
  Buffer.add_string buf (Report.Table.render tbl);
  (if List.length ds > List.length shown then
     pf "(%d more spans; raise --top to see them)\n"
       (List.length ds - List.length shown));
  (match (a.dropped, b.dropped) with
  | Some da, Some db when da > 0 || db > 0 ->
    pf
      "note: drops occurred (A: %d, B: %d) — span counts undercount the \
       dropped tail\n"
      da db
  | _ -> ());
  Buffer.contents buf
