module J = Report.Json

type span = { count : int; total_us : float }

type profile = {
  schema : string option;
  emitted : int option;
  dropped : int option;
  spans : (string * span) list;  (* sorted by name *)
}

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
let of_json doc =
  let str name j = Option.bind (J.member name j) J.to_string_opt in
  match J.member "traceEvents" doc with
  | Some (J.List evs) ->
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match (str "ph" e, str "name" e) with
        | Some "X", Some name ->
          let dur =
            Option.value ~default:0.0
              (Option.bind (J.member "dur" e) J.to_float_opt)
          in
          add tbl name dur
        | Some "i", Some name -> add tbl name 0.0
        | _ -> ())
      evs;
    let get name =
      Option.bind (J.member "otherData" doc) (fun h ->
          Option.bind (J.member name h) J.to_int_opt)
    in
    (* The profile is the table sorted by name, so two traces of the same
       run aggregate identically whatever their event order. *)
    let spans =
      Hashtbl.fold (fun name s acc -> (name, s) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Ok
      { schema = str "schema" doc; emitted = get "emitted";
        dropped = get "dropped"; spans }
  | Some _ | None -> Error "chrome trace: missing \"traceEvents\" list"

let of_string text =
  Result.bind
    (Result.map_error (fun msg -> "invalid JSON: " ^ msg) (J.of_string text))
    of_json

let load_file path =
  Result.bind (J.load_file path) (fun doc ->
      Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json doc))

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
