type row = {
  rid : int;
  blocks : int;
  stream_words : int;
  buffer_words : int;
  bits : int;
  max_freq : int;
  decompressions : int;
  cycles : int;
  share : float;
  funcs : string list;
}

type t = {
  rows : row list;
  total_decompressions : int;
  total_cycles : int;
}

let compute ?profile (r : Squash.result) (stats : Runtime.stats) =
  let sq = r.Squash.squashed in
  let regions = r.Squash.regions.Regions.regions in
  let offsets = sq.Rewrite.blob_offsets in
  let blob_bits = 8 * String.length sq.Rewrite.blob in
  let total_cycles = Array.fold_left ( + ) 0 stats.Runtime.per_region_cycles in
  let rows =
    Array.to_list regions
    |> List.map (fun (reg : Regions.region) ->
           let rid = reg.Regions.id in
           let img = sq.Rewrite.images.(rid) in
           let bits =
             (if rid + 1 < Array.length offsets then offsets.(rid + 1)
              else blob_bits)
             - offsets.(rid)
           in
           let max_freq =
             match profile with
             | None -> 0
             | Some prof ->
               List.fold_left
                 (fun acc (f, b) -> max acc (Profile.freq prof f b))
                 0 reg.Regions.blocks
           in
           let funcs =
             List.fold_left
               (fun acc (f, _) -> if List.mem f acc then acc else f :: acc)
               [] reg.Regions.blocks
             |> List.rev
           in
           let decompressions =
             if rid < Array.length stats.Runtime.per_region then
               stats.Runtime.per_region.(rid)
             else 0
           in
           let cycles =
             if rid < Array.length stats.Runtime.per_region_cycles then
               stats.Runtime.per_region_cycles.(rid)
             else 0
           in
           {
             rid;
             blocks = List.length reg.Regions.blocks;
             stream_words = List.length img.Rewrite.stream;
             buffer_words = img.Rewrite.buffer_words;
             bits;
             max_freq;
             decompressions;
             cycles;
             share =
               (if total_cycles > 0 then
                  float_of_int cycles /. float_of_int total_cycles
                else 0.0);
             funcs;
           })
    |> List.sort (fun a b ->
           match compare b.cycles a.cycles with
           | 0 -> compare a.rid b.rid
           | c -> c)
  in
  { rows; total_decompressions = stats.Runtime.decompressions; total_cycles }

let funcs_cell funcs =
  let s = String.concat "," funcs in
  if String.length s <= 32 then s else String.sub s 0 29 ^ "..."

let render t =
  let tbl =
    Report.Table.create ~title:"runtime overhead attribution"
      [ ("region", Report.Table.Right); ("blocks", Report.Table.Right);
        ("words", Report.Table.Right); ("buf", Report.Table.Right);
        ("bits", Report.Table.Right); ("max freq", Report.Table.Right);
        ("decomp", Report.Table.Right); ("cycles", Report.Table.Right);
        ("cyc/decomp", Report.Table.Right); ("share", Report.Table.Right);
        ("functions", Report.Table.Left) ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row tbl
        [ string_of_int r.rid; string_of_int r.blocks;
          string_of_int r.stream_words; string_of_int r.buffer_words;
          string_of_int r.bits; string_of_int r.max_freq;
          string_of_int r.decompressions; string_of_int r.cycles;
          (if r.decompressions > 0 then
             string_of_int (r.cycles / r.decompressions)
           else "-");
          Report.Table.cell_percent ~decimals:1 r.share;
          funcs_cell r.funcs ])
    t.rows;
  Report.Table.add_separator tbl;
  Report.Table.add_row tbl
    [ "total"; ""; ""; ""; ""; ""; string_of_int t.total_decompressions;
      string_of_int t.total_cycles; ""; ""; "" ];
  Report.Table.render tbl

let to_json ?(params = []) ?run_cycles t =
  let open Report.Json in
  Obj
    ([ ("schema", String "pgcc-attrib-v1") ]
    @ (if params = [] then [] else [ ("params", Obj params) ])
    @ (match run_cycles with
      | Some c -> [ ("run_cycles", Int c) ]
      | None -> [])
    @ [ ("total_decompressions", Int t.total_decompressions);
        ("total_cycles", Int t.total_cycles);
        ( "regions",
        List
          (List.map
             (fun r ->
               Obj
                 [ ("rid", Int r.rid); ("blocks", Int r.blocks);
                   ("stream_words", Int r.stream_words);
                   ("buffer_words", Int r.buffer_words); ("bits", Int r.bits);
                   ("max_freq", Int r.max_freq);
                   ("decompressions", Int r.decompressions);
                   ("cycles", Int r.cycles); ("share", Float r.share);
                   ("funcs", List (List.map (fun f -> String f) r.funcs)) ])
             t.rows) ) ])

(* --- differential attribution ----------------------------------------- *)

(* The subset of an attribution that survives a JSON round-trip: enough to
   compare two runs region-by-region without re-running either. *)
module Saved = struct
  type row = { rid : int; decompressions : int; cycles : int; share : float }

  type t = {
    rows : row list;
    total_decompressions : int;
    total_cycles : int;
    run_cycles : int option;
        (** Total simulated cycles of the timing run, when recorded —
            enables the overhead-share-of-run comparison. *)
    params : (string * string) list;
        (** Provenance (workload, theta, ...) as printable strings. *)
  }

  let of_json doc =
    let module J = Report.Json in
    let int_field ~what j name =
      Option.to_result
        ~none:(Printf.sprintf "%s: missing integer field %S" what name)
        (Option.bind (J.member name j) J.to_int_opt)
    in
    match J.member "schema" doc with
    | Some (J.String "pgcc-attrib-v1") -> (
      let ( let* ) = Result.bind in
      let* total_decompressions =
        int_field ~what:"attrib json" doc "total_decompressions"
      in
      let* total_cycles = int_field ~what:"attrib json" doc "total_cycles" in
      let run_cycles = Option.bind (J.member "run_cycles" doc) J.to_int_opt in
      let params =
        match J.member "params" doc with
        | Some (J.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match v with
              | J.String s -> Some (k, s)
              | J.Int i -> Some (k, string_of_int i)
              | J.Float f -> Some (k, Printf.sprintf "%g" f)
              | _ -> None)
            fields
        | Some _ | None -> []
      in
      match J.member "regions" doc with
      | Some (J.List regions) ->
        let* rows =
          List.fold_left
            (fun acc r ->
              let* acc = acc in
              let* rid = int_field ~what:"attrib region" r "rid" in
              let* decompressions =
                int_field ~what:"attrib region" r "decompressions"
              in
              let* cycles = int_field ~what:"attrib region" r "cycles" in
              let share =
                match Option.bind (J.member "share" r) J.to_float_opt with
                | Some s -> s
                | None -> 0.0
              in
              Ok ({ rid; decompressions; cycles; share } :: acc))
            (Ok []) regions
        in
        Ok
          {
            rows = List.rev rows;
            total_decompressions;
            total_cycles;
            run_cycles;
            params;
          }
      | Some _ | None -> Error "attrib json: missing \"regions\" list")
    | Some (J.String other) ->
      Error
        (Printf.sprintf "unsupported attrib schema %S (expected %S)" other
           "pgcc-attrib-v1")
    | Some _ | None ->
      Error
        "missing \"schema\" field (re-save with squashc attrib --json; \
         pre-v1 files carry no schema)"

  let load_file path =
    Result.bind (Report.Json.load_file path) (fun doc ->
        Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json doc))

  let overhead_share t =
    match t.run_cycles with
    | Some rc when rc > 0 ->
      Some (float_of_int t.total_cycles /. float_of_int rc)
    | Some _ | None -> None
end

type delta = {
  drid : int;
  cycles_a : int;
  cycles_b : int;
  share_a : float;
  share_b : float;
  decomp_a : int;
  decomp_b : int;
}

let diff (a : Saved.t) (b : Saved.t) =
  let find rows rid =
    List.find_opt (fun (r : Saved.row) -> r.Saved.rid = rid) rows
  in
  let rids =
    List.sort_uniq compare
      (List.map (fun (r : Saved.row) -> r.Saved.rid) a.Saved.rows
      @ List.map (fun (r : Saved.row) -> r.Saved.rid) b.Saved.rows)
  in
  List.map
    (fun rid ->
      let ra = find a.Saved.rows rid and rb = find b.Saved.rows rid in
      let cy = function Some (r : Saved.row) -> r.Saved.cycles | None -> 0 in
      let sh = function Some (r : Saved.row) -> r.Saved.share | None -> 0.0 in
      let dc = function
        | Some (r : Saved.row) -> r.Saved.decompressions
        | None -> 0
      in
      {
        drid = rid;
        cycles_a = cy ra;
        cycles_b = cy rb;
        share_a = sh ra;
        share_b = sh rb;
        decomp_a = dc ra;
        decomp_b = dc rb;
      })
    rids
  |> List.sort (fun x y ->
         match
           compare
             (abs (y.cycles_b - y.cycles_a))
             (abs (x.cycles_b - x.cycles_a))
         with
         | 0 -> compare x.drid y.drid
         | c -> c)

let render_diff (a : Saved.t) (b : Saved.t) =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let describe label (s : Saved.t) =
    pf "%s: %s\n" label
      (if s.Saved.params = [] then "(no params recorded)"
       else
         String.concat " "
           (List.map (fun (k, v) -> k ^ "=" ^ v) s.Saved.params))
  in
  describe "A" a;
  describe "B" b;
  let tbl =
    Report.Table.create ~title:"attribution diff (B - A)"
      [ ("region", Report.Table.Right); ("cycles A", Report.Table.Right);
        ("cycles B", Report.Table.Right); ("d cycles", Report.Table.Right);
        ("share A", Report.Table.Right); ("share B", Report.Table.Right);
        ("d share", Report.Table.Right); ("decomp A", Report.Table.Right);
        ("decomp B", Report.Table.Right) ]
  in
  let interesting =
    List.filter
      (fun d ->
        d.cycles_a <> 0 || d.cycles_b <> 0 || d.decomp_a <> 0
        || d.decomp_b <> 0)
      (diff a b)
  in
  List.iter
    (fun d ->
      Report.Table.add_row tbl
        [ string_of_int d.drid; string_of_int d.cycles_a;
          string_of_int d.cycles_b;
          Printf.sprintf "%+d" (d.cycles_b - d.cycles_a);
          Report.Table.cell_percent ~decimals:1 d.share_a;
          Report.Table.cell_percent ~decimals:1 d.share_b;
          Printf.sprintf "%+.1fpp" (100.0 *. (d.share_b -. d.share_a));
          string_of_int d.decomp_a; string_of_int d.decomp_b ])
    interesting;
  Report.Table.add_separator tbl;
  Report.Table.add_row tbl
    [ "total"; string_of_int a.Saved.total_cycles;
      string_of_int b.Saved.total_cycles;
      Printf.sprintf "%+d" (b.Saved.total_cycles - a.Saved.total_cycles);
      ""; ""; ""; string_of_int a.Saved.total_decompressions;
      string_of_int b.Saved.total_decompressions ];
  Buffer.add_string buf (Report.Table.render tbl);
  (match (Saved.overhead_share a, Saved.overhead_share b) with
  | Some sa, Some sb ->
    pf "overhead share of run: %.1f%% -> %.1f%% (%+.1fpp)\n" (100.0 *. sa)
      (100.0 *. sb)
      (100.0 *. (sb -. sa))
  | _ -> ());
  Buffer.contents buf
