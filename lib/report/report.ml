let gmean values =
  let positive = List.filter (fun v -> v > 0.0) values in
  match positive with
  | [] -> 0.0
  | _ :: _ ->
    let n = float_of_int (List.length positive) in
    exp (List.fold_left (fun acc v -> acc +. log v) 0.0 positive /. n)

(* [Sys_error] names the path when opening fails but not when reading
   does (a directory opens, then fails with "Is a directory"). *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg ->
    Error
      (if String.starts_with ~prefix:(path ^ ": ") msg then msg
       else path ^ ": " ^ msg)

module Table = struct
  type align = Left | Right

  type t = {
    title : string;
    headers : (string * align) list;
    mutable rows : [ `Row of string list | `Sep ] list;  (* reversed *)
  }

  let create ~title headers = { title; headers; rows = [] }

  let add_row t cells =
    if List.length cells <> List.length t.headers then
      invalid_arg "Report.Table.add_row: wrong number of cells";
    t.rows <- `Row cells :: t.rows

  let add_separator t = t.rows <- `Sep :: t.rows

  let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
  let cell_percent ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals (100.0 *. v)

  (* Display width in UTF-8 code points: every byte but a continuation
     byte (0b10xxxxxx) starts one, so "θ" pads as one column, not two. *)
  let width s =
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
    !n

  let render t =
    let rows = List.rev t.rows in
    let ncols = List.length t.headers in
    let widths = Array.make ncols 0 in
    List.iteri (fun i (h, _) -> widths.(i) <- width h) t.headers;
    List.iter
      (function
        | `Sep -> ()
        | `Row cells ->
          List.iteri (fun i c -> widths.(i) <- max widths.(i) (width c)) cells)
      rows;
    let buf = Buffer.create 1024 in
    let pad align w s =
      let fill = String.make (max 0 (w - width s)) ' ' in
      match align with Left -> s ^ fill | Right -> fill ^ s
    in
    let total_width =
      Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
    in
    Buffer.add_string buf t.title;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make total_width '=');
    Buffer.add_char buf '\n';
    List.iteri
      (fun i (h, align) ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad align widths.(i) h))
      t.headers;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make total_width '-');
    Buffer.add_char buf '\n';
    List.iter
      (function
        | `Sep ->
          Buffer.add_string buf (String.make total_width '-');
          Buffer.add_char buf '\n'
        | `Row cells ->
          List.iteri
            (fun i c ->
              if i > 0 then Buffer.add_string buf "  ";
              let _, align = List.nth t.headers i in
              Buffer.add_string buf (pad align widths.(i) c))
            cells;
          Buffer.add_char buf '\n')
      rows;
    Buffer.contents buf
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec add buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then
        (* %.17g is lossless for doubles; trim the common integral case. *)
        let s = Printf.sprintf "%.17g" f in
        Buffer.add_string buf s
      else Buffer.add_string buf "null"
    | String s -> add_escaped buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    add buf t;
    Buffer.contents buf

  (* A recursive-descent parser for the same subset [to_string] emits
     (all of JSON minus \u escapes beyond BMP handling: we decode \uXXXX
     as a raw byte triple only for ASCII, which is all the writer above
     ever produces).  Numbers parse to [Int] when they are integral
     literals that fit in an OCaml int, [Float] otherwise, so a
     write/parse round trip preserves the constructor for every document
     the writer can produce. *)
  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 'r' -> Buffer.add_char b '\r'
           | 't' -> Buffer.add_char b '\t'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code =
               match int_of_string_opt ("0x" ^ hex) with
               | Some c -> c
               | None -> fail "bad \\u escape"
             in
             if code < 0x80 then Buffer.add_char b (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
             end
           | _ -> fail "bad escape");
          go ()
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let integral = ref true in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          go ()
        | Some ('.' | 'e' | 'E') ->
          integral := false;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      let lit = String.sub s start (!pos - start) in
      if !integral then
        match int_of_string_opt lit with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number")
      else
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items := parse_value () :: !items;
              go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (Stdlib.List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields := field () :: !fields;
              go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (Stdlib.List.rev !fields)
        end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match parse_value () with
    | v ->
      skip_ws ();
      if !pos < n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
    | exception Parse_error msg -> Error msg

  let member name = function
    | Obj fields -> Stdlib.List.assoc_opt name fields
    | _ -> None

  let to_float_opt = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None

  let to_int_opt = function Int i -> Some i | _ -> None

  let to_string_opt = function String s -> Some s | _ -> None

  let load_file path =
    Result.bind (read_file path) (fun text ->
        Result.map_error (fun msg -> path ^ ": invalid JSON: " ^ msg)
          (of_string text))
end

module Stats = struct
  let mean = function
    | [] -> 0.0
    | xs ->
      Stdlib.List.fold_left ( +. ) 0.0 xs /. float_of_int (Stdlib.List.length xs)

  (* Sample (n-1) standard deviation; 0 for fewer than two samples. *)
  let stddev xs =
    match xs with
    | [] | [ _ ] -> 0.0
    | xs ->
      let m = mean xs in
      let n = float_of_int (Stdlib.List.length xs) in
      sqrt
        (Stdlib.List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
        /. (n -. 1.0))

  (* Two-sided 97.5th-percentile Student t critical values by degrees of
     freedom; beyond the table the normal approximation is within 2%. *)
  let t_table =
    [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
       2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
       2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

  let t_crit95 df =
    if df < 1 then t_table.(0)
    else if df <= Array.length t_table then t_table.(df - 1)
    else 1.96

  let ci95 xs =
    match xs with
    | [] | [ _ ] -> 0.0
    | xs ->
      let n = Stdlib.List.length xs in
      t_crit95 (n - 1) *. stddev xs /. sqrt (float_of_int n)

  (* Welch's unequal-variance t statistic and its Welch–Satterthwaite
     degrees of freedom.  Needs at least two samples on each side. *)
  let welch_t xs ys =
    let nx = Stdlib.List.length xs and ny = Stdlib.List.length ys in
    if nx < 2 || ny < 2 then None
    else begin
      let vx = stddev xs ** 2.0 and vy = stddev ys ** 2.0 in
      let fx = float_of_int nx and fy = float_of_int ny in
      let sx = vx /. fx and sy = vy /. fy in
      let se2 = sx +. sy in
      if se2 <= 0.0 then
        (* Zero variance on both sides: any difference in means is exact. *)
        if mean xs = mean ys then Some (0.0, nx + ny - 2)
        else Some (Float.infinity, nx + ny - 2)
      else begin
        let t = (mean ys -. mean xs) /. sqrt se2 in
        let denom =
          (if vx > 0.0 then sx ** 2.0 /. (fx -. 1.0) else 0.0)
          +. if vy > 0.0 then sy ** 2.0 /. (fy -. 1.0) else 0.0
        in
        let df =
          if denom <= 0.0 then nx + ny - 2
          else max 1 (int_of_float (se2 ** 2.0 /. denom))
        in
        Some (t, df)
      end
    end

  (* Two-sided Welch test at 95%: are the two sample means distinguishable
     from noise?  [None]-producing inputs (a single sample on either side)
     report [true] — with no variance estimate every difference counts,
     which is the conservative choice for a regression gate. *)
  let significant xs ys =
    match welch_t xs ys with
    | None -> true
    | Some (t, df) -> Float.abs t > t_crit95 df
end

module Chart = struct
  type t = {
    title : string;
    x_labels : string list;
    height : int;
    mutable series : (string * float list) list;  (* reversed *)
  }

  let create ~title ~x_labels ~height () = { title; x_labels; height; series = [] }

  let add_series t ~name values =
    if List.length values <> List.length t.x_labels then
      invalid_arg "Report.Chart.add_series: wrong number of points";
    t.series <- (name, values) :: t.series

  let marks = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

  let render t =
    let series = List.rev t.series in
    let all_values =
      List.concat_map (fun (_, vs) -> List.filter (fun v -> not (Float.is_nan v)) vs) series
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf t.title;
    Buffer.add_char buf '\n';
    (match all_values with
    | [] -> Buffer.add_string buf "  (no data)\n"
    | _ :: _ ->
      let vmin = List.fold_left min infinity all_values in
      let vmax = List.fold_left max neg_infinity all_values in
      let span = if vmax -. vmin < 1e-9 then 1.0 else vmax -. vmin in
      let nx = List.length t.x_labels in
      let col_width = 7 in
      let row_of v =
        int_of_float
          (Float.round ((v -. vmin) /. span *. float_of_int (t.height - 1)))
      in
      let grid = Array.make_matrix t.height (nx * col_width) ' ' in
      List.iteri
        (fun si (_, vs) ->
          let mark = marks.(si mod Array.length marks) in
          List.iteri
            (fun xi v ->
              if not (Float.is_nan v) then begin
                let r = t.height - 1 - row_of v in
                let c = (xi * col_width) + (col_width / 2) in
                if grid.(r).(c) = ' ' then grid.(r).(c) <- mark
                else grid.(r).(c) <- '?'  (* collision *)
              end)
            vs)
        series;
      for r = 0 to t.height - 1 do
        let frac = float_of_int (t.height - 1 - r) /. float_of_int (t.height - 1) in
        let label = vmin +. (frac *. span) in
        Buffer.add_string buf (Printf.sprintf "%10.3f |" label);
        Buffer.add_string buf (String.init (nx * col_width) (fun c -> grid.(r).(c)));
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf (String.make 12 ' ');
      Buffer.add_string buf (String.make (nx * col_width) '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make 12 ' ');
      List.iter
        (fun l ->
          let l = if String.length l > col_width - 1 then String.sub l 0 (col_width - 1) else l in
          Buffer.add_string buf l;
          Buffer.add_string buf (String.make (col_width - String.length l) ' '))
        t.x_labels;
      Buffer.add_char buf '\n';
      List.iteri
        (fun si (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf "  %c %s\n" marks.(si mod Array.length marks) name))
        series);
    Buffer.contents buf
end
