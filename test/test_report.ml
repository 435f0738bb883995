(* Report rendering helpers. *)

let unit_tests =
  [
    Alcotest.test_case "gmean of equal values" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "gmean" 2.0 (Report.gmean [ 2.0; 2.0; 2.0 ]));
    Alcotest.test_case "gmean of 1 and 4 is 2" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "gmean" 2.0 (Report.gmean [ 1.0; 4.0 ]));
    Alcotest.test_case "gmean ignores non-positive values" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "gmean" 3.0 (Report.gmean [ 3.0; 0.0; -5.0 ]));
    Alcotest.test_case "gmean of empty list is 0" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "gmean" 0.0 (Report.gmean []));
    Alcotest.test_case "table aligns columns" `Quick (fun () ->
        let t =
          Report.Table.create ~title:"T"
            [ ("name", Report.Table.Left); ("value", Report.Table.Right) ]
        in
        Report.Table.add_row t [ "a"; "1" ];
        Report.Table.add_row t [ "long-name"; "12345" ];
        let s = Report.Table.render t in
        let lines = String.split_on_char '\n' s in
        (* The two data lines must have equal width. *)
        let data = List.filteri (fun i _ -> i = 4 || i = 5) lines in
        match data with
        | [ l1; l2 ] ->
          Alcotest.(check int) "width" (String.length l2) (String.length l1)
        | _ -> Alcotest.fail "unexpected table layout");
    Alcotest.test_case "table pads multi-byte text by code points" `Quick
      (fun () ->
        let t =
          Report.Table.create ~title:"T"
            [ ("Program", Report.Table.Left);
              ("γ at θ=1.0", Report.Table.Right) ]
        in
        Report.Table.add_row t [ "adpcm"; "0.45" ];
        Report.Table.add_row t [ "Δ"; "1.00" ];
        Alcotest.(check string) "rendered"
          "T\n\
           ===================\n\
           Program  γ at θ=1.0\n\
           -------------------\n\
           adpcm          0.45\n\
           Δ              1.00\n"
          (Report.Table.render t));
    Alcotest.test_case "table rejects ragged rows" `Quick (fun () ->
        let t = Report.Table.create ~title:"T" [ ("a", Report.Table.Left) ] in
        match Report.Table.add_row t [ "x"; "y" ] with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "percent and float cells" `Quick (fun () ->
        Alcotest.(check string) "pct" "13.7%" (Report.Table.cell_percent 0.137);
        Alcotest.(check string) "float" "0.82"
          (Report.Table.cell_float ~decimals:2 0.821));
    Alcotest.test_case "chart renders every series and label" `Quick (fun () ->
        let c =
          Report.Chart.create ~title:"C" ~x_labels:[ "a"; "b"; "c" ] ~height:5 ()
        in
        Report.Chart.add_series c ~name:"up" [ 1.0; 2.0; 3.0 ];
        Report.Chart.add_series c ~name:"down" [ 3.0; 2.5; 1.0 ];
        let s = Report.Chart.render c in
        let contains needle =
          let nh = String.length s and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "legend up" true (contains "up");
        Alcotest.(check bool) "legend down" true (contains "down");
        Alcotest.(check bool) "x label" true (contains "b"));
    Alcotest.test_case "chart with no data does not crash" `Quick (fun () ->
        let c = Report.Chart.create ~title:"C" ~x_labels:[ "a" ] ~height:4 () in
        Alcotest.(check bool) "renders" true
          (String.length (Report.Chart.render c) > 0));
    Alcotest.test_case "chart rejects wrong point counts" `Quick (fun () ->
        let c = Report.Chart.create ~title:"C" ~x_labels:[ "a"; "b" ] ~height:4 () in
        match Report.Chart.add_series c ~name:"s" [ 1.0 ] with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
  ]

let json_tests =
  [
    Alcotest.test_case "control characters are escaped" `Quick (fun () ->
        Alcotest.(check string) "escapes"
          "\"a\\u0001b\\nc\\\"d\\\\e\\tf\""
          (Report.Json.to_string (Report.Json.String "a\001b\nc\"d\\e\tf")));
    Alcotest.test_case "non-finite floats serialise as null" `Quick (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check string) "null" "null"
              (Report.Json.to_string (Report.Json.Float f)))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    Alcotest.test_case "serialised documents round-trip" `Quick (fun () ->
        let open Report.Json in
        let doc =
          Obj
            [ ("null", Null); ("yes", Bool true); ("no", Bool false);
              ("int", Int (-123456789)); ("zero", Int 0);
              ("float", Float 0.1); ("tiny", Float 1.5e-9);
              ("neg", Float (-2.5)); ("inf", Float Float.infinity);
              ("ctrl", String "line1\nline2\ttab\001unit\127del");
              ("quote", String {|she said "hi\bye"|});
              ("empty_list", List []); ("empty_obj", Obj []);
              ( "nested",
                List
                  [ Int 1; String "two";
                    Obj [ ("deep", List [ Bool false; Float 3.25 ]) ] ] ) ]
        in
        Alcotest.(check bool) "roundtrip" true
          (Json_check.parse (to_string doc) = Json_check.of_report doc));
    Alcotest.test_case "float serialisation is lossless" `Quick (fun () ->
        List.iter
          (fun f ->
            match Json_check.parse (Report.Json.to_string (Report.Json.Float f)) with
            | Json_check.Num g ->
              Alcotest.(check bool)
                (Printf.sprintf "%h survives" f)
                true (f = g)
            | _ -> Alcotest.fail "expected a number")
          [ 0.1; 1.0 /. 3.0; 1e300; 5e-324; -0.0; 1234567.89 ]);
  ]

(* ------------------------------------------------------------------ *)
(* The built-in parser (Report.Json.of_string), cross-validated against
   the test suite's independent reader. *)

let parser_tests =
  [
    Alcotest.test_case "of_string inverts to_string" `Quick (fun () ->
        let open Report.Json in
        let doc =
          Obj
            [ ("null", Null); ("yes", Bool true); ("int", Int (-42));
              ("float", Float 0.25);
              ("str", String "a\nb\t\"c\"\\d\001");
              ("list", List [ Int 1; Float 2.5; String "x"; Null ]);
              ("obj", Obj [ ("k", List []) ]) ]
        in
        match of_string (to_string doc) with
        | Ok doc' -> Alcotest.(check bool) "structural equality" true (doc = doc')
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
    Alcotest.test_case "integral literals stay Int, others Float" `Quick
      (fun () ->
        let open Report.Json in
        Alcotest.(check bool) "int" true (of_string "7" = Ok (Int 7));
        Alcotest.(check bool) "negative int" true
          (of_string "-12" = Ok (Int (-12)));
        Alcotest.(check bool) "float" true (of_string "7.5" = Ok (Float 7.5));
        Alcotest.(check bool) "exponent is float" true
          (of_string "1e3" = Ok (Float 1000.0)));
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick (fun () ->
        match Report.Json.of_string {|"\u00e9\u0041"|} with
        | Ok (Report.Json.String s) ->
          Alcotest.(check string) "utf8 bytes" "\xc3\xa9A" s
        | Ok _ -> Alcotest.fail "expected a string"
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
    Alcotest.test_case "malformed input is rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Report.Json.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted malformed %S" s)
          [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
            "{\"a\" 1}"; "nan" ]);
    Alcotest.test_case "member and to_float_opt navigate documents" `Quick
      (fun () ->
        let open Report.Json in
        let doc = Obj [ ("a", Int 3); ("b", Float 2.5); ("c", Null) ] in
        Alcotest.(check (option (float 0.0))) "int member" (Some 3.0)
          (Option.bind (member "a" doc) to_float_opt);
        Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
          (Option.bind (member "b" doc) to_float_opt);
        Alcotest.(check bool) "null member" true
          (Option.bind (member "c" doc) to_float_opt = None);
        Alcotest.(check bool) "missing member" true (member "zzz" doc = None));
    Alcotest.test_case "agrees with the independent reader on a corpus"
      `Quick (fun () ->
        List.iter
          (fun s ->
            match Report.Json.of_string s with
            | Error msg -> Alcotest.failf "%S failed: %s" s msg
            | Ok doc ->
              Alcotest.(check bool) s true
                (Json_check.parse s = Json_check.of_report doc))
          [ "[]"; "{}"; "[[[]]]"; "{\"a\":{\"b\":{\"c\":[1,2,3]}}}";
            "[1.5,-2,true,false,null,\"s\"]"; "  {  \"k\" : 1 }  " ]);
  ]

let suite =
  [ ("report", unit_tests); ("report.json", json_tests);
    ("report.parse", parser_tests) ]
