(* Lifecycle algebra over profiles (Profile_ops) — qcheck properties over
   synthetic profiles, plus sampled→exact convergence on real workloads. *)

let qcheck = QCheck_alcotest.to_alcotest

(* Synthetic profiles via [Profile.of_entries]: a handful of function
   names, small block ids, bounded counts.  Keys are deduplicated because
   [of_entries] rejects duplicates. *)
let gen_profile =
  let open QCheck.Gen in
  let entry =
    quad
      (oneofl [ "main"; "hot"; "cold"; "f"; "g2" ])
      (int_range 0 12) (int_range 0 1000) (int_range 0 100_000)
  in
  let+ raw = list_size (int_range 0 25) entry in
  let entries =
    List.fold_left
      (fun (seen, acc) (f, b, fr, w) ->
        if List.mem (f, b) seen then (seen, acc)
        else ((f, b) :: seen, ((f, b), fr, w) :: acc))
      ([], []) raw
    |> snd
  in
  Profile.of_entries entries

let arb_profile =
  QCheck.make ~print:(fun p -> Profile.to_string p) gen_profile

let arb_profile2 = QCheck.pair arb_profile arb_profile

let arb_profile3 = QCheck.triple arb_profile arb_profile arb_profile

(* Entries with at least one non-zero count — what the lifecycle ops
   preserve (all-zero entries are dropped by merge/decay). *)
let nonzero_entries p =
  List.filter (fun (_, fr, w) -> fr > 0 || w > 0) (Profile.entries p)

let merge_commutes =
  QCheck.Test.make ~count:200 ~name:"merge is commutative (w = 1)"
    arb_profile2 (fun (a, b) ->
      let ab = Profile_ops.merge a b and ba = Profile_ops.merge b a in
      Profile.entries ab = Profile.entries ba
      && Profile.total_weight ab = Profile.total_weight ba)

let merge_associates =
  QCheck.Test.make ~count:200 ~name:"merge is associative (w = 1)"
    arb_profile3 (fun (a, b, c) ->
      let l = Profile_ops.merge (Profile_ops.merge a b) c in
      let r = Profile_ops.merge a (Profile_ops.merge b c) in
      Profile.entries l = Profile.entries r)

let decay_one_is_identity =
  QCheck.Test.make ~count:200 ~name:"decay 1.0 is the identity on entries"
    arb_profile (fun p ->
      Profile.entries (Profile_ops.decay p ~factor:1.0) = nonzero_entries p)

let decay_zero_empties =
  QCheck.Test.make ~count:200 ~name:"decay 0.0 empties the profile"
    arb_profile (fun p ->
      Profile.entries (Profile_ops.decay p ~factor:0.0) = []
      && Profile.total_weight (Profile_ops.decay p ~factor:0.0) = 0)

(* round(f·(x+y)) and round(f·x)+round(f·y) differ by at most 1, so decay
   distributes over merge up to ±1 per count. *)
let decay_distributes =
  QCheck.Test.make ~count:200
    ~name:"decay distributes over merge (per-count tolerance 1)" arb_profile2
    (fun (a, b) ->
      let f = 0.5 in
      let l = Profile_ops.decay (Profile_ops.merge a b) ~factor:f in
      let r = Profile_ops.merge (Profile_ops.decay a ~factor:f)
          (Profile_ops.decay b ~factor:f)
      in
      let keys p = List.map (fun (k, _, _) -> k) (Profile.entries p) in
      List.for_all
        (fun (fn, blk) ->
          abs (Profile.freq l fn blk - Profile.freq r fn blk) <= 1
          && abs (Profile.weight l fn blk - Profile.weight r fn blk) <= 1)
        (List.sort_uniq compare (keys l @ keys r)))

let truncate_invariants =
  QCheck.Test.make ~count:200
    ~name:"truncate_top keeps <= k entries, values unchanged"
    (QCheck.pair arb_profile (QCheck.int_range 0 10))
    (fun (p, k) ->
      let t = Profile_ops.truncate_top p ~keep:k in
      let kept = Profile.entries t in
      List.length kept <= k
      && List.for_all
           (fun ((fn, blk), fr, w) ->
             Profile.freq p fn blk = fr && Profile.weight p fn blk = w)
           kept
      && Profile.total_weight t
         = List.fold_left (fun acc (_, _, w) -> acc + w) 0 kept)

let distance_self =
  QCheck.Test.make ~count:200 ~name:"distance (p, p) = 0" arb_profile
    (fun p -> Profile_ops.distance p p = 0.0)

let distance_symmetric_bounded =
  QCheck.Test.make ~count:200 ~name:"distance is symmetric and in [0, 1]"
    arb_profile2 (fun (a, b) ->
      let d = Profile_ops.distance a b in
      abs_float (d -. Profile_ops.distance b a) < 1e-12
      && d >= 0.0 && d <= 1.0
      && abs_float (Profile_ops.overlap a b -. (1.0 -. d)) < 1e-12)

let distance_scale_invariant =
  QCheck.Test.make ~count:200 ~name:"distance ignores uniform scaling"
    arb_profile (fun p ->
      let scaled =
        Profile.of_entries
          (List.map (fun (k, fr, w) -> (k, 3 * fr, 3 * w)) (Profile.entries p))
      in
      Profile_ops.distance p scaled < 1e-9)

let algebra_tests =
  List.map qcheck
    [
      merge_commutes; merge_associates; decay_one_is_identity;
      decay_zero_empties; decay_distributes; truncate_invariants;
      distance_self; distance_symmetric_bounded;
      distance_scale_invariant;
    ]

let unit_tests =
  [
    Alcotest.test_case "weighted merge scales the second profile" `Quick
      (fun () ->
        let a = Profile.of_entries [ (("main", 0), 10, 100) ] in
        let b = Profile.of_entries [ (("main", 0), 4, 40) ] in
        let m = Profile_ops.merge ~w:0.5 a b in
        Alcotest.(check int) "freq" 12 (Profile.freq m "main" 0);
        Alcotest.(check int) "weight" 120 (Profile.weight m "main" 0);
        Alcotest.(check int) "total" 120 (Profile.total_weight m));
    Alcotest.test_case "negative merge weight is rejected" `Quick (fun () ->
        match Profile_ops.merge ~w:(-1.0) Profile.empty Profile.empty with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "w < 0 should raise");
    Alcotest.test_case "decay factor outside [0,1] is rejected" `Quick
      (fun () ->
        match Profile_ops.decay Profile.empty ~factor:1.5 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "factor 1.5 should raise");
    Alcotest.test_case "lifecycle results carry Derived provenance" `Quick
      (fun () ->
        let p = Profile.of_entries [ (("main", 0), 1, 5) ] in
        let is_derived q =
          match Profile.source q with Profile.Derived _ -> true | _ -> false
        in
        Alcotest.(check bool) "merge" true
          (is_derived (Profile_ops.merge p p));
        Alcotest.(check bool) "decay" true
          (is_derived (Profile_ops.decay p ~factor:0.5));
        Alcotest.(check bool) "truncate" true
          (is_derived (Profile_ops.truncate_top p ~keep:1)));
    Alcotest.test_case "distance of empty profiles" `Quick (fun () ->
        let p = Profile.of_entries [ (("main", 0), 1, 5) ] in
        Alcotest.(check (float 1e-12)) "empty/empty" 0.0
          (Profile_ops.distance Profile.empty Profile.empty);
        Alcotest.(check (float 1e-12)) "empty/non-empty" 1.0
          (Profile_ops.distance Profile.empty p));
  ]

(* ------------------------------------------------------------------ *)
(* Convergence on real workloads: as the sampling period shrinks the
   sampled profile approaches the exact one, and period 1 IS exact. *)

let convergence_tests =
  let for_workload name =
    Alcotest.test_case (name ^ ": sampled converges to exact") `Slow
      (fun () ->
        let wl =
          match Workloads.find name with
          | Some wl -> wl
          | None -> Alcotest.failf "workload %s missing" name
        in
        let p = Workload.compile wl in
        let input = Workload.profiling_input wl in
        let exact, _ = Profile.collect p ~input in
        let dist period =
          let sampled, _ =
            Profile.collect_sampled ~period ~seed:7 p ~input
          in
          Profile_ops.distance exact sampled
        in
        let d1 = dist 1 and d16 = dist 16 and d256 = dist 256 in
        Alcotest.(check (float 1e-12)) "period 1 is exact" 0.0 d1;
        if d16 > d256 +. 0.02 then
          Alcotest.failf
            "distance should shrink with period: d(16)=%.4f d(256)=%.4f" d16
            d256;
        if d256 > 0.25 then
          Alcotest.failf "period-256 estimate too far from exact: %.4f" d256)
  in
  [ for_workload "adpcm"; for_workload "gsm" ]

let suite =
  [
    ("profile-ops", unit_tests @ algebra_tests);
    ("profile-ops-convergence", convergence_tests);
  ]
