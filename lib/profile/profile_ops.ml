let describe p =
  match Profile.source p with
  | Profile.Exact -> "exact"
  | Profile.Sampled { period; seed } -> Printf.sprintf "sampled p=%d s=%d" period seed
  | Profile.Derived what -> what

let derived p op = Profile.Derived (describe p ^ " |> " ^ op)

let round_scale v factor = int_of_float (Float.round (float_of_int v *. factor))

(* Union of two entry lists as a (key -> (freq_a, weight_a, freq_b,
   weight_b)) association, in canonical key order. *)
let paired a b =
  let tbl = Hashtbl.create 512 in
  List.iter (fun (key, f, w) -> Hashtbl.replace tbl key (f, w, 0, 0)) (Profile.entries a);
  List.iter
    (fun (key, f, w) ->
      match Hashtbl.find_opt tbl key with
      | Some (fa, wa, _, _) -> Hashtbl.replace tbl key (fa, wa, f, w)
      | None -> Hashtbl.replace tbl key (0, 0, f, w))
    (Profile.entries b);
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) tbl [] |> List.sort compare

let nonzero (_, f, w) = f > 0 || w > 0

let merge ?(w = 1.0) a b =
  if w < 0.0 then invalid_arg "Profile_ops.merge: negative weight";
  let entries =
    paired a b
    |> List.map (fun (key, (fa, wa, fb, wb)) ->
           (key, fa + round_scale fb w, wa + round_scale wb w))
    |> List.filter nonzero
  in
  let op =
    if w = 1.0 then Printf.sprintf "merge (%s)" (describe b)
    else Printf.sprintf "merge w=%g (%s)" w (describe b)
  in
  Profile.of_entries ~source:(derived a op) entries

let decay p ~factor =
  if factor < 0.0 || factor > 1.0 then
    invalid_arg "Profile_ops.decay: factor must be in [0, 1]";
  let entries =
    Profile.entries p
    |> List.map (fun (key, f, w) -> (key, round_scale f factor, round_scale w factor))
    |> List.filter nonzero
  in
  Profile.of_entries
    ~source:(derived p (Printf.sprintf "decay %g" factor))
    entries

let truncate_top p ~keep =
  if keep < 0 then invalid_arg "Profile_ops.truncate_top: negative keep";
  let by_weight (ka, fa, wa) (kb, fb, wb) =
    (* Heaviest first; deterministic key order among equals. *)
    match compare (wb, fb) (wa, fa) with 0 -> compare ka kb | c -> c
  in
  let entries =
    Profile.entries p |> List.sort by_weight
    |> List.filteri (fun i _ -> i < keep)
    |> List.sort compare
  in
  Profile.of_entries
    ~source:(derived p (Printf.sprintf "truncate top %d" keep))
    entries

let distance a b =
  let ta = float_of_int (Profile.total_weight a) in
  let tb = float_of_int (Profile.total_weight b) in
  if ta = 0.0 && tb = 0.0 then 0.0
  else if ta = 0.0 || tb = 0.0 then 1.0
  else
    let sum =
      List.fold_left
        (fun acc (_, (_, wa, _, wb)) ->
          acc +. Float.abs ((float_of_int wa /. ta) -. (float_of_int wb /. tb)))
        0.0 (paired a b)
    in
    (* Clamp: float summation can overshoot the mathematical [0, 1] range
       by an ulp on disjoint-support profiles. *)
    Float.min 1.0 (Float.max 0.0 (sum /. 2.0))

let overlap a b = 1.0 -. distance a b
