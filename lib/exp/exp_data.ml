type prepared = {
  wl : Workload.t;
  digest : string;
  input_prog : Prog.t;
  squeezed : Prog.t;
  squeeze_stats : Squeeze.stats;
  profile : Profile.t;
  profile_outcome : Vm.outcome;
}

let fuel = 2_000_000_000

(* Hex MD5 of the strings, each length-prefixed so the partition into
   list elements matters: ["ab"; "c"] and ["a"; "bc"] differ. *)
let digest parts =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let workload_digest (wl : Workload.t) =
  digest
    [ wl.Workload.source; Workload.profiling_input wl; Workload.timing_input wl;
      Workload.drift_input wl ]

let options_key (o : Squash.options) =
  Printf.sprintf
    "o2;theta=%h;k=%d;gamma=%h;pack=%b;bsafe=%b;sharp=%b;unswitch=%b;decomp=%d;stubs=%d;coder=%s;regions=%s"
    o.Squash.theta o.Squash.k_bytes o.Squash.gamma o.Squash.pack
    o.Squash.use_buffer_safe o.Squash.sharp_buffer_safe o.Squash.unswitch
    o.Squash.decomp_words
    o.Squash.max_stubs
    (Compress.backend_name o.Squash.coder)
    (match o.Squash.regions_strategy with `Dfs -> "dfs" | `Linear -> "linear")

(* In-process memo tables.  Every one is a domain-safe compute-once table
   keyed by content digest (plus the option fingerprint where relevant), so
   concurrent engine jobs share work instead of duplicating it, and a
   changed workload can never serve a stale entry. *)
let prepared_memo : prepared Memo.t = Memo.create ()
let baseline_memo : Vm.outcome Memo.t = Memo.create ()
let squash_memo : Squash.result Memo.t = Memo.create ()
let profile_memo : Profile.t Memo.t = Memo.create ()

let reset () =
  Memo.clear prepared_memo;
  Memo.clear baseline_memo;
  Memo.clear squash_memo;
  Memo.clear profile_memo

let prepare (wl : Workload.t) =
  (* Only what [prepare] reads: forcing the timing or drift input here
     would generate inputs [lint] and [prove] never run. *)
  let digest = digest [ wl.Workload.source; Workload.profiling_input wl ] in
  let p =
    Memo.get prepared_memo
      (wl.Workload.name ^ ":" ^ digest)
      (fun () ->
        let compiled = Workload.compile wl in
        let input_prog = Squeeze.remove_unreachable compiled in
        let squeezed, squeeze_stats = Squeeze.run compiled in
        let profile, profile_outcome =
          Profile.collect ~fuel squeezed ~input:(Workload.profiling_input wl)
        in
        { wl; digest; input_prog; squeezed; squeeze_stats; profile;
          profile_outcome })
  in
  (* A workload differing only in its run inputs shares the entry, but its
     runs must read its own inputs. *)
  if p.wl == wl then p else { p with wl }

(* ------------------------------------------------------------------ *)
(* Profile provenance (lifecycle experiments).  A [profile_spec] names
   which profile guides compression; its label is part of every memo key
   downstream, so an estimated (sampled / decayed / truncated) profile can
   never alias the exact one. *)

type profile_spec =
  | Pexact
  | Poracle
  | Psampled of { period : int; seed : int }
  | Pdecayed of { factor : float; steps : int }
  | Ptruncated of { keep : int }

let spec_label = function
  | Pexact -> "exact"
  | Poracle -> "oracle"
  | Psampled { period; seed } -> Printf.sprintf "sampled;p=%d;s=%d" period seed
  | Pdecayed { factor; steps } -> Printf.sprintf "decay;f=%h;n=%d" factor steps
  | Ptruncated { keep } -> Printf.sprintf "trunc;k=%d" keep

type run_input = [ `Timing | `Drift ]

let run_label = function `Timing -> "timing" | `Drift -> "drift"

let run_input_string p = function
  | `Timing -> Workload.timing_input p.wl
  | `Drift -> Workload.drift_input p.wl

(* Memo key fragments for what a computation reads beyond [p.digest]: the
   run input it executes, and the drift input an oracle profile is
   collected on. *)
let run_key p on = "|run=" ^ run_label on ^ ":" ^ digest [ run_input_string p on ]

let spec_key p spec =
  "|profile=" ^ spec_label spec
  ^ match spec with Poracle -> ":" ^ digest [ Workload.drift_input p.wl ] | _ -> ""

let profile_for p spec =
  match spec with
  | Pexact -> p.profile
  | _ ->
    Memo.get profile_memo (p.digest ^ spec_key p spec)
      (fun () ->
        match spec with
        | Pexact -> p.profile
        | Poracle ->
          fst (Profile.collect ~fuel p.squeezed ~input:(Workload.drift_input p.wl))
        | Psampled { period; seed } ->
          fst
            (Profile.collect_sampled ~fuel ~period ~seed p.squeezed
               ~input:(Workload.profiling_input p.wl))
        | Pdecayed { factor; steps } ->
          let rec go n prof =
            if n <= 0 then prof else go (n - 1) (Profile_ops.decay prof ~factor)
          in
          go steps p.profile
        | Ptruncated { keep } -> Profile_ops.truncate_top p.profile ~keep)

let baseline_timing ?(on = `Timing) p =
  Memo.get baseline_memo (p.digest ^ run_key p on) (fun () ->
      Vm.run
        (Vm.of_image ~fuel (Layout.emit p.squeezed) ~input:(run_input_string p on)))

let squash_result ?trace ?(pspec = Pexact) p options =
  Memo.get squash_memo
    (p.digest ^ "|" ^ options_key options ^ spec_key p pspec)
    (fun () ->
      Squash.run ~options ?trace p.squeezed (profile_for p pspec))

let squash_with_profile p options profile =
  Squash.run ~options p.squeezed profile

let timing_run ?trace ?(slots = 1) ?(on = `Timing) p (r : Squash.result) =
  let input = run_input_string p on in
  let outcome, stats = Runtime.run ~fuel ~slots ?trace r.Squash.squashed ~input in
  let baseline = baseline_timing ~on p in
  if
    outcome.Vm.output <> baseline.Vm.output
    || outcome.Vm.exit_code <> baseline.Vm.exit_code
  then
    failwith
      (Printf.sprintf
         "%s: squashed program diverged from baseline (θ=%g, run=%s)"
         p.wl.Workload.name r.Squash.options.Squash.theta (run_label on));
  (outcome, stats)

(* Re-profile an already-squashed image: run it under the profiling VM and
   map per-word counts back to source blocks through the image's owners.  Executions inside the decompression buffer fall outside the
   owned words, exactly like a PC sampler that cannot attribute scratch
   addresses — compressed (cold) code is invisible to the re-profile. *)
let reprofile_squashed (r : Squash.result) ~input =
  let vm, _stats = Runtime.launch ~fuel ~profile:true r.Squash.squashed ~input in
  let outcome = Vm.run vm in
  let counts = Option.get (Vm.counts vm) in
  let owners = r.Squash.squashed.Rewrite.image.Layout.owners in
  let acc = Hashtbl.create 512 in
  Array.iteri
    (fun i owner ->
      match owner with
      | None -> ()
      | Some key ->
        if i < Array.length counts && counts.(i) > 0 then begin
          let freq0, weight0 =
            Option.value ~default:(0, 0) (Hashtbl.find_opt acc key)
          in
          let first = i = 0 || owners.(i - 1) <> Some key in
          Hashtbl.replace acc key
            ((if first then counts.(i) else freq0), weight0 + counts.(i))
        end)
    owners;
  let profile =
    Profile.of_entries ~source:(Profile.Derived "reprofile")
      (Hashtbl.fold
         (fun k (f, w) lst -> ((k, f, w) : (string * int) * int * int) :: lst)
         acc []
      |> List.sort compare)
  in
  (profile, outcome)

let theta_grid = [ 0.0; 1e-5; 5e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 ]

(* The intentional θ rescale of DESIGN.md §4 ("θ scale"): the paper counts
   θ against profiling runs of billions of instructions, ours run millions,
   so the paper's cold-block cutoffs correspond to θ roughly an order of
   magnitude larger here.  Each paper point is multiplied by this factor
   and snapped to the log-nearest {!theta_grid} member so Fig. 7 reuses
   memoized squash results.  The label/value pairs below are DERIVED — a
   hand-edit that makes labels equal values silently corrupts F7a/F7b. *)
let theta_rescale = 10.0

let snap_to_grid t =
  if t = 0.0 then 0.0
  else
    let dist g = Float.abs (Float.log10 g -. Float.log10 t) in
    List.fold_left
      (fun best g -> if g > 0.0 && dist g < dist best then g else best)
      1.0 theta_grid

let paper_theta_label t =
  if t = 0.0 then "0.0"
  else
    let e = int_of_float (Float.floor (Float.log10 t +. 1e-9)) in
    Printf.sprintf "%ge%d" (t /. Float.pow 10.0 (float_of_int e)) e

let fig7_thetas =
  List.map
    (fun paper -> (paper_theta_label paper, snap_to_grid (paper *. theta_rescale)))
    [ 0.0; 1e-5; 5e-5 ]

let theta_label theta =
  if theta = 0.0 then "0.0"
  else if theta >= 0.01 then Printf.sprintf "%g" theta
  else Printf.sprintf "%.0e" theta
