exception Check_failed of { pass : string; errors : string list }

(* --- the squash passes --------------------------------------------- *)

(* Functions whose code contains a setjmp system call. *)
let detect_setjmp_callers (p : Prog.t) =
  let code = Syscall.to_code Syscall.Setjmp in
  List.filter_map
    (fun (f : Prog.Func.t) ->
      let calls =
        Array.exists
          (fun (b : Prog.Block.t) ->
            List.exists
              (function
                | Prog.Instr (Instr.Sys c) -> c = code
                | Prog.Instr _ | Prog.Load_addr _ -> false)
              b.items)
          f.blocks
      in
      if calls then Some f.name else None)
    p.funcs

(* Functions containing an indirect jump with unknown targets; their blocks
   cannot be moved (the jump could target any of them). *)
let unanalysable_funcs (p : Prog.t) =
  List.filter_map
    (fun (f : Prog.Func.t) ->
      let bad =
        Array.exists
          (fun (b : Prog.Block.t) ->
            match b.term with
            | Prog.Jump_indirect { table = None; _ } -> true
            | Prog.Jump_indirect { table = Some _; _ }
            | Prog.Fallthrough _ | Prog.Jump _ | Prog.Branch _ | Prog.Call _
            | Prog.Call_indirect _ | Prog.Return _ | Prog.No_return ->
              false)
          f.blocks
      in
      if bad then Some f.name else None)
    p.funcs

(* Blocks appended by unswitching have no profile entry: frequency 0, hence
   cold at any θ. *)
let is_cold_or_fresh st cold f b =
  Cold.is_cold cold f b || Profile.freq st.Pass.profile f b = 0

(* §6.2: constant propagation resolving unannotated indirect jumps. *)
let resolve_pass =
  {
    Pass.name = "resolve";
    transform =
      (fun st ->
        let prog, sites = Consts.resolve_tables st.Pass.prog in
        { st with Pass.prog; resolved_jumps = sites });
    note =
      (fun st ->
        Printf.sprintf "%d indirect jumps resolved to tables"
          (List.length st.Pass.resolved_jumps));
  }

(* §5: cold-block identification at threshold θ. *)
let cold_pass =
  {
    Pass.name = "cold";
    transform =
      (fun st ->
        {
          st with
          Pass.cold =
            Some (Cold.identify st.Pass.prog st.Pass.profile ~theta:st.Pass.options.Pass.theta);
        });
    note =
      (fun st ->
        let cold = Pass.get_cold ~who:"cold" st in
        let n = Cold.max_cold_freq cold in
        Printf.sprintf "cutoff N=%s, %d/%d blocks cold"
          (if n = max_int then "inf" else string_of_int n)
          (Cold.cold_block_count cold)
          (Cold.total_block_count cold));
  }

(* §6.2: jump-table unswitching of cold analysable dispatches. *)
let unswitch_pass =
  {
    Pass.name = "unswitch";
    transform =
      (fun st ->
        let cold = Pass.get_cold ~who:"unswitch" st in
        let r = Unswitch.run st.Pass.prog ~is_cold:(Cold.is_cold cold) in
        {
          st with
          Pass.prog = r.Unswitch.prog;
          unswitched = r.Unswitch.rewritten;
          unmatched = r.Unswitch.unmatched;
        });
    note =
      (fun st ->
        Printf.sprintf "%d dispatches unswitched, %d unmatched"
          (List.length st.Pass.unswitched)
          (List.length st.Pass.unmatched));
  }

(* §2.2: never-compress set: entry, setjmp callers, unanalysable jumps. *)
let exclude_pass =
  {
    Pass.name = "exclude";
    transform =
      (fun st ->
        let p = st.Pass.prog in
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace tbl p.Prog.entry ();
        List.iter (fun f -> Hashtbl.replace tbl f ()) (detect_setjmp_callers p);
        List.iter (fun f -> Hashtbl.replace tbl f ()) st.Pass.seed_excluded;
        List.iter (fun f -> Hashtbl.replace tbl f ()) (unanalysable_funcs p);
        List.iter (fun f -> Hashtbl.replace tbl f ()) st.Pass.unmatched;
        let sorted =
          Hashtbl.fold (fun k () acc -> k :: acc) tbl []
          |> List.sort String.compare
        in
        { st with Pass.excluded = Some sorted });
    note =
      (fun st ->
        Printf.sprintf "%d functions excluded"
          (List.length (Pass.get_excluded ~who:"exclude" st)));
  }

(* §4: compressible-region formation and packing. *)
let regions_pass =
  {
    Pass.name = "regions";
    transform =
      (fun st ->
        let cold = Pass.get_cold ~who:"regions" st in
        let excluded = Pass.get_excluded ~who:"regions" st in
        let tbl = Hashtbl.create 16 in
        List.iter (fun f -> Hashtbl.replace tbl f ()) excluded;
        let compressible f b =
          (not (Hashtbl.mem tbl f)) && is_cold_or_fresh st cold f b
        in
        let o = st.Pass.options in
        let regions =
          Regions.build st.Pass.prog ~compressible
            ~params:
              {
                Regions.k_bytes = o.Pass.k_bytes;
                gamma = o.Pass.gamma;
                pack = o.Pass.pack;
                strategy = o.Pass.regions_strategy;
              }
        in
        { st with Pass.regions = Some regions });
    note =
      (fun st ->
        let r = Pass.get_regions ~who:"regions" st in
        Printf.sprintf "%d regions, %d entries, %d blocks rejected"
          (Array.length r.Regions.regions)
          (Hashtbl.length r.Regions.entries)
          r.Regions.rejected_blocks);
  }

(* §6.1: buffer-safety analysis of call sites in compressed code. *)
let buffer_safe_pass =
  {
    Pass.name = "buffer-safe";
    transform =
      (fun st ->
        let regions = Pass.get_regions ~who:"buffer-safe" st in
        let p = st.Pass.prog in
        let has_compressed = Regions.has_compressed regions p in
        let o = st.Pass.options in
        let bsafe =
          if not o.Pass.use_buffer_safe then
            (* With the optimisation disabled, treat everything as unsafe so
               every outgoing call goes through CreateStub. *)
            Buffer_safe.analyze p ~has_compressed:(fun _ -> true)
          else if o.Pass.sharp_buffer_safe then
            Buffer_safe.analyze_sharp p ~has_compressed
          else Buffer_safe.analyze p ~has_compressed
        in
        { st with Pass.buffer_safe = Some bsafe });
    note =
      (fun st ->
        let o = st.Pass.options in
        if not o.Pass.use_buffer_safe then "disabled (all unsafe)"
        else
          let safe =
            List.length
              (Buffer_safe.safe_functions
                 (Pass.get_buffer_safe ~who:"buffer-safe" st))
          in
          if not o.Pass.sharp_buffer_safe then
            Printf.sprintf "%d buffer-safe functions" safe
          else
            (* Recompute the conservative answer so the trace shows what the
               sharpening bought. *)
            let regions = Pass.get_regions ~who:"buffer-safe" st in
            let p = st.Pass.prog in
            let conservative =
              List.length
                (Buffer_safe.safe_functions
                   (Buffer_safe.analyze p
                      ~has_compressed:(Regions.has_compressed regions p)))
            in
            Printf.sprintf "%d buffer-safe functions (sharp; %+d vs conservative)"
              safe (safe - conservative));
  }

(* §2–3: stub emission, compression and decompressor image build. *)
let rewrite_pass =
  {
    Pass.name = "rewrite";
    transform =
      (fun st ->
        let o = st.Pass.options in
        let sq =
          Rewrite.build st.Pass.prog
            ~regions:(Pass.get_regions ~who:"rewrite" st)
            ~buffer_safe:(Pass.get_buffer_safe ~who:"rewrite" st)
            ~decomp_words:o.Pass.decomp_words ~max_stubs:o.Pass.max_stubs
            ~coder:o.Pass.coder ()
        in
        { st with Pass.squashed = Some sq });
    note =
      (fun st ->
        let sq = Pass.get_squashed ~who:"rewrite" st in
        Printf.sprintf "%d regions compressed, %d stub words, %d-word buffer"
          (Array.length sq.Rewrite.images)
          sq.Rewrite.entry_stub_words sq.Rewrite.buffer_words);
  }

(* --- the image gate ---------------------------------------------------
   Two passes over the finished image: [lint_pass] runs the lint level and
   [prove_pass] the prove level.  Each keeps its result in the state, so
   its note reads it instead of running again. *)

let fail_on_errors pass diags =
  match Verify.errors diags with
  | [] -> ()
  | errs -> raise (Check_failed { pass; errors = List.map Verify.message errs })

(* §2–6: whole-image static verification of the squashed executable. *)
let lint_pass =
  {
    Pass.name = "lint";
    transform =
      (fun st ->
        let diags = Verify.run (Pass.get_squashed ~who:"lint" st) in
        fail_on_errors "lint" diags;
        { st with Pass.lint = Some diags });
    note =
      (fun st ->
        Printf.sprintf "0 errors, %d warnings"
          (List.length (Option.value ~default:[] st.Pass.lint)));
  }

(* §2–3: symbolic equivalence proof of every region against its rewrite. *)
let prove_pass =
  {
    Pass.name = "prove";
    transform =
      (fun st ->
        (* Two slots are enough to exercise the slot-relative rebias of
           every external displacement on top of the slot-0 layout. *)
        let r = Prove.run ~slots:2 (Pass.get_squashed ~who:"prove" st) in
        fail_on_errors "prove" r.Prove.failures;
        { st with Pass.proof = Some r });
    note =
      (fun st ->
        match st.Pass.proof with
        | None -> ""
        | Some r ->
          Printf.sprintf "%d/%d block proofs, %d conservative" r.Prove.proved
            r.Prove.blocks r.Prove.conservative);
  }

(* Paper order.  [exclude] follows [unswitch]: a dispatch whose idiom did
   not match excludes its whole function, so exclusion must see unswitch's
   verdict.  Without unswitching, dispatch blocks and their tables stay in
   place, which is safe. *)
let of_options (o : Pass.options) =
  [ resolve_pass; cold_pass ]
  @ (if o.Pass.unswitch then [ unswitch_pass ] else [])
  @ [ exclude_pass; regions_pass; buffer_safe_pass; rewrite_pass ]

let names passes = List.map (fun (p : Pass.t) -> p.Pass.name) passes

(* --- execution ------------------------------------------------------ *)

type run_stats = { passes : Pass.stats list; total_s : float }

(* The IR invariants ([Prog.validate]), plus the profile's: every profiled
   block must still exist, or a pass renumbered or dropped blocks without
   rebuilding the profile. *)
let check_state (st : Pass.state) =
  let p = st.Pass.prog in
  let ir = match Prog.validate p with Ok () -> [] | Error es -> es in
  let stale =
    Profile.fold
      (fun (fname, b) ~freq:_ ~weight:_ acc ->
        match Prog.find_func p fname with
        | Some f when b >= 0 && b < Array.length f.Prog.Func.blocks -> acc
        | Some _ | None -> (fname, b) :: acc)
      st.Pass.profile []
    |> List.sort compare
    |> List.map (fun (fname, b) ->
           Printf.sprintf "profile names block %s.%d, which the program lacks"
             fname b)
  in
  match ir @ stale with [] -> Ok () | es -> Error es

let execute ?(check_each = false) ?trace ?obs ~passes st =
  let emit line = match trace with Some f -> f line | None -> () in
  let st, rev_stats =
    List.fold_left
      (fun (st, acc) (p : Pass.t) ->
        let instrs_before = Prog.instr_count st.Pass.prog in
        let words_before = Pass.footprint st in
        let t0 = Obs.Clock.now () in
        let g0 = Gc.quick_stat () in
        (match obs with
        | None -> ()
        | Some o ->
          Obs.event o
            { ts = Obs.Event.Mono t0;
              payload = Obs.Event.Pass_begin { name = p.Pass.name } });
        let st' = p.Pass.transform st in
        let elapsed_s = Obs.Clock.now () -. t0 in
        let g1 = Gc.quick_stat () in
        let alloc_words =
          int_of_float
            (Float.max 0.0
               (g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
               -. (g0.Gc.minor_words +. g0.Gc.major_words
                  -. g0.Gc.promoted_words)))
        in
        let major_collections = g1.Gc.major_collections - g0.Gc.major_collections in
        (match obs with
        | None -> ()
        | Some o ->
          Obs.event o
            { ts = Obs.Event.Mono (t0 +. elapsed_s);
              payload = Obs.Event.Pass_end { name = p.Pass.name; elapsed_s } };
          Obs.incr o "pipeline.passes_run";
          Obs.observe o "pipeline.pass_alloc_words" alloc_words;
          Obs.max_gauge o "gc.top_heap_words" g1.Gc.top_heap_words);
        (if check_each then
           match check_state st' with
           | Ok () -> ()
           | Error errors ->
             raise (Check_failed { pass = p.Pass.name; errors }));
        let s =
          {
            Pass.pass_name = p.Pass.name;
            elapsed_s;
            instrs_before;
            instrs_after = Prog.instr_count st'.Pass.prog;
            words_before;
            words_after = Pass.footprint st';
            alloc_words;
            major_collections;
            note = p.Pass.note st';
          }
        in
        emit
          (Printf.sprintf "pass %-12s %7.2f ms  %6d instrs (%+d)  %6d words (%+d)  %s"
             s.Pass.pass_name (1000.0 *. s.Pass.elapsed_s) s.Pass.instrs_after
             (s.Pass.instrs_after - s.Pass.instrs_before)
             s.Pass.words_after
             (s.Pass.words_after - s.Pass.words_before)
             s.Pass.note);
        (st', s :: acc))
      (st, []) passes
  in
  let stats = List.rev rev_stats in
  let total_s =
    List.fold_left (fun acc (s : Pass.stats) -> acc +. s.Pass.elapsed_s) 0.0 stats
  in
  (st, { passes = stats; total_s })

(* --- stats rendering ------------------------------------------------ *)

let render_stats rs =
  let t =
    Report.Table.create ~title:"pipeline passes"
      [ ("pass", Report.Table.Left); ("time (ms)", Report.Table.Right);
        ("share", Report.Table.Right); ("instrs", Report.Table.Right);
        ("Δinstrs", Report.Table.Right); ("words", Report.Table.Right);
        ("Δwords", Report.Table.Right); ("alloc (kw)", Report.Table.Right);
        ("note", Report.Table.Left) ]
  in
  List.iter
    (fun (s : Pass.stats) ->
      let share =
        if rs.total_s > 0.0 then s.Pass.elapsed_s /. rs.total_s else 0.0
      in
      Report.Table.add_row t
        [ s.Pass.pass_name;
          Report.Table.cell_float ~decimals:2 (1000.0 *. s.Pass.elapsed_s);
          Report.Table.cell_percent ~decimals:1 share;
          string_of_int s.Pass.instrs_after;
          Printf.sprintf "%+d" (s.Pass.instrs_after - s.Pass.instrs_before);
          string_of_int s.Pass.words_after;
          Printf.sprintf "%+d" (s.Pass.words_after - s.Pass.words_before);
          Report.Table.cell_float ~decimals:1
            (float_of_int s.Pass.alloc_words /. 1000.0);
          s.Pass.note ])
    rs.passes;
  Report.Table.add_separator t;
  Report.Table.add_row t
    [ "total"; Report.Table.cell_float ~decimals:2 (1000.0 *. rs.total_s);
      ""; ""; ""; ""; ""; ""; "" ];
  Report.Table.render t

let stats_json rs =
  let open Report.Json in
  Obj
    [ ("total_s", Float rs.total_s);
      ( "passes",
        List
          (List.map
             (fun (s : Pass.stats) ->
               Obj
                 [ ("name", String s.Pass.pass_name);
                   ("elapsed_s", Float s.Pass.elapsed_s);
                   ("instrs_before", Int s.Pass.instrs_before);
                   ("instrs_after", Int s.Pass.instrs_after);
                   ("words_before", Int s.Pass.words_before);
                   ("words_after", Int s.Pass.words_after);
                   ("alloc_words", Int s.Pass.alloc_words);
                   ("major_collections", Int s.Pass.major_collections);
                   ("note", String s.Pass.note) ])
             rs.passes) ) ]
