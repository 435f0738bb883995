type region = { id : int; blocks : (string * int) list }

type t = {
  regions : region array;
  region_of : (string * int, int) Hashtbl.t;
  entries : (string * int, unit) Hashtbl.t;
  rejected_blocks : int;
}

type strategy = [ `Dfs | `Linear ]
type packer = [ `Incremental | `Rescan ]

type params = { k_bytes : int; gamma : float; pack : bool; strategy : strategy }

let default_params = { k_bytes = 512; gamma = 0.66; pack = true; strategy = `Dfs }

let entry_stub_words = 2

(* Conservative buffer-image size of a block: its canonical size plus slack
   for a materialised boundary jump or an expanded call. *)
let block_cost (f : Prog.Func.t) i = Prog.Block.instr_count f.blocks.(i) + 2

module Int_set = Set.Make (Int)

(* ------------------------------------------------------------------ *)

type facts = {
  prog : Prog.t;
  func_of : (string, Prog.Func.t) Hashtbl.t;
  preds : (string, int list array) Hashtbl.t;
  callers_of_entry : (string, (string * int) list) Hashtbl.t;
      (* direct call sites per callee, as (caller function, caller block) *)
  address_taken : (string, unit) Hashtbl.t;
  table_targets : (string * int, unit) Hashtbl.t;
      (* blocks that a retained jump table can reach *)
}

let gather_facts (p : Prog.t) =
  let func_of = Hashtbl.create 64 in
  let preds = Hashtbl.create 64 in
  let callers_of_entry = Hashtbl.create 64 in
  let address_taken = Hashtbl.create 16 in
  let table_targets = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Hashtbl.replace func_of f.name f;
      Hashtbl.replace preds f.name (Cfg.preds f);
      Array.iter
        (fun (b : Prog.Block.t) ->
          List.iter
            (function
              | Prog.Load_addr (_, Prog.Func_addr g) -> Hashtbl.replace address_taken g ()
              | Prog.Load_addr (_, Prog.Table_addr _) | Prog.Instr _ -> ())
            b.items;
          ())
        f.blocks;
      Array.iteri
        (fun i (b : Prog.Block.t) ->
          match b.term with
          | Prog.Call { callee; _ } ->
            Hashtbl.replace callers_of_entry callee
              ((f.name, i)
              :: Option.value ~default:[] (Hashtbl.find_opt callers_of_entry callee))
          | Prog.Fallthrough _ | Prog.Jump _ | Prog.Branch _ | Prog.Call_indirect _
          | Prog.Jump_indirect _ | Prog.Return _ | Prog.No_return ->
            ())
        f.blocks;
      Array.iter
        (fun entries ->
          Array.iter (fun d -> Hashtbl.replace table_targets (f.name, d) ()) entries)
        f.tables)
    p.funcs;
  { prog = p; func_of; preds; callers_of_entry; address_taken; table_targets }

(* ------------------------------------------------------------------ *)
(* The entry-stub predicate.

   A block needs an entry stub iff control can reach it from outside its
   region.  A called function's entry can only go stub-less when the callee
   is entirely inside one region and every direct call site sits in that
   same region — the condition under which {!Rewrite} emits the call as a
   plain intra-buffer [bsr].

   This is the ONE implementation, parameterized by a membership function:
   phase-1 profitability evaluates it against a tentative block set, the
   packers against a (hypothetically merged) region, and {!compute_entries}
   against the final partition.  It used to exist as three hand-rolled
   copies that disagreed on the called-entry refinement, overpricing E in
   the §4 profitability test. *)

(* A called entry is reachable from outside the candidate region unless the
   whole callee and every direct call site are members. *)
let called_entry_external facts ~member fname =
  match Hashtbl.find_opt facts.callers_of_entry fname with
  | None | Some [] -> false
  | Some callers ->
    let fully_inside =
      match Hashtbl.find_opt facts.func_of fname with
      | None -> false
      | Some f ->
        let n = Array.length f.Prog.Func.blocks in
        let rec all j = j >= n || (member (fname, j) && all (j + 1)) in
        all 0
    in
    (not fully_inside) || List.exists (fun site -> not (member site)) callers

let needs_entry_stub facts ~member fname i =
  List.exists
    (fun pr -> not (member (fname, pr)))
    (Hashtbl.find facts.preds fname).(i)
  || (i = 0
     && (Hashtbl.mem facts.address_taken fname
        || fname = facts.prog.Prog.entry
        || called_entry_external facts ~member fname))
  || Hashtbl.mem facts.table_targets (fname, i)

let compute_entries facts region_of =
  let entries = Hashtbl.create 64 in
  List.iter
    (fun (f : Prog.Func.t) ->
      Array.iteri
        (fun i _ ->
          let key = (f.name, i) in
          match Hashtbl.find_opt region_of key with
          | None -> ()
          | Some rid ->
            let member other = Hashtbl.find_opt region_of other = Some rid in
            if needs_entry_stub facts ~member f.name i then
              Hashtbl.replace entries key ())
        f.blocks)
    facts.prog.Prog.funcs;
  entries

(* The same predicate, decomposed into independent causes for a block
   already placed in region [r = region_of key].  The block needs a stub
   iff [perm] (a cause no merge can remove: a predecessor or call site
   outside every region, a partly-unplaced callee body, a taken address,
   the program entry, a jump-table target) or [needs] is non-empty (the
   other regions control enters from).  The stub disappears in a merged
   region M ⊇ r exactly when not [perm] and [needs ⊆ M] — the invalidation
   rule the incremental packer maintains. *)
let entry_causes facts region_of ((fname, i) as key) =
  let r = Hashtbl.find region_of key in
  let perm = ref false in
  let needs = ref Int_set.empty in
  let note other =
    match Hashtbl.find_opt region_of other with
    | None -> perm := true
    | Some r' -> if r' <> r then needs := Int_set.add r' !needs
  in
  List.iter (fun pr -> note (fname, pr)) (Hashtbl.find facts.preds fname).(i);
  (if i = 0 then
     if Hashtbl.mem facts.address_taken fname || fname = facts.prog.Prog.entry
     then perm := true
     else
       match Hashtbl.find_opt facts.callers_of_entry fname with
       | None | Some [] -> ()
       | Some callers -> (
         List.iter note callers;
         match Hashtbl.find_opt facts.func_of fname with
         | None -> perm := true
         | Some f -> Array.iteri (fun j _ -> note (fname, j)) f.Prog.Func.blocks));
  if Hashtbl.mem facts.table_targets key then perm := true;
  (!perm, !needs)

(* Calls whose caller block and callee entry block could fall in different
   regions; used by the packing gain.  Call sites whose callee has no body
   in the program (e.g. a stripped intrinsic) can never pair two regions
   and are skipped. *)
let direct_calls facts =
  List.concat_map
    (fun (f : Prog.Func.t) ->
      Array.to_list
        (Array.mapi (fun i (b : Prog.Block.t) -> (i, b.Prog.Block.term)) f.blocks)
      |> List.filter_map (fun (i, term) ->
             match term with
             | Prog.Call { callee; _ } when Hashtbl.mem facts.func_of callee ->
               Some ((f.name, i), (callee, 0))
             | _ -> None))
    facts.prog.Prog.funcs

(* ------------------------------------------------------------------ *)
(* Phase 2: packing.  Merge the pair of regions with the best stub-plus-call
   savings until no profitable pair fits the bound.

   Both packers implement the same specification:

     gain(a, b) = entry_stub_words · |{entry blocks of a∪b whose only
                  causes lie in the partner region}|
                + 2 · |direct calls crossing between a and b|

     each round, merge the pair with maximal positive gain whose combined
     cost fits the buffer bound; ties break to the lexicographically
     smallest (id, id) pair; the merged region keeps the smaller id and
     lays the smaller id's blocks out first.

   [`Rescan] recomputes every fact from scratch each round and scans all
   O(R²) region pairs — the executable specification, kept as the
   regression reference and the "before" of the perf comparison.
   [`Incremental] gathers the facts once into indexed form and after each
   merge re-evaluates only the pairs the merge touched. *)

type pack_region = { mutable blocks : (string * int) list; mutable cost : int }

let ordered_pair a b = if a < b then (a, b) else (b, a)

(* Per-round weight tables shared by the two packers' bookkeeping:
   [callw (a, b)] is 2·(calls crossing a↔b); [sngw (a, b)] is
   entry_stub_words·(entry blocks of a needing exactly {b} plus entry
   blocks of b needing exactly {a}). *)
let bump tbl key d =
  let v = Option.value ~default:0 (Hashtbl.find_opt tbl key) + d in
  if v = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key v

let weight tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

let cost_of facts r =
  List.fold_left
    (fun acc (fname, i) -> acc + block_cost (Hashtbl.find facts.func_of fname) i)
    0 r.blocks

let pack_rescan facts ~k_words ~calls ~region_of regions =
  let continue = ref true in
  while !continue do
    (* Recompute everything: costs, crossing calls, and the per-block entry
       causes (the per-round compute_entries of the old code). *)
    let cost = Hashtbl.create 64 in
    List.iter (fun (id, r) -> Hashtbl.replace cost id (cost_of facts r)) !regions;
    let callw = Hashtbl.create 64 in
    List.iter
      (fun (site, (callee, _)) ->
        match
          (Hashtbl.find_opt region_of site, Hashtbl.find_opt region_of (callee, 0))
        with
        | Some ra, Some rb when ra <> rb -> bump callw (ordered_pair ra rb) 2
        | _ -> ())
      calls;
    let sngw = Hashtbl.create 64 in
    List.iter
      (fun (id, r) ->
        List.iter
          (fun key ->
            let perm, needs = entry_causes facts region_of key in
            if (not perm) && Int_set.cardinal needs = 1 then
              bump sngw (ordered_pair id (Int_set.choose needs)) entry_stub_words)
          r.blocks)
      !regions;
    (* Scan all region pairs for the best merge. *)
    let ids = Array.of_list (List.map fst !regions) in
    let nr = Array.length ids in
    let best = ref None in
    for ai = 0 to nr - 1 do
      for bi = ai + 1 to nr - 1 do
        let pair = ordered_pair ids.(ai) ids.(bi) in
        if Hashtbl.find cost ids.(ai) + Hashtbl.find cost ids.(bi) <= k_words
        then begin
          let g = weight sngw pair + weight callw pair in
          if g > 0 then
            (* Max gain; ties to the smallest (id, id) pair. *)
            match !best with
            | Some (bg, bp) when bg > g || (bg = g && bp < pair) -> ()
            | _ -> best := Some (g, pair)
        end
      done
    done;
    match !best with
    | None -> continue := false
    | Some (_, (a, b)) ->
      let ra = List.assoc a !regions and rb = List.assoc b !regions in
      let merged = { blocks = ra.blocks @ rb.blocks; cost = 0 } in
      List.iter (fun key -> Hashtbl.replace region_of key a) rb.blocks;
      regions :=
        List.filter_map
          (fun (id, r) ->
            if id = a then Some (a, merged)
            else if id = b then None
            else Some (id, r))
          !regions
  done

(* A binary min-heap of candidate pairs ordered by (-gain, a, b): the top
   is the maximal-gain pair, ties broken to the smallest id pair — the
   same order the rescan packer's scan produces.  Entries are never
   deleted; staleness is detected at pop time by recomputing the gain. *)
module Pair_heap = struct
  type entry = { g : int; a : int; b : int }

  type t = { mutable arr : entry array; mutable len : int }

  let create () = { arr = Array.make 64 { g = 0; a = 0; b = 0 }; len = 0 }

  let before e1 e2 = (-e1.g, e1.a, e1.b) < (-e2.g, e2.a, e2.b)

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) e in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- e;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if before h.arr.(!i) h.arr.(parent) then begin
        let tmp = h.arr.(parent) in
        h.arr.(parent) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && before h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && before h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

(* Incremental greedy merging over indexed facts.

   Indexed state (invariants between merges):
   - [states]: alive regions, their blocks (layout order) and cost;
   - [call_nbrs]: per region, crossing-call weight to each partner region
     (symmetric adjacency of the direct-call graph quotient);
   - [causes]: for every entry block with no permanent cause, its owner
     region and the set of partner regions its stub depends on, with a
     reverse index [dependents] (region → blocks whose needs mention it)
     and [sng] (owner → partner → count of blocks needing exactly that
     partner, i.e. the stub savings of that merge);
   - [heap]: every pair with positive gain has an entry carrying its
     current gain (stale entries are skipped at pop time).

   Invalidation rule: merging b into a only changes facts mentioning a or
   b — blocks owned by b (owner rename), blocks whose needs mention a or b
   (need rename b→a, then drop needs now internal to a), and call edges
   incident to a or b.  Only pairs touched by those updates can change
   gain, so only they are re-pushed. *)
let pack_incremental facts ~k_words ~calls ~region_of regions =
  let states = Hashtbl.create 64 in
  List.iter (fun (id, r) -> Hashtbl.replace states id r) !regions;
  let sub_tbl tbl id =
    match Hashtbl.find_opt tbl id with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace tbl id t;
      t
  in
  (* Crossing-call adjacency. *)
  let call_nbrs : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (site, (callee, _)) ->
      match
        (Hashtbl.find_opt region_of site, Hashtbl.find_opt region_of (callee, 0))
      with
      | Some ra, Some rb when ra <> rb ->
        bump (sub_tbl call_nbrs ra) rb 2;
        bump (sub_tbl call_nbrs rb) ra 2
      | _ -> ())
    calls;
  (* Entry causes, reverse index, singleton-need counts. *)
  let causes : (string * int, int ref * Int_set.t ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let dependents : (int, (string * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let sng : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (id, r) ->
      List.iter
        (fun key ->
          let perm, needs = entry_causes facts region_of key in
          if (not perm) && not (Int_set.is_empty needs) then begin
            Hashtbl.replace causes key (ref id, ref needs);
            Int_set.iter
              (fun n -> Hashtbl.replace (sub_tbl dependents n) key ())
              needs;
            if Int_set.cardinal needs = 1 then
              bump (sub_tbl sng id) (Int_set.choose needs) 1
          end)
        r.blocks)
    !regions;
  let sng_get o p =
    match Hashtbl.find_opt sng o with Some t -> weight t p | None -> 0
  in
  let callw_get a b =
    match Hashtbl.find_opt call_nbrs a with Some t -> weight t b | None -> 0
  in
  let gain a b =
    (entry_stub_words * (sng_get a b + sng_get b a)) + callw_get a b
  in
  let heap = Pair_heap.create () in
  let push_pair (a, b) =
    match (Hashtbl.find_opt states a, Hashtbl.find_opt states b) with
    | Some ra, Some rb when ra.cost + rb.cost <= k_words ->
      let g = gain a b in
      if g > 0 then Pair_heap.push heap { Pair_heap.g; a; b }
    | _ -> ()
  in
  (* Initial candidates: every pair adjacent through a call edge or a
     singleton need — any other pair has gain 0 and can never be merged
     until an intervening merge touches it. *)
  let initial = Hashtbl.create 64 in
  Hashtbl.iter
    (fun a t -> Hashtbl.iter (fun b _ -> Hashtbl.replace initial (ordered_pair a b) ()) t)
    call_nbrs;
  Hashtbl.iter
    (fun o t -> Hashtbl.iter (fun p _ -> Hashtbl.replace initial (ordered_pair o p) ()) t)
    sng;
  Hashtbl.iter (fun pair () -> push_pair pair) initial;
  let continue = ref true in
  while !continue do
    match Pair_heap.pop heap with
    | None -> continue := false
    | Some { Pair_heap.g; a; b } -> (
      match (Hashtbl.find_opt states a, Hashtbl.find_opt states b) with
      | Some ra, Some rb when gain a b = g ->
        if ra.cost + rb.cost <= k_words then begin
          (* Merge b into a (a < b by construction). *)
          let touched = Hashtbl.create 16 in
          let touch o p = if o <> p then Hashtbl.replace touched (ordered_pair o p) () in
          List.iter (fun key -> Hashtbl.replace region_of key a) rb.blocks;
          ra.blocks <- ra.blocks @ rb.blocks;
          ra.cost <- ra.cost + rb.cost;
          Hashtbl.remove states b;
          (* Call edges of b fold into a. *)
          (match Hashtbl.find_opt call_nbrs b with
          | None -> ()
          | Some eb ->
            Hashtbl.remove call_nbrs b;
            (match Hashtbl.find_opt call_nbrs a with
            | Some ea -> Hashtbl.remove ea b
            | None -> ());
            Hashtbl.iter
              (fun n w ->
                if n <> a then begin
                  bump (sub_tbl call_nbrs a) n w;
                  let en = sub_tbl call_nbrs n in
                  Hashtbl.remove en b;
                  bump en a w;
                  touch a n
                end)
              eb);
          (* Re-derive the causes of every block the merge can affect:
             blocks whose needs mention a or b, and entry blocks owned by
             the late b (their owner changes). *)
          let affected = Hashtbl.create 32 in
          let snapshot id =
            match Hashtbl.find_opt dependents id with
            | None -> ()
            | Some d -> Hashtbl.iter (fun key () -> Hashtbl.replace affected key ()) d
          in
          snapshot a;
          snapshot b;
          List.iter
            (fun key ->
              if Hashtbl.mem causes key then Hashtbl.replace affected key ())
            rb.blocks;
          Hashtbl.iter
            (fun key () ->
              let owner, needs = Hashtbl.find causes key in
              (* Retract the old singleton contribution. *)
              (if Int_set.cardinal !needs = 1 then begin
                 let p = Int_set.choose !needs in
                 bump (sub_tbl sng !owner) p (-1);
                 touch !owner p
               end);
              let new_owner = Hashtbl.find region_of key in
              let renamed =
                Int_set.map (fun r -> if r = b then a else r) !needs
              in
              let new_needs = Int_set.remove new_owner renamed in
              (* Keep the reverse index for a in step: b's table is dropped
                 wholesale below; entries for other regions are unchanged
                 by construction. *)
              (match
                 (Int_set.mem a !needs || Int_set.mem b !needs,
                  Int_set.mem a new_needs)
               with
              | true, false -> (
                match Hashtbl.find_opt dependents a with
                | Some d -> Hashtbl.remove d key
                | None -> ())
              | _, true -> Hashtbl.replace (sub_tbl dependents a) key ()
              | false, false -> ());
              if Int_set.is_empty new_needs then Hashtbl.remove causes key
              else begin
                owner := new_owner;
                needs := new_needs;
                if Int_set.cardinal new_needs = 1 then begin
                  let p = Int_set.choose new_needs in
                  bump (sub_tbl sng new_owner) p 1;
                  touch new_owner p
                end
              end)
            affected;
          Hashtbl.remove dependents b;
          (* b's ownership table is now empty of live counts; drop it. *)
          Hashtbl.remove sng b;
          Hashtbl.iter (fun pair () -> push_pair pair) touched
        end
      | _ -> (* dead region or stale gain: a fresh entry exists if the pair
                is still profitable *) ())
  done;
  regions := List.filter (fun (id, _) -> Hashtbl.mem states id) !regions

(* ------------------------------------------------------------------ *)

let build ?(packer = `Incremental) (p : Prog.t) ~compressible ~params =
  let facts = gather_facts p in
  let k_words = max 4 (params.k_bytes / 4) in
  let region_of = Hashtbl.create 256 in
  let regions = ref [] in
  let next_id = ref 0 in
  let rejected = ref 0 in
  (* Phase 1: grow DFS trees of compressible blocks, one function at a
     time. *)
  List.iter
    (fun (f : Prog.Func.t) ->
      let n = Array.length f.blocks in
      (* [placed] mirrors region_of for this function's blocks, avoiding a
         hashtable probe (and its key allocation) per admissibility test in
         the growth loops. *)
      let placed = Array.make n false in
      let no_restart = Array.make n false in
      Array.iteri
        (fun root _ ->
          if
            compressible f.name root
            && (not placed.(root))
            && not no_restart.(root)
          then begin
            (* Depth-first growth bounded by the buffer budget.

               A call-terminated block is only usable together with its
               lexical continuation: the hardware return address is [pc+4],
               so the continuation must sit immediately after the call in
               the buffer image.  We therefore grow in atomic "call chains"
               — maximal runs [i, i+1, ...] where each block but the last
               ends in a call — and add a chain either whole or not at
               all. *)
            let members = ref [] in
            let size = ref 0 in
            let visited = Array.make n false in
            let admissible i =
              i >= 0 && i < n
              && (not visited.(i))
              && compressible f.name i
              && not placed.(i)
            in
            (* The chain rooted at [i], last block first.  return_to is
               always i+1 (validated), so chains are finite. *)
            let rec chain_of i acc =
              match f.blocks.(i).Prog.Block.term with
              | Prog.Call { return_to; _ } | Prog.Call_indirect { return_to; _ } ->
                chain_of return_to (i :: acc)
              | Prog.Fallthrough _ | Prog.Jump _ | Prog.Branch _
              | Prog.Jump_indirect _ | Prog.Return _ | Prog.No_return ->
                i :: acc
            in
            (* Try to add the whole call chain rooted at [i]; on success
               return its last block. *)
            let try_add_chain i =
              match chain_of i [] with
              | [] -> None
              | last :: _ as rev_chain ->
                if List.for_all admissible rev_chain then begin
                  let c =
                    List.fold_left (fun acc j -> acc + block_cost f j) 0 rev_chain
                  in
                  if !size + c <= k_words then begin
                    size := !size + c;
                    List.iter
                      (fun j ->
                        visited.(j) <- true;
                        members := j :: !members)
                      (List.rev rev_chain);
                    Some last
                  end
                  else None
                end
                else begin
                  (* The chain is blocked (its tail is hot, oversized or
                     already claimed); never retry from this head. *)
                  visited.(i) <- true;
                  None
                end
            in
            let rec grow i =
              if admissible i then
                match try_add_chain i with
                | Some last ->
                  (* Only the last chain block has successors other than a
                     call continuation. *)
                  List.iter grow (Prog.successors f last)
                | None -> ()
            in
            (* Linear scan: take consecutive admissible chains in block
               order until one no longer fits (the paper's future-work
               "other algorithms for constructing regions"). *)
            let rec linear i =
              if i < n && admissible i then
                match try_add_chain i with
                | Some last -> linear (last + 1)
                | None -> ()
            in
            (match params.strategy with `Dfs -> grow root | `Linear -> linear root);
            let members = List.rev !members in
            match members with
            | [] -> no_restart.(root) <- true
            | _ :: _ ->
              (* Profitability: entry stubs cost E, compression saves
                 (1-γ)·I — with E counted by the same predicate the final
                 entry computation uses, against the tentative members. *)
              let instrs =
                List.fold_left
                  (fun acc i -> acc + Prog.Block.instr_count f.blocks.(i))
                  0 members
              in
              let tentative = Hashtbl.create 8 in
              List.iter (fun i -> Hashtbl.replace tentative (f.name, i) ()) members;
              let member key = Hashtbl.mem tentative key in
              let entry_count =
                List.length
                  (List.filter
                     (fun i -> needs_entry_stub facts ~member f.name i)
                     members)
              in
              let stub_words = entry_stub_words * entry_count in
              if
                float_of_int stub_words
                < (1.0 -. params.gamma) *. float_of_int instrs
              then begin
                List.iter
                  (fun i ->
                    placed.(i) <- true;
                    Hashtbl.replace region_of (f.name, i) !next_id)
                  members;
                regions :=
                  { id = !next_id; blocks = List.map (fun i -> (f.name, i)) members }
                  :: !regions;
                incr next_id
              end
              else begin
                rejected := !rejected + List.length members;
                no_restart.(root) <- true
              end
          end)
        f.blocks)
    p.funcs;
  let regions = ref (List.rev !regions) in
  (* Phase 2: packing. *)
  if params.pack then begin
    let calls = direct_calls facts in
    let packable =
      ref
        (List.map
           (fun (r : region) ->
             let pr = { blocks = r.blocks; cost = 0 } in
             pr.cost <- cost_of facts pr;
             (r.id, pr))
           !regions)
    in
    (match packer with
    | `Rescan -> pack_rescan facts ~k_words ~calls ~region_of packable
    | `Incremental -> pack_incremental facts ~k_words ~calls ~region_of packable);
    regions :=
      List.map (fun (id, (pr : pack_region)) -> { id; blocks = pr.blocks }) !packable
  end;
  (* Renumber densely in a stable order. *)
  let ordered =
    List.sort (fun r1 r2 -> compare r1.id r2.id) !regions
    |> List.mapi (fun i r -> { r with id = i })
  in
  Hashtbl.reset region_of;
  List.iter
    (fun r -> List.iter (fun key -> Hashtbl.replace region_of key r.id) r.blocks)
    ordered;
  let entries = compute_entries facts region_of in
  {
    regions = Array.of_list ordered;
    region_of;
    entries;
    rejected_blocks = !rejected;
  }

let entry_count_if_region (p : Prog.t) blocks =
  let facts = gather_facts p in
  let tentative = Hashtbl.create 16 in
  List.iter (fun key -> Hashtbl.replace tentative key ()) blocks;
  let member key = Hashtbl.mem tentative key in
  List.length
    (List.filter (fun (fname, i) -> needs_entry_stub facts ~member fname i) blocks)

let block_region t f b = Hashtbl.find_opt t.region_of (f, b)
let is_entry t f b = Hashtbl.mem t.entries (f, b)

let has_compressed t (p : Prog.t) fname =
  match Prog.find_func p fname with
  | None -> false
  | Some f ->
    let n = Array.length f.Prog.Func.blocks in
    let rec any i = i < n && (block_region t fname i <> None || any (i + 1)) in
    any 0

let compressed_instr_count (p : Prog.t) t =
  List.fold_left
    (fun acc (f : Prog.Func.t) ->
      let sub = ref 0 in
      Array.iteri
        (fun i b ->
          if Hashtbl.mem t.region_of (f.name, i) then
            sub := !sub + Prog.Block.instr_count b)
        f.blocks;
      acc + !sub)
    0 p.funcs
