type fault = Rebias_delta of int

type report = {
  regions : int;
  slots : int;
  blocks : int;
  proved : int;
  stubs : int;
  conservative : int;
  failures : Verify.diag list;
}

(* The rewritten side of a proof: the typed exit of a materialised block,
   recovered by walking the buffer words.  Addresses are absolute (already
   resolved against the slot base the block was materialised at). *)
type rexit =
  | RFall  (** Ran off the end of the block's span: an absorbed edge. *)
  | RGoto of int
  | RBranch of Instr.cond * Equiv.value * int * int option
      (** Taken target; [None] fallthrough means absorbed-by-next. *)
  | RCall of { ra : Reg.t; target : int; resume : int }
      (** Plain [bsr]: raw return address at buffer offset [resume]. *)
  | RCall_stub of { ra : Reg.t; target : int; resume : int }
      (** [bsr ra, CreateStub ; br target]: resume through a restore
          stub tagged with buffer offset [resume]. *)
  | RCalli_stub of { ra : Reg.t; rb : Reg.t; target : Equiv.value; resume : int }
  | RJump of Equiv.value
  | RRet of Equiv.value

let pp_rexit ppf = function
  | RFall -> Format.fprintf ppf "fall off the block's span"
  | RGoto a -> Format.fprintf ppf "goto 0x%x" a
  | RBranch (c, v, t, f) ->
    Format.fprintf ppf "if %s %a goto 0x%x else %s"
      (match c with
      | Instr.Eq -> "eq"
      | Instr.Ne -> "ne"
      | Instr.Lt -> "lt"
      | Instr.Le -> "le"
      | Instr.Gt -> "gt"
      | Instr.Ge -> "ge")
      Equiv.pp_value v t
      (match f with None -> "next" | Some a -> Printf.sprintf "0x%x" a)
  | RCall { ra; target; resume } ->
    Format.fprintf ppf "bsr 0x%x (ra=%s, raw resume @%d)" target (Reg.name ra) resume
  | RCall_stub { ra; target; resume } ->
    Format.fprintf ppf "stub call 0x%x (ra=%s, resume @%d)" target (Reg.name ra)
      resume
  | RCalli_stub { ra; rb; target; resume } ->
    Format.fprintf ppf "stub calli %a (ra=%s, rb=%s, resume @%d)" Equiv.pp_value
      target (Reg.name ra) (Reg.name rb) resume
  | RJump v -> Format.fprintf ppf "jmp %a" Equiv.pp_value v
  | RRet v -> Format.fprintf ppf "ret %a" Equiv.pp_value v

let setjmp_code = Syscall.to_code Syscall.Setjmp

let run ?(slots = 1) ?fault (sq : Rewrite.t) =
  if slots < 1 then invalid_arg "Prove.run: slots must be >= 1";
  let p = sq.Rewrite.prog in
  let func_of = Hashtbl.create 64 in
  List.iter (fun (f : Prog.Func.t) -> Hashtbl.replace func_of f.name f) p.Prog.funcs;
  let image = sq.Rewrite.image in
  let oracle =
    {
      Equiv.func_addr = (fun g -> Hashtbl.find_opt image.Layout.block_addr (g, 0));
      table_addr = Hashtbl.find_opt image.Layout.table_addr;
    }
  in
  let failures = ref [] in
  let fail ~rid ~slot ~site fmt =
    Format.kasprintf
      (fun message ->
        failures :=
          {
            Verify.severity = Verify.Error;
            kind = Verify.Unproved_region;
            site = Printf.sprintf "%s slot %d" site slot;
            region = Some rid;
            addr = None;
            message;
          }
          :: !failures)
      fmt
  in
  let blocks = ref 0 in
  let proved = ref 0 in
  let conservative = ref 0 in
  (* The stub obligations are slot-independent: the lint level's own check. *)
  let stub_failures, stubs = Verify.stubs sq in

  (* --- per-region, per-slot block proofs ----------------------------- *)
  Array.iteri
    (fun rid (r : Regions.region) ->
      let img = sq.Rewrite.images.(rid) in
      let bw = img.Rewrite.buffer_words in
      let rkeys = Array.of_list r.Regions.blocks in
      let nblocks = Array.length rkeys in
      (* Buffer offset -> a block laid out there, for naming landings in
         failure messages only: a block that emits no words shares its
         offset with the block after it. *)
      let block_at = Hashtbl.create 16 in
      Array.iter
        (fun key -> Hashtbl.replace block_at (Hashtbl.find img.Rewrite.block_offset key) key)
        rkeys;
      (* Decode this region's slice of the blob — the proof is about what
         the blob actually holds, not the stream the rewrite intended. *)
      match Verify.decode sq rid with
      | Error d ->
        blocks := !blocks + (nblocks * slots);
        failures := d :: !failures
      | Ok stream ->
        for slot = 0 to slots - 1 do
          let base =
            sq.Rewrite.buffer_base + (4 * sq.Rewrite.buffer_words * slot)
          in
          let delta =
            (sq.Rewrite.buffer_words * slot)
            + (match fault with Some (Rebias_delta k) when slot > 0 -> k | _ -> 0)
          in
          (* Materialise through the runtime's own materialiser, but into a
             symbolic buffer, and catch what would be a runtime crash: a
             rebiased displacement that no longer fits its 21-bit field. *)
          let buf = Array.make (max bw 1) Instr.Nop in
          let overflow = ref None in
          let words =
            Rewrite.materialise sq stream ~base ~delta ~put:(fun i ins ->
                (match Instr.encode ins with
                | (_ : Word.t) -> ()
                | exception Instr.Encode_error (msg, _) ->
                  if !overflow = None then overflow := Some (msg, ins));
                if i < bw then buf.(i) <- ins)
          in
          blocks := !blocks + nblocks;
          let region_site = Printf.sprintf "region %d" rid in
          match !overflow with
          | _ when words <> bw ->
            fail ~rid ~slot ~site:region_site
              "decoded stream materialises %d words, the image declares %d" words bw
          | Some (msg, ins) ->
            fail ~rid ~slot ~site:region_site
              "materialisation would crash re-encoding %a: %s" Instr.pp ins msg
          | None ->
            (* Per-block symbolic execution and matching. *)
            let addr_at p disp = base + (4 * (p + 1)) + (4 * disp) in
            let resolve a =
              if a >= base && a < base + (4 * bw) then `Buffer ((a - base) / 4)
              else `Text a
            in
            let pp_target ppf = function
              | `Buffer w -> (
                match Hashtbl.find_opt block_at w with
                | Some (f, i) -> Format.fprintf ppf "%s.b%d (in buffer)" f i
                | None -> Format.fprintf ppf "buffer interior word %d" w)
              | `Text a -> Format.fprintf ppf "0x%x" a
            in
            (* An in-buffer landing matches by offset, not by the block
               named there: every block sharing an offset (all but the last
               emit no words) is proved on its own. *)
            let target_matches t key =
              match t with
              | `Buffer w -> Hashtbl.find_opt img.Rewrite.block_offset key = Some w
              | `Text a -> Hashtbl.find_opt image.Layout.block_addr key = Some a
            in
            for idx = 0 to nblocks - 1 do
              let ((fname, bi) as key) = rkeys.(idx) in
              let site = Printf.sprintf "%s.b%d" fname bi in
              let bfail fmt = fail ~rid ~slot ~site fmt in
              let off = Hashtbl.find img.Rewrite.block_offset key in
              let off_next =
                if idx + 1 < nblocks then
                  Hashtbl.find img.Rewrite.block_offset rkeys.(idx + 1)
                else bw
              in
              let b = (Hashtbl.find func_of fname).Prog.Func.blocks.(bi) in
              match Equiv.run_block ~fname b with
              | Error msg -> bfail "original side: %s" msg
              | Ok (orig, oexit) -> (
                let st = Equiv.init_state () in
                (* Walk the materialised words of this block's span. *)
                let rec walk p =
                  if p >= off_next then Ok RFall
                  else
                    match buf.(p) with
                    | Instr.Br { ra; disp } when ra = Reg.zero ->
                      if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a br at word %d" p)
                      else Ok (RGoto (addr_at p disp))
                    | Instr.Cbr { op; ra; disp } ->
                      let taken = addr_at p disp in
                      let v = Equiv.reg st ra in
                      if p + 1 = off_next then Ok (RBranch (op, v, taken, None))
                      else (
                        match buf.(p + 1) with
                        | Instr.Br { ra = z; disp = d2 }
                          when z = Reg.zero && p + 2 = off_next ->
                          Ok (RBranch (op, v, taken, Some (addr_at (p + 1) d2)))
                        | _ ->
                          Error
                            (Printf.sprintf
                               "cbr at word %d is not last and not followed by \
                                a single br"
                               p))
                    | Instr.Bsr { ra; disp } ->
                      let t = addr_at p disp in
                      if t = Rewrite.create_stub_entry sq ra then
                        if p + 2 <> off_next then
                          Error
                            (Printf.sprintf
                               "CreateStub bsr at word %d does not end the \
                                block with its transfer word"
                               p)
                        else (
                          match buf.(p + 1) with
                          | Instr.Br { ra = z; disp = d2 } when z = Reg.zero ->
                            Ok
                              (RCall_stub
                                 { ra; target = addr_at (p + 1) d2; resume = p + 2 })
                          | Instr.Jmp { ra = z; rb; hint = _ } when z = Reg.zero ->
                            Ok
                              (RCalli_stub
                                 { ra; rb; target = Equiv.reg st rb; resume = p + 2 })
                          | ins ->
                            Error
                              (Format.asprintf
                                 "CreateStub bsr followed by %a, not a br/jmp"
                                 Instr.pp ins))
                      else if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a bsr at word %d" p)
                      else Ok (RCall { ra; target = t; resume = p + 1 })
                    | Instr.Jmp { ra; rb; hint = _ } when ra = Reg.zero ->
                      if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a jmp at word %d" p)
                      else Ok (RJump (Equiv.reg st rb))
                    | Instr.Ret { ra; rb; hint = _ } when ra = Reg.zero ->
                      if p + 1 <> off_next then
                        Error (Printf.sprintf "code after a ret at word %d" p)
                      else Ok (RRet (Equiv.reg st rb))
                    | ( Instr.Br _ | Instr.Jmp _ | Instr.Ret _ | Instr.Jsr _
                      | Instr.Bsrx _ | Instr.Sentinel ) as ins ->
                      Error
                        (Format.asprintf "unexpected %a in the materialised buffer"
                           Instr.pp ins)
                    | ins -> (
                      match Equiv.step st ins with
                      | Ok () -> walk (p + 1)
                      | Error msg -> Error msg)
                in
                match walk off with
                | Error msg -> bfail "rewritten side: %s" msg
                | Ok rexit -> (
                  (* A setjmp inside a region would capture a buffer pc
                     that a later re-materialisation invalidates; the
                     exclude pass keeps it out, the prover enforces it. *)
                  let setjmp_inside =
                    List.exists
                      (function
                        | Equiv.Syscall (c, _) -> c = setjmp_code
                        | Equiv.Store _ -> false)
                      (Equiv.effects orig)
                  in
                  let next_is d =
                    idx + 1 < nblocks && rkeys.(idx + 1) = (fname, d)
                  in
                  let continuation_ok resume return_to =
                    resume = off_next && next_is return_to
                  in
                  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
                  let mismatch () =
                    err "exit diverges:@,  original:  %a@,  rewritten: %a"
                      Equiv.pp_exit oexit pp_rexit rexit
                  in
                  let lands what a key =
                    if target_matches (resolve a) key then Ok ()
                    else err "%s lands on %a" what pp_target (resolve a)
                  in
                  let ( let* ) = Result.bind in
                  let check_exit () =
                    match (oexit, rexit) with
                    | Equiv.Goto d, RFall ->
                      if next_is d then Ok ()
                      else
                        err "goto .%d was absorbed but the next buffer block is not .%d"
                          d d
                    | Equiv.Goto d, RGoto a -> lands (Printf.sprintf "goto .%d" d) a (fname, d)
                    | ( Equiv.Branch (c, v, taken, fl),
                        RBranch (c', v', taken_a, fall_a) ) -> (
                      if c <> c' || not (Equiv.equal_value oracle v v') then mismatch ()
                      else
                        let* () =
                          lands (Printf.sprintf "taken edge .%d" taken) taken_a
                            (fname, taken)
                        in
                        match fall_a with
                        | None ->
                          if next_is fl then Ok ()
                          else err "fallthrough edge .%d diverges" fl
                        | Some a ->
                          lands (Printf.sprintf "fallthrough edge .%d" fl) a (fname, fl))
                    | ( Equiv.Call { ra; callee; return_to },
                        (RCall { ra = ra'; target; resume } |
                         RCall_stub { ra = ra'; target; resume }) ) ->
                      if not (Reg.equal ra ra') then mismatch ()
                      else
                        let* () =
                          lands (Printf.sprintf "call to %s" callee) target (callee, 0)
                        in
                        if not (continuation_ok resume return_to) then
                          err "call to %s resumes at buffer word %d, not at .%d's \
                               first word"
                            callee resume return_to
                        else begin
                          (* A raw (stub-less) return address into the buffer
                             relies on the callee keeping this region
                             resident — the buffer-safety contract the
                             linter's unsafe-call check enforces. *)
                          (match rexit with RCall _ -> incr conservative | _ -> ());
                          Ok ()
                        end
                    | ( Equiv.Call_ind { ra; target = v; return_to },
                        RCalli_stub { ra = ra'; rb; target = v'; resume } ) ->
                      if not (Reg.equal ra ra') || not (Equiv.equal_value oracle v v')
                      then mismatch ()
                      else if Reg.equal ra rb then
                        err
                          "indirect call target register %s is the link register \
                           CreateStub clobbers"
                          (Reg.name rb)
                      else if not (continuation_ok resume return_to) then
                        err "indirect call resumes at buffer word %d, not .%d" resume
                          return_to
                      else begin
                        (* Target-set correspondence is assumed, not proved. *)
                        incr conservative;
                        Ok ()
                      end
                    | Equiv.Jump_tab { target = v; table = _ }, RJump v' ->
                      if Equiv.equal_value oracle v v' then begin
                        (* The dispatched table entries themselves are the
                           linter's dangling-transfer obligation. *)
                        incr conservative;
                        Ok ()
                      end
                      else mismatch ()
                    | Equiv.Return v, RRet v' ->
                      if Equiv.equal_value oracle v v' then Ok () else mismatch ()
                    | Equiv.Stop, RFall -> Ok ()
                    | _, _ -> mismatch ()
                  in
                  if setjmp_inside then
                    bfail
                      "setjmp inside a compressed region captures a buffer pc \
                       that re-materialisation invalidates"
                  else
                    match check_exit () with
                    | Error msg -> bfail "%s" msg
                    | Ok () -> (
                      match Equiv.compare_states oracle ~orig ~rew:st with
                      | Ok () -> incr proved
                      | Error msg -> bfail "state diverges:@,%s" msg)))
            done
        done)
    sq.Rewrite.regions.Regions.regions;
  {
    regions = Array.length sq.Rewrite.regions.Regions.regions;
    slots;
    blocks = !blocks;
    proved = !proved;
    stubs;
    conservative = !conservative;
    failures = stub_failures @ List.rev !failures;
  }

let render r =
  match r.failures with
  | [] ->
    Printf.sprintf
      "proved %d/%d block proofs across %d regions x %d slots (%d stub \
       obligations, %d conservative assumptions)"
      r.proved r.blocks r.regions r.slots r.stubs r.conservative
  | fs -> String.concat "\n" (List.map (fun d -> "UNPROVED " ^ Verify.message d) fs)

let report_json r =
  let open Report.Json in
  Obj
    [
      ("regions", Int r.regions);
      ("slots", Int r.slots);
      ("blocks", Int r.blocks);
      ("proved", Int r.proved);
      ("stubs", Int r.stubs);
      ("conservative", Int r.conservative);
      ("failures", Verify.to_json r.failures);
    ]
