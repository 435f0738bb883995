(* A frozen copy of the MiniC program generator in test/gen_minic.ml, taken
   when this benchmark was defined.  The corpus workload draws its programs
   from this copy, not from the test generator, because the test generator is
   expected to be re-biased toward the paper's program shape (hot counted
   cores, large cold error paths, setjmp, jump tables) to drive fuzzing, and
   the benchmark's inputs must not move with it: a change here changes every
   corpus input, so it must be made as a change of the benchmark, and the
   corpus digest in Pins must be updated with it. *)

(* A generator of random — but always terminating and trap-free — MiniC
   programs, used for differential testing: a transformed program (squeezed
   or squashed) must behave exactly like the original.

   Termination and safety come by construction: the call graph is acyclic
   (function i only calls functions with larger indices), all loops are
   counted [for] loops with constant bounds, divisors are forced non-zero
   with [(e & 15) + 1], and array indices are masked to the array size. *)

type ctx = {
  rng : Random.State.t;
  vars : string list;  (* scalar locals/params and globals in scope *)
  locals : string list;  (* the subset of [vars] invisible to callees; only
                            these may drive counted loops, so that a call in
                            the loop body cannot reset the induction
                            variable *)
  arrays : (string * int) list;  (* name, power-of-two size *)
  callable : (string * int) list;  (* functions with larger index: name, arity *)
  depth : int;
}

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let rec gen_expr ctx : string =
  let rng = ctx.rng in
  let atom () =
    let choices =
      [ `Const ]
      @ (if ctx.vars <> [] then [ `Var; `Var ] else [])
      @ (if ctx.arrays <> [] then [ `Index ] else [])
      @ if ctx.callable <> [] && ctx.depth < 2 then [ `Call ] else []
    in
    match pick rng choices with
    | `Const -> string_of_int (Random.State.int rng 201 - 100)
    | `Var -> pick rng ctx.vars
    | `Index ->
      let name, size = pick rng ctx.arrays in
      let idx = gen_expr { ctx with depth = ctx.depth + 2 } in
      Printf.sprintf "%s[(%s) & %d]" name idx (size - 1)
    | `Call ->
      let name, arity = pick rng ctx.callable in
      let args =
        List.init arity (fun _ -> gen_expr { ctx with depth = ctx.depth + 2 })
      in
      Printf.sprintf "%s(%s)" name (String.concat ", " args)
  in
  if ctx.depth >= 4 then atom ()
  else
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> atom ()
    | 3 ->
      let sub = { ctx with depth = ctx.depth + 1 } in
      let op = pick rng [ "+"; "-"; "*"; "&"; "|"; "^" ] in
      Printf.sprintf "(%s %s %s)" (gen_expr sub) op (gen_expr sub)
    | 4 ->
      let sub = { ctx with depth = ctx.depth + 1 } in
      let op = pick rng [ "/"; "%" ] in
      Printf.sprintf "(%s %s ((%s & 15) + 1))" (gen_expr sub) op (gen_expr sub)
    | 5 ->
      let sub = { ctx with depth = ctx.depth + 1 } in
      let op = pick rng [ "<<"; ">>"; ">>>" ] in
      Printf.sprintf "(%s %s %d)" (gen_expr sub) op (Random.State.int rng 8)
    | 6 ->
      let sub = { ctx with depth = ctx.depth + 1 } in
      let op = pick rng [ "=="; "!="; "<"; "<="; ">"; ">=" ] in
      Printf.sprintf "(%s %s %s)" (gen_expr sub) op (gen_expr sub)
    | 7 ->
      let sub = { ctx with depth = ctx.depth + 1 } in
      let op = pick rng [ "&&"; "||" ] in
      Printf.sprintf "(%s %s %s)" (gen_expr sub) op (gen_expr sub)
    | 8 -> Printf.sprintf "(-(%s))" (gen_expr { ctx with depth = ctx.depth + 1 })
    | _ -> atom ()

let rec gen_stmt ctx ~indent : string =
  let rng = ctx.rng in
  let pad = String.make indent ' ' in
  match Random.State.int rng 12 with
  | 0 | 1 | 2 | 3 when ctx.vars <> [] ->
    Printf.sprintf "%s%s = %s;" pad (pick rng ctx.vars) (gen_expr ctx)
  | 4 when ctx.arrays <> [] ->
    let name, size = pick rng ctx.arrays in
    Printf.sprintf "%s%s[(%s) & %d] = %s;" pad name (gen_expr ctx) (size - 1)
      (gen_expr ctx)
  | 5 | 6 ->
    let body = gen_stmt ctx ~indent:(indent + 2) in
    let else_ =
      if Random.State.bool rng then
        Printf.sprintf "\n%selse\n%s" pad (gen_stmt ctx ~indent:(indent + 2))
      else ""
    in
    Printf.sprintf "%sif (%s)\n%s%s" pad (gen_expr ctx) body else_
  | 7 when ctx.locals <> [] ->
    (* A counted loop over a local index variable that neither the body nor
       any callee can reassign. *)
    let v = pick rng ctx.locals in
    let bound = 1 + Random.State.int rng 6 in
    let sub =
      { ctx with
        vars = List.filter (fun x -> x <> v) ctx.vars;
        locals = List.filter (fun x -> x <> v) ctx.locals }
    in
    let body = gen_stmt sub ~indent:(indent + 2) in
    if body = "" then Printf.sprintf "%s;" pad
    else
      Printf.sprintf "%sfor (%s = 0; %s < %d; %s = %s + 1) {\n%s\n%s}" pad v v bound v
        v body pad
  | 8 ->
    let scrut = gen_expr ctx in
    let ncases = 2 + Random.State.int rng 5 in
    let cases =
      List.init ncases (fun i ->
          Printf.sprintf "%s  case %d: %s break;" pad i
            (gen_stmt { ctx with depth = 0 } ~indent:0))
    in
    let default = Printf.sprintf "%s  default: %s" pad (gen_stmt ctx ~indent:0) in
    Printf.sprintf "%sswitch ((%s) & 7) {\n%s\n%s\n%s}" pad scrut
      (String.concat "\n" cases) default pad
  | 9 ->
    Printf.sprintf "%sputint(%s);" pad (gen_expr ctx)
  | _ when ctx.vars <> [] ->
    Printf.sprintf "%s%s = %s;" pad (pick rng ctx.vars) (gen_expr ctx)
  | _ -> Printf.sprintf "%sputint(%s);" pad (gen_expr ctx)

let gen_func rng ~name ~arity ~callable ~globals ~global_arrays =
  let params = List.init arity (fun i -> Printf.sprintf "p%d" i) in
  let nlocals = 1 + Random.State.int rng 3 in
  let locals = List.init nlocals (fun i -> Printf.sprintf "v%d" i) in
  let ctx =
    {
      rng;
      vars = params @ locals @ globals;
      locals = params @ locals;
      arrays = global_arrays;
      callable;
      depth = 0;
    }
  in
  let decls =
    List.map (fun v -> Printf.sprintf "  int %s = %d;" v (Random.State.int rng 50)) locals
  in
  let nstmts = 2 + Random.State.int rng 5 in
  let stmts = List.init nstmts (fun _ -> gen_stmt ctx ~indent:2) in
  let ret = Printf.sprintf "  return %s;" (gen_expr ctx) in
  Printf.sprintf "int %s(%s) {\n%s\n%s\n%s\n}" name
    (String.concat ", " (List.map (fun p -> "int " ^ p) params))
    (String.concat "\n" decls)
    (String.concat "\n" stmts)
    ret

let random_program ~seed =
  let rng = Random.State.make [| seed; 0x5EED |] in
  let nglobals = 1 + Random.State.int rng 3 in
  let globals = List.init nglobals (fun i -> Printf.sprintf "g%d" i) in
  let global_arrays = [ ("ga", 8); ("gb", 16) ] in
  let nfuncs = 2 + Random.State.int rng 4 in
  let arities = List.init nfuncs (fun _ -> 1 + Random.State.int rng 2) in
  let fnames = List.init nfuncs (fun i -> Printf.sprintf "f%d" i) in
  let funcs =
    List.mapi
      (fun i name ->
        let callable =
          List.filteri (fun j _ -> j > i) (List.combine fnames arities)
        in
        gen_func rng ~name ~arity:(List.nth arities i) ~callable ~globals
          ~global_arrays)
      fnames
  in
  let header =
    String.concat "\n"
      (List.map (fun g -> Printf.sprintf "int %s = %d;" g (Random.State.int rng 100)) globals
      @ List.map
          (fun (a, n) ->
            Printf.sprintf "int %s[%d] = { %s };" a n
              (String.concat ", "
                 (List.init n (fun _ -> string_of_int (Random.State.int rng 256)))))
          global_arrays)
  in
  let main_locals = [ "m0"; "m1" ] in
  let main_ctx =
    {
      rng;
      vars = main_locals @ globals;
      locals = main_locals;
      arrays = global_arrays;
      callable = List.combine fnames arities;
      depth = 0;
    }
  in
  let calls =
    List.init 6 (fun _ -> Printf.sprintf "  putint(%s);" (gen_expr main_ctx))
  in
  let main_stmts = List.init 4 (fun _ -> gen_stmt main_ctx ~indent:2) in
  Printf.sprintf
    "%s\n%s\nint main() {\n  int m0 = 1;\n  int m1 = 2;\n%s\n%s\n  return (%s) & 255;\n}\n"
    header
    (String.concat "\n" funcs)
    (String.concat "\n" main_stmts)
    (String.concat "\n" calls)
    (gen_expr main_ctx)
