type error = { line : int; col : int; message : string }

let error_to_string e = Printf.sprintf "%d:%d: %s" e.line e.col e.message

let analyze_src src =
  let ast = Mc_parser.parse src in
  Mc_sema.analyze ast

let compile src =
  match
    let rp = analyze_src src in
    let prog = Mc_codegen.generate rp in
    match Prog.validate prog with
    | Ok () -> prog
    | Error msgs -> raise (Mc_codegen.Codegen_error ("internal: " ^ List.hd msgs))
  with
  | prog -> Ok prog
  | exception Mc_lexer.Lex_error (p, m) ->
    Error { line = p.Mc_ast.line; col = p.Mc_ast.col; message = m }
  | exception Mc_parser.Parse_error (p, m) ->
    Error { line = p.Mc_ast.line; col = p.Mc_ast.col; message = m }
  | exception Mc_sema.Sema_error (p, m) ->
    Error { line = p.Mc_ast.line; col = p.Mc_ast.col; message = m }
  | exception Mc_codegen.Codegen_error m -> Error { line = 0; col = 0; message = m }

let compile_exn src =
  match compile src with
  | Ok prog -> prog
  | Error e -> failwith ("MiniC: " ^ error_to_string e)

let functions_calling_setjmp src =
  let rp = analyze_src src in
  List.filter_map
    (fun (f : Mc_sema.rfunc) -> if f.calls_setjmp then Some f.name else None)
    rp.funcs
