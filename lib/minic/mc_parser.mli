(** MiniC recursive-descent parser with precedence climbing for binary
    operators (precedence follows C). *)

exception Parse_error of Mc_ast.pos * string

val parse : string -> Mc_ast.program
(** @raise Parse_error and @raise Mc_lexer.Lex_error on bad input. *)
