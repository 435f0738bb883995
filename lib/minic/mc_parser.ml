open Mc_ast

exception Parse_error of pos * string

type state = { mutable toks : Mc_lexer.lexed list }

let err p fmt = Format.kasprintf (fun s -> raise (Parse_error (p, s))) fmt

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> assert false (* the token list always ends with EOF *)

let advance st = match st.toks with _ :: rest when rest <> [] -> st.toks <- rest | _ -> ()

let cur_pos st = (peek st).Mc_lexer.pos

let expect_punct st s =
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.PUNCT p when p = s -> advance st
  | tok -> err (cur_pos st) "expected '%s', got %s" s (Mc_lexer.token_name tok)

let expect_kw st s =
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.KW k when k = s -> advance st
  | tok -> err (cur_pos st) "expected '%s', got %s" s (Mc_lexer.token_name tok)

let accept_punct st s =
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.PUNCT p when p = s ->
    advance st;
    true
  | _ -> false

let accept_kw st s =
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.KW k when k = s ->
    advance st;
    true
  | _ -> false

let expect_ident st =
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.IDENT name ->
    advance st;
    name
  | tok -> err (cur_pos st) "expected identifier, got %s" (Mc_lexer.token_name tok)

(* Binary operator precedence, higher binds tighter (C-like). *)
let binop_of_punct = function
  | "||" -> Some (Lor, 1)
  | "&&" -> Some (Land, 2)
  | "|" -> Some (Or, 3)
  | "^" -> Some (Xor, 4)
  | "&" -> Some (And, 5)
  | "==" -> Some (Eq, 6)
  | "!=" -> Some (Ne, 6)
  | "<" -> Some (Lt, 7)
  | "<=" -> Some (Le, 7)
  | ">" -> Some (Gt, 7)
  | ">=" -> Some (Ge, 7)
  | "<<" -> Some (Shl, 8)
  | ">>" -> Some (Shr, 8)
  | ">>>" -> Some (Lshr, 8)
  | "+" -> Some (Add, 9)
  | "-" -> Some (Sub, 9)
  | "*" -> Some (Mul, 10)
  | "/" -> Some (Div, 10)
  | "%" -> Some (Rem, 10)
  | _ -> None

let rec parse_expression st = parse_assignment st

and parse_assignment st =
  let lhs = parse_binary st 1 in
  if accept_punct st "=" then begin
    let rhs = parse_assignment st in
    let lv =
      match lhs.desc with
      | Var name -> Lvar name
      | Index (e1, e2) -> Lindex (e1, e2)
      | _ -> err lhs.pos "expression is not assignable"
    in
    { desc = Assign (lv, rhs); pos = lhs.pos }
  end
  else lhs

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match (peek st).Mc_lexer.tok with
    | Mc_lexer.PUNCT p -> (
      match binop_of_punct p with
      | Some (op, prec) when prec >= min_prec ->
        let pos = cur_pos st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := { desc = Binop (op, !lhs, rhs); pos }
      | Some _ | None -> continue := false)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  let pos = cur_pos st in
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.PUNCT "-" ->
    advance st;
    { desc = Unop (Neg, parse_unary st); pos }
  | Mc_lexer.PUNCT "!" ->
    advance st;
    { desc = Unop (Not, parse_unary st); pos }
  | Mc_lexer.PUNCT "~" ->
    advance st;
    { desc = Unop (Bnot, parse_unary st); pos }
  | Mc_lexer.PUNCT "&" ->
    advance st;
    let name = expect_ident st in
    { desc = Addr_of name; pos }
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    let pos = cur_pos st in
    if accept_punct st "[" then begin
      let idx = parse_expression st in
      expect_punct st "]";
      e := { desc = Index (!e, idx); pos }
    end
    else continue := false
  done;
  !e

and parse_primary st =
  let pos = cur_pos st in
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.INT_LIT v ->
    advance st;
    { desc = Int v; pos }
  | Mc_lexer.STR_LIT s ->
    advance st;
    { desc = Str s; pos }
  | Mc_lexer.IDENT name -> (
    advance st;
    if accept_punct st "(" then begin
      let args = parse_args st in
      { desc = Call (name, args); pos }
    end
    else { desc = Var name; pos })
  | Mc_lexer.PUNCT "(" ->
    advance st;
    let e = parse_expression st in
    expect_punct st ")";
    e
  | tok -> err pos "expected expression, got %s" (Mc_lexer.token_name tok)

and parse_args st =
  if accept_punct st ")" then []
  else begin
    let rec go acc =
      let e = parse_expression st in
      if accept_punct st "," then go (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

let rec parse_stmt st =
  let spos = cur_pos st in
  match (peek st).Mc_lexer.tok with
  | Mc_lexer.PUNCT ";" ->
    advance st;
    { sdesc = Empty; spos }
  | Mc_lexer.PUNCT "{" -> { sdesc = Block (parse_block st); spos }
  | Mc_lexer.KW "if" ->
    advance st;
    expect_punct st "(";
    let cond = parse_expression st in
    expect_punct st ")";
    let then_ = parse_stmt st in
    let else_ = if accept_kw st "else" then Some (parse_stmt st) else None in
    { sdesc = If (cond, then_, else_); spos }
  | Mc_lexer.KW "while" ->
    advance st;
    expect_punct st "(";
    let cond = parse_expression st in
    expect_punct st ")";
    { sdesc = While (cond, parse_stmt st); spos }
  | Mc_lexer.KW "do" ->
    advance st;
    let body = parse_stmt st in
    expect_kw st "while";
    expect_punct st "(";
    let cond = parse_expression st in
    expect_punct st ")";
    expect_punct st ";";
    { sdesc = Do_while (body, cond); spos }
  | Mc_lexer.KW "for" ->
    advance st;
    expect_punct st "(";
    let init =
      if accept_punct st ";" then None
      else begin
        let e = parse_expression st in
        expect_punct st ";";
        Some e
      end
    in
    let cond =
      if accept_punct st ";" then None
      else begin
        let e = parse_expression st in
        expect_punct st ";";
        Some e
      end
    in
    let step =
      if accept_punct st ")" then None
      else begin
        let e = parse_expression st in
        expect_punct st ")";
        Some e
      end
    in
    { sdesc = For (init, cond, step, parse_stmt st); spos }
  | Mc_lexer.KW "switch" ->
    advance st;
    expect_punct st "(";
    let scrutinee = parse_expression st in
    expect_punct st ")";
    expect_punct st "{";
    let cases = parse_cases st in
    { sdesc = Switch (scrutinee, cases); spos }
  | Mc_lexer.KW "return" ->
    advance st;
    if accept_punct st ";" then { sdesc = Return None; spos }
    else begin
      let e = parse_expression st in
      expect_punct st ";";
      { sdesc = Return (Some e); spos }
    end
  | Mc_lexer.KW "break" ->
    advance st;
    expect_punct st ";";
    { sdesc = Break; spos }
  | Mc_lexer.KW "continue" ->
    advance st;
    expect_punct st ";";
    { sdesc = Continue; spos }
  | _ ->
    let e = parse_expression st in
    expect_punct st ";";
    { sdesc = Expr e; spos }

and parse_block st =
  expect_punct st "{";
  let rec go acc =
    if accept_punct st "}" then List.rev acc
    else
      match (peek st).Mc_lexer.tok with
      | Mc_lexer.KW "int" -> go (Decl (parse_decl st) :: acc)
      | _ -> go (Stmt (parse_stmt st) :: acc)
  in
  go []

and parse_decl st =
  let dpos = cur_pos st in
  expect_kw st "int";
  let dname = expect_ident st in
  let dsize =
    if accept_punct st "[" then begin
      let e = parse_expression st in
      expect_punct st "]";
      Some e
    end
    else None
  in
  let dinit = if accept_punct st "=" then Some (parse_expression st) else None in
  expect_punct st ";";
  { dname; dsize; dinit; dpos }

and parse_cases st =
  (* case blocks with C fallthrough: consecutive labels share a body. *)
  let rec labels acc =
    if accept_kw st "case" then begin
      let e = parse_expression st in
      expect_punct st ":";
      labels (Case e :: acc)
    end
    else if accept_kw st "default" then begin
      expect_punct st ":";
      labels (Default :: acc)
    end
    else List.rev acc
  in
  let rec body acc =
    match (peek st).Mc_lexer.tok with
    | Mc_lexer.KW "case" | Mc_lexer.KW "default" | Mc_lexer.PUNCT "}" -> List.rev acc
    | _ -> body (parse_stmt st :: acc)
  in
  let rec go acc =
    if accept_punct st "}" then List.rev acc
    else begin
      let ls = labels [] in
      if ls = [] then err (cur_pos st) "expected 'case' or 'default' in switch";
      let b = body [] in
      go ({ labels = ls; body = b } :: acc)
    end
  in
  go []

let parse_top st =
  let pos = cur_pos st in
  if accept_kw st "const" then begin
    let name = expect_ident st in
    expect_punct st "=";
    let e = parse_expression st in
    expect_punct st ";";
    Const (name, e, pos)
  end
  else begin
    expect_kw st "int";
    let name = expect_ident st in
    match (peek st).Mc_lexer.tok with
    | Mc_lexer.PUNCT "(" ->
      advance st;
      let params =
        if accept_punct st ")" then []
        else begin
          let rec go acc =
            expect_kw st "int";
            let p = expect_ident st in
            if accept_punct st "," then go (p :: acc)
            else begin
              expect_punct st ")";
              List.rev (p :: acc)
            end
          in
          go []
        end
      in
      let body = parse_block st in
      Func { fname = name; params; body; fpos = pos }
    | _ ->
      let gsize =
        if accept_punct st "[" then begin
          let e = parse_expression st in
          expect_punct st "]";
          Some e
        end
        else None
      in
      let ginit =
        if accept_punct st "=" then
          if accept_punct st "{" then begin
            let rec go acc =
              let e = parse_expression st in
              if accept_punct st "," then go (e :: acc)
              else begin
                expect_punct st "}";
                List.rev (e :: acc)
              end
            in
            Some (go [])
          end
          else Some [ parse_expression st ]
        else None
      in
      expect_punct st ";";
      Global { gname = name; gsize; ginit; gpos = pos }
  end

let parse src =
  let st = { toks = Mc_lexer.tokenize src } in
  let rec go acc =
    match (peek st).Mc_lexer.tok with
    | Mc_lexer.EOF -> List.rev acc
    | _ -> go (parse_top st :: acc)
  in
  go []
