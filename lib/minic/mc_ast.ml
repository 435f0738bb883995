type pos = { line : int; col : int }

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lshr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land
  | Lor

type unop = Neg | Not | Bnot

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int
  | Str of string
  | Var of string
  | Addr_of of string
  | Index of expr * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Assign of lvalue * expr
  | Call of string * expr list

and lvalue = Lvar of string | Lindex of expr * expr

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Expr of expr
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | Do_while of stmt * expr
  | For of expr option * expr option * expr option * stmt
  | Switch of expr * switch_case list
  | Return of expr option
  | Break
  | Continue
  | Block of block_item list
  | Empty

and switch_case = { labels : case_label list; body : stmt list }
and case_label = Case of expr | Default
and block_item = Decl of decl | Stmt of stmt

and decl = {
  dname : string;
  dsize : expr option;
  dinit : expr option;
  dpos : pos;
}

type global = {
  gname : string;
  gsize : expr option;
  ginit : expr list option;
  gpos : pos;
}

type func = { fname : string; params : string list; body : block_item list; fpos : pos }
type top = Const of string * expr * pos | Global of global | Func of func
type program = top list
