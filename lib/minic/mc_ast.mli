(** Abstract syntax for MiniC, the small C-like language used to write the
    benchmark workloads.

    The language has a single value type (32-bit [int]); arrays are
    word-indexed regions whose name evaluates to their address, so an [int]
    parameter can receive an array and be indexed ([p[i]] loads the word at
    [p + 4*i]).  Functions named in call position are called directly; a
    call through a plain variable is an indirect call through the function
    address stored in it ([&f] takes a function's address). *)

type pos = { line : int; col : int }

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And  (** bitwise & *)
  | Or  (** bitwise | *)
  | Xor
  | Shl
  | Shr  (** arithmetic shift right, like C on a signed int *)
  | Lshr  (** logical shift right (MiniC operator [>>>]) *)
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land  (** logical &&, short-circuit *)
  | Lor  (** logical ||, short-circuit *)

type unop = Neg | Not  (** logical ! *) | Bnot  (** bitwise ~ *)

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int
  | Str of string
      (** A string literal; evaluates to the byte address of a
          NUL-terminated copy in the data segment. *)
  | Var of string
  | Addr_of of string  (** [&f]: address of a function. *)
  | Index of expr * expr  (** [e1[e2]]: word load at [e1 + 4*e2]. *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Assign of lvalue * expr
  | Call of string * expr list
      (** Direct call, builtin, or indirect call through a variable —
          disambiguated by {!Mc_sema}. *)

and lvalue =
  | Lvar of string
  | Lindex of expr * expr  (** [e1[e2] = ...]: word store at [e1 + 4*e2]. *)

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
and case_label = Case of expr  (** must be a constant expression *) | Default

and block_item =
  | Decl of decl
  | Stmt of stmt

and decl = {
  dname : string;
  dsize : expr option;  (** [Some n] for an array of n words. *)
  dinit : expr option;  (** Only for scalars. *)
  dpos : pos;
}

type global = {
  gname : string;
  gsize : expr option;
  ginit : expr list option;  (** Scalar or array initialiser (constants). *)
  gpos : pos;
}

type func = {
  fname : string;
  params : string list;
  body : block_item list;
  fpos : pos;
}

type top =
  | Const of string * expr * pos  (** [const NAME = const-expr;] *)
  | Global of global
  | Func of func

type program = top list

