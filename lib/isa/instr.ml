type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Cmpeq
  | Cmpne
  | Cmplt
  | Cmple
  | Cmpult
  | Cmpule
[@@deriving eq, ord]

type mem_op = Ldw | Stw | Ldb | Stb [@@deriving eq, ord]
type cond = Eq | Ne | Lt | Le | Gt | Ge [@@deriving eq, ord]
type operand = Reg of Reg.t | Imm of int [@@deriving eq, ord]

type t =
  | Sys of int
  | Nop
  | Lda of { ra : Reg.t; rb : Reg.t; disp : int }
  | Ldah of { ra : Reg.t; rb : Reg.t; disp : int }
  | Opr of { op : alu_op; ra : Reg.t; rb : operand; rc : Reg.t }
  | Mem of { op : mem_op; ra : Reg.t; rb : Reg.t; disp : int }
  | Cbr of { op : cond; ra : Reg.t; disp : int }
  | Br of { ra : Reg.t; disp : int }
  | Bsr of { ra : Reg.t; disp : int }
  | Bsrx of { ra : Reg.t; disp : int }
  | Jmp of { ra : Reg.t; rb : Reg.t; hint : int }
  | Jsr of { ra : Reg.t; rb : Reg.t; hint : int }
  | Ret of { ra : Reg.t; rb : Reg.t; hint : int }
  | Sentinel
[@@deriving eq, ord]

(* Major opcodes (6 bits). *)
let op_sys = 0x01
let op_nop = 0x02
let op_lda = 0x08
let op_ldah = 0x09
let op_opr = 0x10
let op_opri = 0x11
let op_jmp = 0x1A
let op_jsr = 0x1B
let op_ret = 0x1C
let op_ldw = 0x20
let op_stw = 0x21
let op_ldb = 0x22
let op_stb = 0x23
let op_beq = 0x30
let op_bne = 0x31
let op_blt = 0x32
let op_ble = 0x33
let op_bgt = 0x34
let op_bge = 0x35
let op_br = 0x38
let op_bsr = 0x39
let op_bsrx = 0x3A
let op_sentinel = 0x3F

let func_of_alu = function
  | Add -> 0x00
  | Sub -> 0x01
  | Mul -> 0x02
  | Div -> 0x03
  | Rem -> 0x04
  | And -> 0x05
  | Or -> 0x06
  | Xor -> 0x07
  | Sll -> 0x08
  | Srl -> 0x09
  | Sra -> 0x0A
  | Cmpeq -> 0x10
  | Cmpne -> 0x11
  | Cmplt -> 0x12
  | Cmple -> 0x13
  | Cmpult -> 0x14
  | Cmpule -> 0x15

let alu_of_func = function
  | 0x00 -> Some Add
  | 0x01 -> Some Sub
  | 0x02 -> Some Mul
  | 0x03 -> Some Div
  | 0x04 -> Some Rem
  | 0x05 -> Some And
  | 0x06 -> Some Or
  | 0x07 -> Some Xor
  | 0x08 -> Some Sll
  | 0x09 -> Some Srl
  | 0x0A -> Some Sra
  | 0x10 -> Some Cmpeq
  | 0x11 -> Some Cmpne
  | 0x12 -> Some Cmplt
  | 0x13 -> Some Cmple
  | 0x14 -> Some Cmpult
  | 0x15 -> Some Cmpule
  | _ -> None

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Cmpeq -> "cmpeq"
  | Cmpne -> "cmpne"
  | Cmplt -> "cmplt"
  | Cmple -> "cmple"
  | Cmpult -> "cmpult"
  | Cmpule -> "cmpule"

let mem_opcode = function
  | Ldw -> op_ldw
  | Stw -> op_stw
  | Ldb -> op_ldb
  | Stb -> op_stb

let mem_name = function Ldw -> "ldw" | Stw -> "stw" | Ldb -> "ldb" | Stb -> "stb"

let cond_opcode = function
  | Eq -> op_beq
  | Ne -> op_bne
  | Lt -> op_blt
  | Le -> op_ble
  | Gt -> op_bgt
  | Ge -> op_bge

let cond_name = function
  | Eq -> "beq"
  | Ne -> "bne"
  | Lt -> "blt"
  | Le -> "ble"
  | Gt -> "bgt"
  | Ge -> "bge"

let pp ppf i =
  let open Format in
  match i with
  | Sys f -> fprintf ppf "sys %d" f
  | Nop -> pp_print_string ppf "nop"
  | Lda { ra; rb; disp } -> fprintf ppf "lda %a, %d(%a)" Reg.pp ra disp Reg.pp rb
  | Ldah { ra; rb; disp } -> fprintf ppf "ldah %a, %d(%a)" Reg.pp ra disp Reg.pp rb
  | Opr { op; ra; rb = Reg rb; rc } ->
    fprintf ppf "%s %a, %a, %a" (alu_name op) Reg.pp ra Reg.pp rb Reg.pp rc
  | Opr { op; ra; rb = Imm v; rc } ->
    fprintf ppf "%s %a, #%d, %a" (alu_name op) Reg.pp ra v Reg.pp rc
  | Mem { op; ra; rb; disp } ->
    fprintf ppf "%s %a, %d(%a)" (mem_name op) Reg.pp ra disp Reg.pp rb
  | Cbr { op; ra; disp } -> fprintf ppf "%s %a, %+d" (cond_name op) Reg.pp ra disp
  | Br { ra; disp } -> fprintf ppf "br %a, %+d" Reg.pp ra disp
  | Bsr { ra; disp } -> fprintf ppf "bsr %a, %+d" Reg.pp ra disp
  | Bsrx { ra; disp } -> fprintf ppf "bsrx %a, %+d" Reg.pp ra disp
  | Jmp { ra; rb; hint } -> fprintf ppf "jmp %a, (%a), %d" Reg.pp ra Reg.pp rb hint
  | Jsr { ra; rb; hint } -> fprintf ppf "jsr %a, (%a), %d" Reg.pp ra Reg.pp rb hint
  | Ret { ra; rb; hint } -> fprintf ppf "ret %a, (%a), %d" Reg.pp ra Reg.pp rb hint
  | Sentinel -> pp_print_string ppf "sentinel"

let to_string i = Format.asprintf "%a" pp i

exception Encode_error of string * t

let check_field instr ~what ~ok = if not ok then raise (Encode_error (what, instr))

let encode instr =
  let s16 instr v =
    check_field instr ~what:"16-bit displacement" ~ok:(Word.fits_signed ~width:16 v);
    Word.zero_extend ~width:16 v
  in
  let s21 instr v =
    check_field instr ~what:"21-bit displacement" ~ok:(Word.fits_signed ~width:21 v);
    Word.zero_extend ~width:21 v
  in
  let reg instr r =
    check_field instr ~what:"register" ~ok:(Reg.is_valid r);
    r
  in
  let memfmt op ra rb disp =
    (op lsl 26) lor (reg instr ra lsl 21) lor (reg instr rb lsl 16) lor s16 instr disp
  in
  let brfmt op ra disp = (op lsl 26) lor (reg instr ra lsl 21) lor s21 instr disp in
  let jfmt op ra rb hint =
    check_field instr ~what:"16-bit hint" ~ok:(Word.fits_unsigned ~width:16 hint);
    (op lsl 26) lor (reg instr ra lsl 21) lor (reg instr rb lsl 16) lor hint
  in
  match instr with
  | Sys f ->
    check_field instr ~what:"16-bit syscall code" ~ok:(Word.fits_unsigned ~width:16 f);
    (op_sys lsl 26) lor f
  | Nop -> op_nop lsl 26
  | Lda { ra; rb; disp } -> memfmt op_lda ra rb disp
  | Ldah { ra; rb; disp } -> memfmt op_ldah ra rb disp
  | Opr { op; ra; rb = Reg rb; rc } ->
    (op_opr lsl 26)
    lor (reg instr ra lsl 21)
    lor (reg instr rb lsl 16)
    lor (func_of_alu op lsl 5)
    lor reg instr rc
  | Opr { op; ra; rb = Imm v; rc } ->
    check_field instr ~what:"8-bit literal" ~ok:(Word.fits_unsigned ~width:8 v);
    (op_opri lsl 26)
    lor (reg instr ra lsl 21)
    lor (v lsl 13)
    lor (func_of_alu op lsl 5)
    lor reg instr rc
  | Mem { op; ra; rb; disp } -> memfmt (mem_opcode op) ra rb disp
  | Cbr { op; ra; disp } -> brfmt (cond_opcode op) ra disp
  | Br { ra; disp } -> brfmt op_br ra disp
  | Bsr { ra; disp } -> brfmt op_bsr ra disp
  | Bsrx { ra; disp } -> brfmt op_bsrx ra disp
  | Jmp { ra; rb; hint } -> jfmt op_jmp ra rb hint
  | Jsr { ra; rb; hint } -> jfmt op_jsr ra rb hint
  | Ret { ra; rb; hint } -> jfmt op_ret ra rb hint
  | Sentinel -> (op_sentinel lsl 26) lor 0x3FF_FFFF

let decode w =
  let opc = (w lsr 26) land 0x3F in
  let ra = (w lsr 21) land 0x1F in
  let rb = (w lsr 16) land 0x1F in
  let disp16 = Word.sign_extend ~width:16 w in
  let disp21 = Word.sign_extend ~width:21 w in
  let hint = w land 0xFFFF in
  let alu () =
    match alu_of_func ((w lsr 5) land 0x7F) with
    | Some op -> Ok op
    | None -> Error (Printf.sprintf "bad ALU function code in word 0x%08x" w)
  in
  match opc with
  | o when o = op_sys -> Ok (Sys (w land 0xFFFF))
  | o when o = op_nop -> Ok Nop
  | o when o = op_lda -> Ok (Lda { ra; rb; disp = disp16 })
  | o when o = op_ldah -> Ok (Ldah { ra; rb; disp = disp16 })
  | o when o = op_opr ->
    Result.map (fun op -> Opr { op; ra; rb = Reg rb; rc = w land 0x1F }) (alu ())
  | o when o = op_opri ->
    let lit = (w lsr 13) land 0xFF in
    Result.map (fun op -> Opr { op; ra; rb = Imm lit; rc = w land 0x1F }) (alu ())
  | o when o = op_ldw -> Ok (Mem { op = Ldw; ra; rb; disp = disp16 })
  | o when o = op_stw -> Ok (Mem { op = Stw; ra; rb; disp = disp16 })
  | o when o = op_ldb -> Ok (Mem { op = Ldb; ra; rb; disp = disp16 })
  | o when o = op_stb -> Ok (Mem { op = Stb; ra; rb; disp = disp16 })
  | o when o = op_beq -> Ok (Cbr { op = Eq; ra; disp = disp21 })
  | o when o = op_bne -> Ok (Cbr { op = Ne; ra; disp = disp21 })
  | o when o = op_blt -> Ok (Cbr { op = Lt; ra; disp = disp21 })
  | o when o = op_ble -> Ok (Cbr { op = Le; ra; disp = disp21 })
  | o when o = op_bgt -> Ok (Cbr { op = Gt; ra; disp = disp21 })
  | o when o = op_bge -> Ok (Cbr { op = Ge; ra; disp = disp21 })
  | o when o = op_br -> Ok (Br { ra; disp = disp21 })
  | o when o = op_bsr -> Ok (Bsr { ra; disp = disp21 })
  | o when o = op_bsrx -> Ok (Bsrx { ra; disp = disp21 })
  | o when o = op_jmp -> Ok (Jmp { ra; rb; hint })
  | o when o = op_jsr -> Ok (Jsr { ra; rb; hint })
  | o when o = op_ret -> Ok (Ret { ra; rb; hint })
  | o when o = op_sentinel -> Ok Sentinel
  | o -> Error (Printf.sprintf "unknown opcode 0x%02x in word 0x%08x" o w)

(* Field streams *)

type stream =
  | Opcode
  | Mem_ra
  | Mem_rb
  | Mem_disp
  | Br_ra
  | Br_disp
  | Op_ra
  | Op_rb
  | Op_rc
  | Op_lit
  | Op_func
  | Jmp_ra
  | Jmp_rb
  | Jmp_hint
  | Sys_func
[@@deriving eq, ord]

let all_streams =
  [ Opcode; Mem_ra; Mem_rb; Mem_disp; Br_ra; Br_disp; Op_ra; Op_rb; Op_rc; Op_lit;
    Op_func; Jmp_ra; Jmp_rb; Jmp_hint; Sys_func ]

let stream_index s =
  let rec find i = function
    | [] -> assert false
    | s' :: rest -> if equal_stream s s' then i else find (i + 1) rest
  in
  find 0 all_streams

let stream_name = function
  | Opcode -> "opcode"
  | Mem_ra -> "mem_ra"
  | Mem_rb -> "mem_rb"
  | Mem_disp -> "mem_disp"
  | Br_ra -> "br_ra"
  | Br_disp -> "br_disp"
  | Op_ra -> "op_ra"
  | Op_rb -> "op_rb"
  | Op_rc -> "op_rc"
  | Op_lit -> "op_lit"
  | Op_func -> "op_func"
  | Jmp_ra -> "jmp_ra"
  | Jmp_rb -> "jmp_rb"
  | Jmp_hint -> "jmp_hint"
  | Sys_func -> "sys_func"

let opcode_value instr =
  match instr with
  | Sys _ -> op_sys
  | Nop -> op_nop
  | Lda _ -> op_lda
  | Ldah _ -> op_ldah
  | Opr { rb = Reg _; _ } -> op_opr
  | Opr { rb = Imm _; _ } -> op_opri
  | Mem { op; _ } -> mem_opcode op
  | Cbr { op; _ } -> cond_opcode op
  | Br _ -> op_br
  | Bsr _ -> op_bsr
  | Bsrx _ -> op_bsrx
  | Jmp _ -> op_jmp
  | Jsr _ -> op_jsr
  | Ret _ -> op_ret
  | Sentinel -> op_sentinel

let fields instr =
  match instr with
  | Sys f -> [ (Sys_func, f) ]
  | Nop -> []
  | Lda { ra; rb; disp } | Ldah { ra; rb; disp } | Mem { ra; rb; disp; _ } ->
    [ (Mem_ra, ra); (Mem_rb, rb); (Mem_disp, Word.zero_extend ~width:16 disp) ]
  | Opr { ra; rb = Reg rb; rc; op } ->
    [ (Op_ra, ra); (Op_rb, rb); (Op_func, func_of_alu op); (Op_rc, rc) ]
  | Opr { ra; rb = Imm v; rc; op } ->
    [ (Op_ra, ra); (Op_lit, v); (Op_func, func_of_alu op); (Op_rc, rc) ]
  | Cbr { ra; disp; _ } | Br { ra; disp } | Bsr { ra; disp } | Bsrx { ra; disp } ->
    [ (Br_ra, ra); (Br_disp, Word.zero_extend ~width:21 disp) ]
  | Jmp { ra; rb; hint } | Jsr { ra; rb; hint } | Ret { ra; rb; hint } ->
    [ (Jmp_ra, ra); (Jmp_rb, rb); (Jmp_hint, hint) ]
  | Sentinel -> []

let streams_of_opcode opc =
  let mem = [ Mem_ra; Mem_rb; Mem_disp ] in
  let br = [ Br_ra; Br_disp ] in
  let jump = [ Jmp_ra; Jmp_rb; Jmp_hint ] in
  match opc with
  | o when o = op_sys -> Ok [ Sys_func ]
  | o when o = op_nop || o = op_sentinel -> Ok []
  | o when o = op_lda || o = op_ldah -> Ok mem
  | o when o = op_ldw || o = op_stw || o = op_ldb || o = op_stb -> Ok mem
  | o when o = op_opr -> Ok [ Op_ra; Op_rb; Op_func; Op_rc ]
  | o when o = op_opri -> Ok [ Op_ra; Op_lit; Op_func; Op_rc ]
  | o when o >= op_beq && o <= op_bge -> Ok br
  | o when o = op_br || o = op_bsr || o = op_bsrx -> Ok br
  | o when o = op_jmp || o = op_jsr || o = op_ret -> Ok jump
  | o -> Error (Printf.sprintf "unknown opcode value %d" o)

let rebuild ~opcode next =
  let mem make =
    let ra = next Mem_ra in
    let rb = next Mem_rb in
    let disp = Word.sign_extend ~width:16 (next Mem_disp) in
    make ra rb disp
  in
  let br make =
    let ra = next Br_ra in
    let disp = Word.sign_extend ~width:21 (next Br_disp) in
    make ra disp
  in
  let jump make =
    let ra = next Jmp_ra in
    let rb = next Jmp_rb in
    let hint = next Jmp_hint in
    make ra rb hint
  in
  let opr literal =
    let ra = next Op_ra in
    let rb = if literal then Imm (next Op_lit) else Reg (next Op_rb) in
    match alu_of_func (next Op_func) with
    | Some op -> Ok (Opr { op; ra; rb; rc = next Op_rc })
    | None -> Error "bad ALU function code in compressed stream"
  in
  match opcode with
  | o when o = op_sys -> Ok (Sys (next Sys_func))
  | o when o = op_nop -> Ok Nop
  | o when o = op_sentinel -> Ok Sentinel
  | o when o = op_lda -> Ok (mem (fun ra rb disp -> Lda { ra; rb; disp }))
  | o when o = op_ldah -> Ok (mem (fun ra rb disp -> Ldah { ra; rb; disp }))
  | o when o = op_ldw -> Ok (mem (fun ra rb disp -> Mem { op = Ldw; ra; rb; disp }))
  | o when o = op_stw -> Ok (mem (fun ra rb disp -> Mem { op = Stw; ra; rb; disp }))
  | o when o = op_ldb -> Ok (mem (fun ra rb disp -> Mem { op = Ldb; ra; rb; disp }))
  | o when o = op_stb -> Ok (mem (fun ra rb disp -> Mem { op = Stb; ra; rb; disp }))
  | o when o = op_opr -> opr false
  | o when o = op_opri -> opr true
  | o when o = op_beq -> Ok (br (fun ra disp -> Cbr { op = Eq; ra; disp }))
  | o when o = op_bne -> Ok (br (fun ra disp -> Cbr { op = Ne; ra; disp }))
  | o when o = op_blt -> Ok (br (fun ra disp -> Cbr { op = Lt; ra; disp }))
  | o when o = op_ble -> Ok (br (fun ra disp -> Cbr { op = Le; ra; disp }))
  | o when o = op_bgt -> Ok (br (fun ra disp -> Cbr { op = Gt; ra; disp }))
  | o when o = op_bge -> Ok (br (fun ra disp -> Cbr { op = Ge; ra; disp }))
  | o when o = op_br -> Ok (br (fun ra disp -> Br { ra; disp }))
  | o when o = op_bsr -> Ok (br (fun ra disp -> Bsr { ra; disp }))
  | o when o = op_bsrx -> Ok (br (fun ra disp -> Bsrx { ra; disp }))
  | o when o = op_jmp -> Ok (jump (fun ra rb hint -> Jmp { ra; rb; hint }))
  | o when o = op_jsr -> Ok (jump (fun ra rb hint -> Jsr { ra; rb; hint }))
  | o when o = op_ret -> Ok (jump (fun ra rb hint -> Ret { ra; rb; hint }))
  | o -> Error (Printf.sprintf "unknown opcode value %d in compressed stream" o)

let branch_displacement = function
  | Cbr { disp; _ } | Br { disp; _ } | Bsr { disp; _ } | Bsrx { disp; _ } -> Some disp
  | Sys _ | Nop | Lda _ | Ldah _ | Opr _ | Mem _ | Jmp _ | Jsr _ | Ret _ | Sentinel ->
    None

let with_branch_displacement instr disp =
  match instr with
  | Cbr c -> Cbr { c with disp }
  | Br b -> Br { b with disp }
  | Bsr b -> Bsr { b with disp }
  | Bsrx b -> Bsrx { b with disp }
  | Sys _ | Nop | Lda _ | Ldah _ | Opr _ | Mem _ | Jmp _ | Jsr _ | Ret _ | Sentinel ->
    instr

let is_control_transfer = function
  | Cbr _ | Br _ | Bsr _ | Bsrx _ | Jmp _ | Jsr _ | Ret _ -> true
  | Sys _ | Nop | Lda _ | Ldah _ | Opr _ | Mem _ | Sentinel -> false
