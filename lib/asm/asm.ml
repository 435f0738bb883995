(* Line-oriented recursive-descent assembler.  Each line is tokenised into
   words, numbers and punctuation; the parser then dispatches on the first
   token.  Errors are reported with 1-based line numbers. *)

type token =
  | Ident of string
  | Num of int
  | Punct of char  (* one of  , ( ) { } : # & = ?  *)

exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  || c = '.'

let tokenize line_no s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ';' then i := n
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let start = !i in
      incr i;
      while
        !i < n
        && (is_ident_char s.[!i] || s.[!i] = 'x' || s.[!i] = 'X')
        && s.[!i] <> '.'
      do
        incr i
      done;
      let text = String.sub s start (!i - start) in
      match int_of_string_opt text with
      | Some v -> toks := Num v :: !toks
      | None ->
        if text = "-" then toks := Punct '-' :: !toks
        else fail line_no "bad number %S" text
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      (* Leading dots belong to labels like [.0]; split a trailing ':'. *)
      toks := Ident (String.sub s start (!i - start)) :: !toks
    end
    else if String.contains ",(){}:#&=?" c then begin
      toks := Punct c :: !toks;
      incr i
    end
    else fail line_no "unexpected character %C" c
  done;
  List.rev !toks

let reg_of line_no name =
  match Reg.of_name name with
  | Some r -> r
  | None -> fail line_no "unknown register %S" name

let alu_ops =
  [
    ("add", Instr.Add);
    ("sub", Instr.Sub);
    ("mul", Instr.Mul);
    ("div", Instr.Div);
    ("rem", Instr.Rem);
    ("and", Instr.And);
    ("or", Instr.Or);
    ("xor", Instr.Xor);
    ("sll", Instr.Sll);
    ("srl", Instr.Srl);
    ("sra", Instr.Sra);
    ("cmpeq", Instr.Cmpeq);
    ("cmpne", Instr.Cmpne);
    ("cmplt", Instr.Cmplt);
    ("cmple", Instr.Cmple);
    ("cmpult", Instr.Cmpult);
    ("cmpule", Instr.Cmpule);
  ]

let mem_ops = [ ("ldw", Instr.Ldw); ("stw", Instr.Stw); ("ldb", Instr.Ldb); ("stb", Instr.Stb) ]

let conds =
  [
    ("eq", Instr.Eq);
    ("ne", Instr.Ne);
    ("lt", Instr.Lt);
    ("le", Instr.Le);
    ("gt", Instr.Gt);
    ("ge", Instr.Ge);
  ]

let syscalls =
  [
    Syscall.Exit; Syscall.Getc; Syscall.Putc; Syscall.Putint; Syscall.Sbrk;
    Syscall.Setjmp; Syscall.Longjmp; Syscall.Getw; Syscall.Putw;
  ]

let block_ref line_no tok =
  match tok with
  | Ident s when String.length s >= 2 && s.[0] = '.' -> (
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n -> n
    | None -> fail line_no "bad block reference %S" s)
  | Ident s -> fail line_no "expected block reference (.N), got %S" s
  | Num _ | Punct _ -> fail line_no "expected block reference (.N)"

(* Parse an instruction or pseudo-instruction line into items. *)
let parse_items line_no toks : Prog.item list =
  let reg = reg_of line_no in
  match toks with
  | [ Ident "nop" ] -> [ Prog.Instr Instr.Nop ]
  | [ Ident "sys"; Ident name ] -> (
    match List.find_opt (fun sc -> Syscall.name sc = name) syscalls with
    | Some sc -> [ Prog.Instr (Instr.Sys (Syscall.to_code sc)) ]
    | None -> fail line_no "unknown syscall %S" name)
  | [ Ident "sys"; Num code ] -> [ Prog.Instr (Instr.Sys code) ]
  | [ Ident op; Ident ra; Punct ','; Ident rb; Punct ','; Ident rc ]
    when List.mem_assoc op alu_ops ->
    [
      Prog.Instr
        (Instr.Opr
           {
             op = List.assoc op alu_ops;
             ra = reg ra;
             rb = Instr.Reg (reg rb);
             rc = reg rc;
           });
    ]
  | [ Ident op; Ident ra; Punct ','; Punct '#'; Num v; Punct ','; Ident rc ]
    when List.mem_assoc op alu_ops ->
    [
      Prog.Instr
        (Instr.Opr { op = List.assoc op alu_ops; ra = reg ra; rb = Instr.Imm v; rc = reg rc });
    ]
  | [ Ident op; Ident ra; Punct ','; Num disp; Punct '('; Ident rb; Punct ')' ]
    when List.mem_assoc op mem_ops ->
    [ Prog.Instr (Instr.Mem { op = List.assoc op mem_ops; ra = reg ra; rb = reg rb; disp }) ]
  | [ Ident "lda"; Ident ra; Punct ','; Num disp; Punct '('; Ident rb; Punct ')' ] ->
    [ Prog.Instr (Instr.Lda { ra = reg ra; rb = reg rb; disp }) ]
  | [ Ident "ldah"; Ident ra; Punct ','; Num disp; Punct '('; Ident rb; Punct ')' ] ->
    [ Prog.Instr (Instr.Ldah { ra = reg ra; rb = reg rb; disp }) ]
  | [ Ident "mov"; Ident ra; Punct ','; Ident rc ] ->
    [
      Prog.Instr
        (Instr.Opr { op = Instr.Or; ra = reg ra; rb = Instr.Reg Reg.zero; rc = reg rc });
    ]
  | [ Ident "li"; Ident rc; Punct ','; Num v ] ->
    let rc = reg rc in
    let hi, lo = Easm.split_const v in
    if hi = 0 then [ Prog.Instr (Instr.Lda { ra = rc; rb = Reg.zero; disp = lo }) ]
    else
      [
        Prog.Instr (Instr.Ldah { ra = rc; rb = Reg.zero; disp = hi });
        Prog.Instr (Instr.Lda { ra = rc; rb = rc; disp = lo });
      ]
  | [ Ident "la"; Ident rc; Punct ','; Punct '&'; Ident sym ] ->
    let rc = reg rc in
    if String.length sym > 5 && String.sub sym 0 5 = "table" then
      match int_of_string_opt (String.sub sym 5 (String.length sym - 5)) with
      | Some tid -> [ Prog.Load_addr (rc, Prog.Table_addr tid) ]
      | None -> [ Prog.Load_addr (rc, Prog.Func_addr sym) ]
    else [ Prog.Load_addr (rc, Prog.Func_addr sym) ]
  | _ -> fail line_no "cannot parse instruction"

(* Parse a terminator line; [next] is the index of the block that will
   lexically follow (used as implicit return_to for calls). *)
let parse_term line_no toks ~next : Prog.term option =
  match toks with
  | [ Ident "goto"; b ] -> Some (Prog.Jump (block_ref line_no b))
  | [ Ident "if"; Ident c; Ident r; Ident "goto"; b1; Ident "else"; b2 ] -> (
    match List.assoc_opt c conds with
    | Some cond ->
      Some
        (Prog.Branch
           (cond, reg_of line_no r, block_ref line_no b1, block_ref line_no b2))
    | None -> fail line_no "unknown condition %S" c)
  | [ Ident "call"; Ident f ] ->
    Some (Prog.Call { ra = Reg.ra; callee = f; return_to = next })
  | [ Ident "call"; Ident f; Ident "ra"; Punct '='; Ident r ] ->
    Some (Prog.Call { ra = reg_of line_no r; callee = f; return_to = next })
  | [ Ident "icall"; Punct '('; Ident r; Punct ')' ] ->
    Some (Prog.Call_indirect { ra = Reg.ra; rb = reg_of line_no r; return_to = next })
  | [ Ident "icall"; Punct '('; Ident r; Punct ')'; Ident "ra"; Punct '='; Ident r2 ] ->
    Some
      (Prog.Call_indirect
         { ra = reg_of line_no r2; rb = reg_of line_no r; return_to = next })
  | [ Ident "ijump"; Punct '('; Ident r; Punct ')' ] ->
    Some (Prog.Jump_indirect { rb = reg_of line_no r; table = None })
  | [ Ident "ijump"; Punct '('; Ident r; Punct ')'; Ident "table"; Num tid ] ->
    Some (Prog.Jump_indirect { rb = reg_of line_no r; table = Some tid })
  | [ Ident "ret" ] -> Some (Prog.Return { rb = Reg.ra })
  | [ Ident "ret"; Punct '('; Ident r; Punct ')' ] ->
    Some (Prog.Return { rb = reg_of line_no r })
  | [ Ident "halt" ] -> Some Prog.No_return
  | _ -> None

type line = { no : int; toks : token list }

let lines_of_string src =
  String.split_on_char '\n' src
  |> List.mapi (fun i s -> { no = i + 1; toks = tokenize (i + 1) s })
  |> List.filter (fun l -> l.toks <> [])

(* Parse the body of one function (after "func NAME {") up to "}". *)
let parse_func_body name lines =
  let blocks = ref [] in
  let tables = ref [] in
  let current : (int * Prog.item list ref * Prog.term option ref) option ref = ref None in
  let flush_block () =
    match !current with
    | None -> ()
    | Some (idx, items, term) ->
      let term =
        match !term with Some t -> t | None -> Prog.Fallthrough (idx + 1)
      in
      blocks := (idx, { Prog.Block.items = List.rev !items; term }) :: !blocks;
      current := None
  in
  let rec go = function
    | [] -> fail 0 "unexpected end of input in func %s (missing '}')" name
    | { no; toks } :: rest -> (
      match toks with
      | [ Punct '}' ] ->
        flush_block ();
        rest
      | Ident label :: Punct ':' :: [] when String.length label >= 2 && label.[0] = '.' ->
        flush_block ();
        let idx = block_ref no (Ident label) in
        let expected = List.length !blocks in
        if idx <> expected then fail no "expected block .%d, got .%d" expected idx;
        current := Some (idx, ref [], ref None);
        go rest
      | Ident "table" :: Num tid :: Punct ':' :: entries ->
        flush_block ();
        if tid <> List.length !tables then fail no "tables must be declared in order";
        let entries =
          List.map (fun e -> block_ref no e) entries
        in
        tables := Array.of_list entries :: !tables;
        go rest
      | _ -> (
        match !current with
        | None -> fail no "instruction outside a block in func %s" name
        | Some (idx, items, term) -> (
          if !term <> None then fail no "instruction after terminator in block .%d" idx;
          match parse_term no toks ~next:(idx + 1) with
          | Some t ->
            term := Some t;
            go rest
          | None ->
            let parsed = parse_items no toks in
            items := List.rev_append parsed !items;
            go rest)))
  in
  let rest = go lines in
  let blocks =
    List.rev !blocks |> List.map snd |> Array.of_list
  in
  ( { Prog.Func.name; blocks; tables = Array.of_list (List.rev !tables) }, rest )

let parse_funcs lines =
  let entry = ref None in
  let data_words = ref 0 in
  let data_init = ref [] in
  let funcs = ref [] in
  let rec go = function
    | [] -> ()
    | { no; toks } :: rest -> (
      match toks with
      | [ Ident ".entry"; Ident name ] ->
        entry := Some name;
        go rest
      | [ Ident ".data"; Num n ] ->
        data_words := n;
        go rest
      | [ Ident ".init"; Num off; Num v ] ->
        data_init := (off, v land Word.mask) :: !data_init;
        go rest
      | [ Ident "func"; Ident name; Punct '{' ] ->
        let f, rest = parse_func_body name rest in
        funcs := f :: !funcs;
        go rest
      | _ -> fail no "expected directive or function definition")
  in
  go lines;
  let entry =
    match !entry with
    | Some e -> e
    | None -> (
      match List.rev !funcs with
      | f :: _ -> f.Prog.Func.name
      | [] -> fail 0 "empty program")
  in
  {
    Prog.funcs = List.rev !funcs;
    entry;
    data_words = !data_words;
    data_init = List.rev !data_init;
  }

let parse_program src =
  match parse_funcs (lines_of_string src) with
  | prog -> (
    match Prog.validate prog with Ok () -> Ok prog | Error es -> Error (List.hd es))
  | exception Parse_error (no, msg) -> Error (Printf.sprintf "line %d: %s" no msg)

let parse_func src =
  match lines_of_string src with
  | { no; toks = [ Ident "func"; Ident name; Punct '{' ] } :: rest -> (
    ignore no;
    match parse_func_body name rest with
    | f, [] -> Ok f
    | _, { no; _ } :: _ -> Error (Printf.sprintf "line %d: trailing input" no)
    | exception Parse_error (no, msg) -> Error (Printf.sprintf "line %d: %s" no msg))
  | { no; _ } :: _ -> Error (Printf.sprintf "line %d: expected 'func NAME {'" no)
  | [] -> Error "empty input"
  | exception Parse_error (no, msg) -> Error (Printf.sprintf "line %d: %s" no msg)

(* Rendering back to parseable source. *)

let render_item ppf = function
  | Prog.Instr (Instr.Sys code) -> (
    match Syscall.of_code code with
    | Some sc -> Format.fprintf ppf "sys %s" (Syscall.name sc)
    | None -> Format.fprintf ppf "sys %d" code)
  | Prog.Instr i -> Instr.pp ppf i
  | Prog.Load_addr (r, Prog.Func_addr f) -> Format.fprintf ppf "la %a, &%s" Reg.pp r f
  | Prog.Load_addr (r, Prog.Table_addr tid) ->
    Format.fprintf ppf "la %a, &table%d" Reg.pp r tid

let render_term ppf (t : Prog.term) ~index =
  match t with
  | Prog.Fallthrough d when d = index + 1 -> ()
  | Prog.Fallthrough d -> Format.fprintf ppf "    goto .%d@," d
  | Prog.Jump d -> Format.fprintf ppf "    goto .%d@," d
  | Prog.Branch (c, r, d1, d2) ->
    let cname = List.find (fun (_, c') -> c' = c) conds |> fst in
    Format.fprintf ppf "    if %s %a goto .%d else .%d@," cname Reg.pp r d1 d2
  | Prog.Call { ra; callee; _ } ->
    if ra = Reg.ra then Format.fprintf ppf "    call %s@," callee
    else Format.fprintf ppf "    call %s ra=%a@," callee Reg.pp ra
  | Prog.Call_indirect { ra; rb; _ } ->
    if ra = Reg.ra then Format.fprintf ppf "    icall (%a)@," Reg.pp rb
    else Format.fprintf ppf "    icall (%a) ra=%a@," Reg.pp rb Reg.pp ra
  | Prog.Jump_indirect { rb; table = Some tid } ->
    Format.fprintf ppf "    ijump (%a) table %d@," Reg.pp rb tid
  | Prog.Jump_indirect { rb; table = None } ->
    Format.fprintf ppf "    ijump (%a)@," Reg.pp rb
  | Prog.Return { rb } ->
    if rb = Reg.ra then Format.fprintf ppf "    ret@,"
    else Format.fprintf ppf "    ret (%a)@," Reg.pp rb
  | Prog.No_return -> Format.fprintf ppf "    halt@,"

let pp_program ppf (p : Prog.t) =
  Format.fprintf ppf "@[<v>.entry %s@," p.entry;
  if p.data_words > 0 then Format.fprintf ppf ".data %d@," p.data_words;
  List.iter (fun (off, v) -> Format.fprintf ppf ".init %d %d@," off v) p.data_init;
  List.iter
    (fun (f : Prog.Func.t) ->
      Format.fprintf ppf "@,func %s {@," f.name;
      Array.iteri
        (fun i (b : Prog.Block.t) ->
          Format.fprintf ppf "  .%d:@," i;
          List.iter (fun it -> Format.fprintf ppf "    %a@," render_item it) b.items;
          render_term ppf b.term ~index:i)
        f.blocks;
      Array.iteri
        (fun tid tbl ->
          Format.fprintf ppf "  table %d:%s@," tid
            (String.concat ""
               (Array.to_list (Array.map (fun d -> Printf.sprintf " .%d" d) tbl))))
        f.tables;
      Format.fprintf ppf "}@,")
    p.funcs;
  Format.fprintf ppf "@]"

let disassemble words ~base =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i w ->
      let addr = base + (4 * i) in
      (match Instr.decode w with
      | Ok ins -> Buffer.add_string buf (Printf.sprintf "%08x:  %s" addr (Instr.to_string ins))
      | Error _ -> Buffer.add_string buf (Printf.sprintf "%08x:  .word 0x%08x" addr w));
      Buffer.add_char buf '\n')
    words;
  Buffer.contents buf
