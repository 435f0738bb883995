exception Trap of { pc : int; reason : string }

type sampler = { period : int; seed : int }

type t = {
  mem : int array array;  (* page table over word indices *)
  decoded : Instr.t option array array;  (* decode cache, one page per [mem] page *)
  regs : int array;
  mutable pc : int;
  mutable running : bool;
  mutable exit_code : int option;
  mutable icount : int;
  mutable cycles : int;
  mutable fuel : int;
  cost : Cost.model;
  input : string;
  mutable in_pos : int;
  output : Buffer.t;
  counts : int array option;
  text_base : int;
  text_words : int;
  mutable hook_lo : int;
  mutable hook_hi : int;
  hooks : (int, t -> unit) Hashtbl.t;
  mutable heap_break : int;
  mutable hook_invocations : int;
  sampler : sampler option;
  mutable sample_countdown : int;
  mutable sample_rng : int;
  mutable sample_hits : int;
  mutable sample_skips : int;
}

let trap t reason = raise (Trap { pc = t.pc; reason })

let mem_words = Layout.mem_bytes / 4

(* Demand paging: word index [i] lives at [(i lsr page_bits).(i land page_mask)].
   Every page-table entry starts at a shared page that is never written —
   [zero_page] for memory, [none_page] for the decode cache — and gets a
   private page only on the first non-zero store (memory) or the first fetch
   (decode cache) that lands in it. *)
let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let page_bytes = 4 * page_words
let page_count = mem_words / page_words
let zero_page : int array = Array.make page_words 0
let none_page : Instr.t option array = Array.make page_words None

let get_word t idx = t.mem.(idx lsr page_bits).(idx land page_mask)

(* Store a word at an in-range index and drop its cached decode.  Writing 0
   to a page still shared with [zero_page] changes nothing, so allocates
   nothing. *)
let set_word t idx v =
  let p = idx lsr page_bits and off = idx land page_mask in
  let pg = t.mem.(p) in
  if pg != zero_page then pg.(off) <- v
  else if v <> 0 then begin
    let pg = Array.make page_words 0 in
    pg.(off) <- v;
    t.mem.(p) <- pg
  end;
  let dp = t.decoded.(p) in
  if dp != none_page then dp.(off) <- None

(* Deterministic xorshift step, kept positive so [mod] below is safe. *)
let xorshift s =
  let s = s lxor (s lsl 13) land max_int in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17) land max_int

(* Number of instructions until the sampler fires again: the period plus a
   small seeded jitter so sampling does not phase-lock with loop bodies.
   A period of 1 always yields a stride of 1 (degenerates to exact). *)
let next_stride t (s : sampler) =
  t.sample_rng <- xorshift t.sample_rng;
  let span = max 1 (s.period / 4) in
  let jitter = (t.sample_rng mod span) - (s.period / 8) in
  max 1 (s.period + jitter)

let create ?(cost = Cost.default) ?(fuel = 1_000_000_000) ?(profile = false) ?sampler
    ~text_base ~text ~entry ~data_base ~data_words ~data_init ~input () =
  if text_base land 3 <> 0 then invalid_arg "Vm.create: unaligned text base";
  (match sampler with
  | Some s when s.period < 1 -> invalid_arg "Vm.create: sample period must be >= 1"
  | _ -> ());
  let text_idx = text_base / 4 in
  if text_idx < 0 || text_idx + Array.length text > mem_words then
    invalid_arg "Vm.create: text out of range";
  let regs = Array.make Reg.count 0 in
  regs.(Reg.sp) <- Layout.stack_top;
  let t =
    {
      mem = Array.make page_count zero_page;
      decoded = Array.make page_count none_page;
      regs;
      pc = entry;
      running = true;
      exit_code = None;
      icount = 0;
      cycles = 0;
      fuel;
      cost;
      input;
      in_pos = 0;
      output = Buffer.create 4096;
      counts = (if profile then Some (Array.make (Array.length text) 0) else None);
      text_base;
      text_words = Array.length text;
      hook_lo = max_int;
      hook_hi = min_int;
      hooks = Hashtbl.create 8;
      heap_break = data_base + (4 * data_words);
      hook_invocations = 0;
      sampler;
      sample_countdown = 0;
      sample_rng = 0;
      sample_hits = 0;
      sample_skips = 0;
    }
  in
  Array.iteri (fun i w -> set_word t (text_idx + i) w) text;
  List.iter
    (fun (off, v) ->
      let idx = (data_base / 4) + off in
      if idx < 0 || idx >= mem_words then invalid_arg "Vm.create: data init out of range";
      set_word t idx (v land Word.mask))
    data_init;
  (match sampler with
  | None -> ()
  | Some s ->
    (* Seed the stride generator; xorshift has a fixed point at 0, so mix
       in a non-zero constant.  The first fire offset is itself drawn from
       the generator, keeping two same-seed runs byte-identical. *)
    t.sample_rng <- (s.seed lxor 0x2545F4914F6CDD1) land max_int;
    if t.sample_rng = 0 then t.sample_rng <- 1;
    t.sample_countdown <- next_stride t s);
  t

let of_image ?cost ?fuel ?profile ?sampler (img : Layout.image) ~input =
  create ?cost ?fuel ?profile ?sampler ~text_base:img.Layout.text_base
    ~text:img.Layout.text ~entry:img.Layout.entry_addr ~data_base:img.Layout.data_base
    ~data_words:img.Layout.data_words ~data_init:img.Layout.data_init ~input ()

let pc t = t.pc
let set_pc t a = t.pc <- a

let reg t r = if r = Reg.zero then 0 else t.regs.(r)

let set_reg t r v = if r <> Reg.zero then t.regs.(r) <- v land Word.mask

let check_word_addr t a =
  if a land 3 <> 0 then trap t (Printf.sprintf "unaligned word access at 0x%x" a);
  let idx = a lsr 2 in
  if idx < 0 || idx >= mem_words then
    trap t (Printf.sprintf "word access out of range at 0x%x" a);
  idx

let load_word t a = get_word t (check_word_addr t a)
let store_word t a v = set_word t (check_word_addr t a) (v land Word.mask)

let check_byte_addr t a =
  if a < 0 || a >= Layout.mem_bytes then
    trap t (Printf.sprintf "byte access out of range at 0x%x" a)

let load_byte t a =
  check_byte_addr t a;
  (get_word t (a lsr 2) lsr (8 * (a land 3))) land 0xFF

let store_byte t a v =
  check_byte_addr t a;
  let idx = a lsr 2 in
  let shift = 8 * (a land 3) in
  set_word t idx (get_word t idx land lnot (0xFF lsl shift) lor ((v land 0xFF) lsl shift))

let add_cycles t n = t.cycles <- t.cycles + n
let icount t = t.icount
let cycles t = t.cycles
let hook_invocations t = t.hook_invocations
let counts t = t.counts
let sample_hits t = t.sample_hits
let sample_skips t = t.sample_skips

let install_hook t ~addr f =
  if addr land 3 <> 0 then invalid_arg "Vm.install_hook: unaligned address";
  Hashtbl.replace t.hooks addr f;
  t.hook_lo <- min t.hook_lo addr;
  t.hook_hi <- max t.hook_hi addr

(* setjmp buffer layout: [pc; sp; ra; s0..s6] = 10 words. *)
let setjmp_words = 10

let do_setjmp t buf =
  (* The layout above must cover exactly the pc, sp, ra and saved-register
     slots; if Reg.saved ever changes, this is the place that must follow. *)
  assert (setjmp_words = 3 + List.length Reg.saved);
  (* Trap on an out-of-range buffer before any partial write. *)
  ignore (check_word_addr t buf);
  ignore (check_word_addr t (buf + (4 * (setjmp_words - 1))));
  let continue_pc = t.pc + 4 in
  store_word t buf continue_pc;
  store_word t (buf + 4) (reg t Reg.sp);
  store_word t (buf + 8) (reg t Reg.ra);
  List.iteri (fun i r -> store_word t (buf + 12 + (4 * i)) (reg t r)) Reg.saved;
  set_reg t Reg.rv 0

let do_longjmp t buf v =
  let target = load_word t buf in
  set_reg t Reg.sp (load_word t (buf + 4));
  set_reg t Reg.ra (load_word t (buf + 8));
  List.iteri (fun i r -> set_reg t r (load_word t (buf + 12 + (4 * i)))) Reg.saved;
  set_reg t Reg.rv (if v = 0 then 1 else v);
  t.pc <- target

let do_syscall t code =
  let a0 = reg t 16 and a1 = reg t 17 in
  match Syscall.of_code code with
  | None -> trap t (Printf.sprintf "unknown syscall %d" code)
  | Some Syscall.Exit ->
    t.running <- false;
    t.exit_code <- Some (Word.to_signed a0 land 0xFF);
    t.pc <- t.pc + 4
  | Some Syscall.Getc ->
    let v =
      if t.in_pos < String.length t.input then begin
        let c = Char.code t.input.[t.in_pos] in
        t.in_pos <- t.in_pos + 1;
        c
      end
      else Word.of_int (-1)
    in
    set_reg t Reg.rv v;
    t.pc <- t.pc + 4
  | Some Syscall.Putc ->
    Buffer.add_char t.output (Char.chr (a0 land 0xFF));
    t.pc <- t.pc + 4
  | Some Syscall.Putint ->
    Buffer.add_string t.output (string_of_int (Word.to_signed a0));
    Buffer.add_char t.output '\n';
    t.pc <- t.pc + 4
  | Some Syscall.Sbrk ->
    let old = t.heap_break in
    let nbreak = old + Word.to_signed a0 in
    if nbreak < 0 || nbreak >= Layout.stack_top then trap t "sbrk: out of memory";
    t.heap_break <- nbreak;
    set_reg t Reg.rv old;
    t.pc <- t.pc + 4
  | Some Syscall.Setjmp ->
    do_setjmp t a0;
    t.pc <- t.pc + 4
  | Some Syscall.Longjmp -> do_longjmp t a0 (Word.to_signed a1)
  | Some Syscall.Getw ->
    if t.in_pos + 4 <= String.length t.input then begin
      let b i = Char.code t.input.[t.in_pos + i] in
      set_reg t Reg.rv (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24));
      t.in_pos <- t.in_pos + 4
    end
    else set_reg t Reg.rv (Word.of_int (-1));
    t.pc <- t.pc + 4
  | Some Syscall.Putw ->
    for i = 0 to 3 do
      Buffer.add_char t.output (Char.chr ((a0 lsr (8 * i)) land 0xFF))
    done;
    t.pc <- t.pc + 4

let eval_alu t op a b =
  match op with
  | Instr.Add -> Word.add a b
  | Instr.Sub -> Word.sub a b
  | Instr.Mul -> Word.mul a b
  | Instr.Div -> ( try Word.sdiv a b with Word.Division_trap -> trap t "division by zero")
  | Instr.Rem -> ( try Word.srem a b with Word.Division_trap -> trap t "division by zero")
  | Instr.And -> Word.logand a b
  | Instr.Or -> Word.logor a b
  | Instr.Xor -> Word.logxor a b
  | Instr.Sll -> Word.shift_left a (b land 31)
  | Instr.Srl -> Word.shift_right_logical a (b land 31)
  | Instr.Sra -> Word.shift_right_arith a (b land 31)
  | Instr.Cmpeq -> if Word.eq a b then 1 else 0
  | Instr.Cmpne -> if Word.eq a b then 0 else 1
  | Instr.Cmplt -> if Word.slt a b then 1 else 0
  | Instr.Cmple -> if Word.sle a b then 1 else 0
  | Instr.Cmpult -> if Word.ult a b then 1 else 0
  | Instr.Cmpule -> if Word.ule a b then 1 else 0

let cond_holds op v =
  let s = Word.to_signed v in
  match op with
  | Instr.Eq -> s = 0
  | Instr.Ne -> s <> 0
  | Instr.Lt -> s < 0
  | Instr.Le -> s <= 0
  | Instr.Gt -> s > 0
  | Instr.Ge -> s >= 0

let fetch t =
  if t.pc land 3 <> 0 then trap t "unaligned pc";
  let idx = t.pc lsr 2 in
  if idx < 0 || idx >= mem_words then trap t "pc out of range";
  let p = idx lsr page_bits and off = idx land page_mask in
  let dp = t.decoded.(p) in
  match dp.(off) with
  | Some i -> i
  | None -> (
    match Instr.decode t.mem.(p).(off) with
    | Ok i ->
      let dp =
        if dp != none_page then dp
        else begin
          let dp = Array.make page_words None in
          t.decoded.(p) <- dp;
          dp
        end
      in
      dp.(off) <- Some i;
      i
    | Error msg -> trap t ("illegal instruction: " ^ msg))

let record_count t =
  match t.counts with
  | None -> ()
  | Some arr -> (
    match t.sampler with
    | None ->
      let idx = (t.pc - t.text_base) lsr 2 in
      if idx >= 0 && idx < t.text_words then arr.(idx) <- arr.(idx) + 1
    | Some s ->
      t.sample_countdown <- t.sample_countdown - 1;
      if t.sample_countdown <= 0 then begin
        t.sample_countdown <- next_stride t s;
        t.sample_hits <- t.sample_hits + 1;
        let idx = (t.pc - t.text_base) lsr 2 in
        if idx >= 0 && idx < t.text_words then arr.(idx) <- arr.(idx) + 1
      end
      else t.sample_skips <- t.sample_skips + 1)

let rec step t =
  if not t.running then false
  else begin
    (if t.pc >= t.hook_lo && t.pc <= t.hook_hi then
       match Hashtbl.find_opt t.hooks t.pc with
       | Some f ->
         t.hook_invocations <- t.hook_invocations + 1;
         f t
       | None -> exec_one t
     else exec_one t);
    t.running
  end

and exec_one t =
  if t.icount >= t.fuel then trap t "out of fuel";
  let ins = fetch t in
  record_count t;
  t.icount <- t.icount + 1;
  let taken = ref false in
  (match ins with
  | Instr.Nop -> t.pc <- t.pc + 4
  | Instr.Sys code ->
    do_syscall t code;
    taken := false
  | Instr.Lda { ra; rb; disp } ->
    set_reg t ra (Word.add (reg t rb) (Word.of_int disp));
    t.pc <- t.pc + 4
  | Instr.Ldah { ra; rb; disp } ->
    set_reg t ra (Word.add (reg t rb) (Word.of_int (disp lsl 16)));
    t.pc <- t.pc + 4
  | Instr.Opr { op; ra; rb; rc } ->
    let b = match rb with Instr.Reg r -> reg t r | Instr.Imm v -> v in
    set_reg t rc (eval_alu t op (reg t ra) b);
    t.pc <- t.pc + 4
  | Instr.Mem { op = Instr.Ldw; ra; rb; disp } ->
    set_reg t ra (load_word t (Word.to_signed (Word.add (reg t rb) (Word.of_int disp))));
    t.pc <- t.pc + 4
  | Instr.Mem { op = Instr.Stw; ra; rb; disp } ->
    store_word t (Word.to_signed (Word.add (reg t rb) (Word.of_int disp))) (reg t ra);
    t.pc <- t.pc + 4
  | Instr.Mem { op = Instr.Ldb; ra; rb; disp } ->
    set_reg t ra (load_byte t (Word.to_signed (Word.add (reg t rb) (Word.of_int disp))));
    t.pc <- t.pc + 4
  | Instr.Mem { op = Instr.Stb; ra; rb; disp } ->
    store_byte t (Word.to_signed (Word.add (reg t rb) (Word.of_int disp))) (reg t ra);
    t.pc <- t.pc + 4
  | Instr.Cbr { op; ra; disp } ->
    if cond_holds op (reg t ra) then begin
      taken := true;
      t.pc <- t.pc + 4 + (4 * disp)
    end
    else t.pc <- t.pc + 4
  | Instr.Br { ra; disp } | Instr.Bsr { ra; disp } ->
    taken := true;
    set_reg t ra (t.pc + 4);
    t.pc <- t.pc + 4 + (4 * disp)
  | Instr.Jmp { ra; rb; _ } | Instr.Jsr { ra; rb; _ } ->
    taken := true;
    let target = reg t rb in
    set_reg t ra (t.pc + 4);
    t.pc <- target
  | Instr.Ret { ra; rb; _ } ->
    taken := true;
    let target = reg t rb in
    set_reg t ra (t.pc + 4);
    t.pc <- target
  | Instr.Bsrx _ -> trap t "bsrx marker executed (must never reach the pipeline)"
  | Instr.Sentinel -> trap t "sentinel executed");
  t.cycles <- t.cycles + Cost.instr_cost t.cost ins ~taken:!taken

type outcome = {
  exit_code : int;
  output : string;
  icount : int;
  cycles : int;
  hook_invocations : int;
}

let run t =
  while step t do
    ()
  done;
  {
    exit_code = Option.value t.exit_code ~default:0;
    output = Buffer.contents t.output;
    icount = t.icount;
    cycles = t.cycles;
    hook_invocations = t.hook_invocations;
  }
