type label = { name : string; mutable addr : int option }

type fixup =
  | Fix_branch of [ `Br | `Bsr | `Bsrx ] * Reg.t * label
  | Fix_cbranch of Instr.cond * Reg.t * label
  | Fix_addr_word of label
  | Fix_load_hi of Reg.t * label  (* the ldah of a load_addr pair *)
  | Fix_load_lo of Reg.t * label  (* the lda of a load_addr pair *)

type t = {
  base : int;
  mutable words : int array;
  mutable owners : (string * int) option array;
  mutable len : int;  (* words emitted so far *)
  mutable owner : (string * int) option;
  mutable fixups : (int * fixup) list;  (* word index -> fixup *)
}

let create ~base =
  if base land 3 <> 0 then invalid_arg "Easm.create: unaligned base";
  {
    base;
    words = Array.make 1024 0;
    owners = Array.make 1024 None;
    len = 0;
    owner = None;
    fixups = [];
  }

let fresh_label name = { name; addr = None }
let label_at name addr = { name; addr = Some addr }
let address l = l.addr

let here t = t.base + (4 * t.len)

let bind t l =
  match l.addr with
  | Some _ -> invalid_arg (Printf.sprintf "Easm.bind: label %s already bound" l.name)
  | None -> l.addr <- Some (here t)

let set_owner t o = t.owner <- o

let grow t =
  if t.len = Array.length t.words then begin
    let words = Array.make (2 * t.len) 0 in
    let owners = Array.make (2 * t.len) None in
    Array.blit t.words 0 words 0 t.len;
    Array.blit t.owners 0 owners 0 t.len;
    t.words <- words;
    t.owners <- owners
  end

let word t w =
  grow t;
  t.words.(t.len) <- w land Word.mask;
  t.owners.(t.len) <- t.owner;
  t.len <- t.len + 1

let instr t i = word t (Instr.encode i)

let push_fixup t f =
  t.fixups <- (t.len, f) :: t.fixups;
  word t 0

let branch t kind ra l = push_fixup t (Fix_branch (kind, ra, l))
let cbranch t cond ra l = push_fixup t (Fix_cbranch (cond, ra, l))
let addr_word t l = push_fixup t (Fix_addr_word l)

let load_addr t ra l =
  push_fixup t (Fix_load_hi (ra, l));
  push_fixup t (Fix_load_lo (ra, l))

let split_addr a =
  let lo = Word.sign_extend ~width:16 a in
  let hi = (a - lo) asr 16 in
  (hi, lo)

let split_const v =
  let v = v land Word.mask in
  let lo = Word.sign_extend ~width:16 v in
  (* Round the high half up when the low half is negative; the [ldah]'s
     16-bit field wraps modulo 2^16, so 0x7fff_ffff becomes
     [ldah -32768 ; lda -1] and reassembles correctly under 32-bit
     arithmetic. *)
  let hi = Word.sign_extend ~width:16 (((v lsr 16) + ((v lsr 15) land 1)) land 0xFFFF) in
  (hi, lo)

type image = {
  words : int array;
  owners : (string * int) option array;
}

let finish (t : t) =
  let target l =
    match l.addr with
    | Some a -> a
    | None -> failwith (Printf.sprintf "Easm: unbound label %s" l.name)
  in
  let disp_to idx l =
    let pc_next = t.base + (4 * (idx + 1)) in
    let d = target l - pc_next in
    if d land 3 <> 0 then failwith "Easm: unaligned branch target";
    d asr 2
  in
  List.iter
    (fun (idx, fix) ->
      let w =
        match fix with
        | Fix_branch (`Br, ra, l) -> Instr.encode (Instr.Br { ra; disp = disp_to idx l })
        | Fix_branch (`Bsr, ra, l) ->
          Instr.encode (Instr.Bsr { ra; disp = disp_to idx l })
        | Fix_branch (`Bsrx, ra, l) ->
          Instr.encode (Instr.Bsrx { ra; disp = disp_to idx l })
        | Fix_cbranch (op, ra, l) ->
          Instr.encode (Instr.Cbr { op; ra; disp = disp_to idx l })
        | Fix_addr_word l -> target l land Word.mask
        | Fix_load_hi (ra, l) ->
          let hi, _ = split_addr (target l) in
          Instr.encode (Instr.Ldah { ra; rb = Reg.zero; disp = hi })
        | Fix_load_lo (ra, l) ->
          let _, lo = split_addr (target l) in
          Instr.encode (Instr.Lda { ra; rb = ra; disp = lo })
      in
      t.words.(idx) <- w)
    t.fixups;
  {
    words = Array.sub t.words 0 t.len;
    owners = Array.sub t.owners 0 t.len;
  }
