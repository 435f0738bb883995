exception Invalid_code of string

type t = {
  n : int array;  (* n.(i) = number of codewords of length i; n.(0) = 0 *)
  d : int array;  (* symbols in codeword order *)
  enc : (int, int * int) Hashtbl.t;
  max_len : int;
  tab_bits : int;  (* probe width of the decode table; 0 iff the code is empty *)
  tab_sym : int array;  (* 2^tab_bits entries: symbol for each probe value *)
  tab_len : int array;  (* codeword length; 0 = longer than tab_bits (slow path) *)
}

(* Codeword lengths must fit the Kraft arithmetic below and the shipped
   table format (16-bit N entries behind a 6-bit count). *)
let max_code_len = 48
let default_table_bits = 9

let of_lengths lengths =
  let sorted = List.sort (fun (s1, l1) (s2, l2) -> compare (l1, s1) (l2, s2)) lengths in
  let max_len = List.fold_left (fun acc (_, l) -> max acc l) 0 sorted in
  let n = Array.make (max_len + 1) 0 in
  List.iter
    (fun (_, l) ->
      if l < 1 || l > max_code_len then
        raise
          (Invalid_code (Printf.sprintf "Canonical.of_lengths: length %d out of range" l));
      n.(l) <- n.(l) + 1)
    sorted;
  (* Kraft inequality in units of 2^-max_code_len: an over-full length
     multiset would assign overlapping codewords and decode wrong symbols,
     so it must be rejected here, not discovered at decode time.  Under-full
     codes are legal — a single-symbol alphabet gets one length-1 codeword
     (sum 1/2) and the unused codeword space simply decodes as corrupt. *)
  let kraft = List.fold_left (fun acc (_, l) -> acc + (1 lsl (max_code_len - l))) 0 sorted in
  if kraft > 1 lsl max_code_len then
    raise (Invalid_code "Canonical.of_lengths: lengths violate the Kraft inequality");
  let d = Array.of_list (List.map fst sorted) in
  (* First codeword of each length: b.(1) = 0, b.(i) = 2 (b.(i-1) + n.(i-1)). *)
  let b = Array.make (max_len + 2) 0 in
  for i = 2 to max_len do
    b.(i) <- 2 * (b.(i - 1) + n.(i - 1))
  done;
  let enc = Hashtbl.create (Array.length d) in
  let next = Array.copy b in
  List.iter
    (fun (s, l) ->
      Hashtbl.replace enc s (next.(l), l);
      next.(l) <- next.(l) + 1)
    sorted;
  (* The code-length-limited decode table: every probe value whose first
     bits are a codeword of length ≤ tab_bits resolves in one lookup; the
     rest fall back to the bit loop.  Kraft validation above guarantees the
     fill never collides. *)
  let tab_bits = min max_len default_table_bits in
  let tab_sym = Array.make (1 lsl tab_bits) 0 in
  let tab_len = Array.make (1 lsl tab_bits) 0 in
  List.iter
    (fun (s, l) ->
      if l <= tab_bits then begin
        let code, _ = Hashtbl.find enc s in
        let base = code lsl (tab_bits - l) in
        for i = base to base + (1 lsl (tab_bits - l)) - 1 do
          tab_sym.(i) <- s;
          tab_len.(i) <- l
        done
      end)
    sorted;
  { n; d; enc; max_len; tab_bits; tab_sym; tab_len }

let of_freqs freqs = of_lengths (Huffman.code_lengths freqs)
let symbol_count t = Array.length t.d
let max_length t = t.max_len
let symbols t = Array.copy t.d
let codeword t s = Hashtbl.find_opt t.enc s

let encode t w s =
  match Hashtbl.find_opt t.enc s with
  | Some (code, len) -> Bitio.Writer.put w ~bits:len code
  | None -> invalid_arg (Printf.sprintf "Canonical.encode: symbol %d not in alphabet" s)

(* The paper's DECODE(), with N.(0) = 0:
     v <- 0, b <- 0, j <- 0, i <- 0
     do  v <- 2v + NEXTBIT(); b <- 2(b + N[i]); j <- j + N[i]; i <- i + 1
     while (v >= b + N[i])
     return D[j + v - b]                                                   *)
let decode_bitloop t r =
  if Array.length t.d = 0 then raise (Bitio.Corrupt_stream "Canonical.decode: empty code");
  let v = ref 0 and b = ref 0 and j = ref 0 and i = ref 0 in
  let continue = ref true in
  while !continue do
    v := (2 * !v) + Bitio.Reader.next_bit r;
    b := 2 * (!b + t.n.(!i));
    j := !j + t.n.(!i);
    incr i;
    if !v < !b + t.n.(!i) then continue := false
    else if !i >= t.max_len then
      raise (Bitio.Corrupt_stream "Canonical.decode: corrupt stream")
  done;
  (t.d.(!j + !v - !b), !i)

(* Table-driven decode: one probe resolves any codeword of length ≤
   tab_bits; longer codewords (and the codeword space an under-full code
   leaves unmapped) fall back to the bit loop.  Probes are reported so the
   cycle model can keep charging real decode work ([Cost.decomp_per_step]):
   a hit costs 1 step, a fallback costs the failed probe plus one step per
   bit the loop consumes. *)
let decode t r =
  if Array.length t.d = 0 then raise (Bitio.Corrupt_stream "Canonical.decode: empty code");
  let w = Bitio.Reader.peek r ~bits:t.tab_bits in
  let len = t.tab_len.(w) in
  if len > 0 then begin
    Bitio.Reader.advance r ~bits:len;
    (t.tab_sym.(w), len, 1)
  end
  else
    let sym, bits = decode_bitloop t r in
    (sym, bits, 1 + bits)

let table_bits ~value_bits t = 6 + (16 * t.max_len) + (value_bits * Array.length t.d)
