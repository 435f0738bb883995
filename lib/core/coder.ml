type work = { bits : int; steps : int }

type ccode = {
  default : Canonical.t option;
  dedicated : (int * Canonical.t) array;
}

type model = { per_stream : ccode option array; alphabets : int array array }

let stream_count = List.length Instr.all_streams

let stream_of_index =
  let a = Array.make stream_count Instr.Opcode in
  List.iter (fun s -> a.(Instr.stream_index s) <- s) Instr.all_streams;
  a

let opcode_index = Instr.stream_index Instr.Opcode
let sentinel_op = Instr.opcode_value Instr.Sentinel
let stream_name si = Instr.stream_name stream_of_index.(si)

(* Field width of each stream, for storing D entries. *)
let stream_value_bits = function
  | Instr.Opcode -> 6
  | Instr.Mem_ra | Instr.Mem_rb | Instr.Br_ra | Instr.Op_ra | Instr.Op_rb
  | Instr.Op_rc | Instr.Jmp_ra | Instr.Jmp_rb ->
    5
  | Instr.Mem_disp | Instr.Jmp_hint | Instr.Sys_func -> 16
  | Instr.Br_disp -> 21
  | Instr.Op_lit -> 8
  | Instr.Op_func -> 7

let no_alphabets = Array.make stream_count [||]

let freqs_of_values vs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    vs;
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Move-to-front state: one recency array per stream. *)

module Mtf_state = struct
  type t = int array array  (* per stream; [||] when it is coded by value *)

  let create (alphabets : int array array) : t = Array.map Array.copy alphabets

  let reset t (alphabets : int array array) =
    Array.iteri (fun i a -> Array.blit a 0 t.(i) 0 (Array.length a)) alphabets

  (* Shift ranks [0, r) down one and put [v] at the front. *)
  let to_front (a : int array) r v =
    for j = r downto 1 do
      a.(j) <- a.(j - 1)
    done;
    a.(0) <- v

  let rank_of t si v =
    let a = t.(si) in
    let n = Array.length a in
    let rec find i = if i >= n then -1 else if a.(i) = v then i else find (i + 1) in
    let r = find 0 in
    if r < 0 then failwith "Coder: MTF symbol not in alphabet";
    to_front a r v;
    r

  let value_at t si rank =
    let a = t.(si) in
    if rank < 0 || rank >= Array.length a then
      raise (Bitio.Corrupt_stream "Coder: MTF rank out of range");
    let v = a.(rank) in
    to_front a rank v;
    v
end

(* ------------------------------------------------------------------ *)
(* The symbol walk and code selection. *)

(* The walk recurses over the lists itself rather than through [List.iter]
   closures, so it allocates nothing per instruction. *)
let iter_symbols ~alphabets ?(at_region = ignore) f regions =
  let state = Mtf_state.create alphabets in
  let symbol si v =
    if Array.length alphabets.(si) = 0 then v else Mtf_state.rank_of state si v
  in
  let rec fields op = function
    | [] -> ()
    | (s, v) :: rest ->
      let si = Instr.stream_index s in
      f si op (symbol si v);
      fields op rest
  in
  (* [prev] is the previous opcode: the context of this one. *)
  let instr prev ins =
    let op = Instr.opcode_value ins in
    f opcode_index prev (symbol opcode_index op);
    fields op (Instr.fields ins);
    op
  in
  let rec instrs prev = function
    | [] -> ignore (instr prev Instr.Sentinel)
    | ins :: rest -> instrs (instr prev ins) rest
  in
  Array.iteri
    (fun i region ->
      at_region i;
      Mtf_state.reset state alphabets;
      instrs sentinel_op region)
    regions

let no_code si ctx =
  raise
    (Bitio.Corrupt_stream
       (Printf.sprintf "Coder: no code for context %d of stream %s" ctx (stream_name si)))

(* Index of [ctx]'s dedicated code from [i] on, or -1. *)
let rec find_from (dedicated : (int * Canonical.t) array) ctx i =
  if i >= Array.length dedicated then -1
  else if fst dedicated.(i) = ctx then i
  else find_from dedicated ctx (i + 1)

(* Small enough to inline, so a stream with no dedicated code (every stream
   of the paper's coder) pays no call on the decode path. *)
let[@inline] find_dedicated cc ctx =
  if Array.length cc.dedicated = 0 then -1 else find_from cc.dedicated ctx 0

(* The dedicated code at index [d], or the default one when [d < 0]. *)
let[@inline] code_at cc si ctx d =
  if d >= 0 then snd cc.dedicated.(d)
  else match cc.default with Some code -> code | None -> no_code si ctx

let[@inline] ccode per_stream si ctx =
  match per_stream.(si) with Some cc -> cc | None -> no_code si ctx

let code_for cc si ctx = code_at cc si ctx (find_dedicated cc ctx)

let code_tables_bits ~value_bits cc =
  Array.fold_left
    (fun acc (_, c) -> acc + Canonical.table_bits ~value_bits c)
    (match cc.default with None -> 0 | Some c -> Canonical.table_bits ~value_bits c)
    cc.dedicated

(* ------------------------------------------------------------------ *)
(* Encode, decode and accounting. *)

let encode_regions model regions =
  let w = Bitio.Writer.create () in
  let offsets = Array.make (Array.length regions) 0 in
  iter_symbols ~alphabets:model.alphabets
    ~at_region:(fun i -> offsets.(i) <- Bitio.Writer.length_bits w)
    (fun si ctx sym ->
      Canonical.encode (code_for (ccode model.per_stream si ctx) si ctx) w sym)
    regions;
  (Bitio.Writer.contents w, offsets)

(* Reads an opcode, then the fields it implies, until the sentinel.  [read]
   goes straight to [Instr.rebuild], so a decoded instruction costs no
   closure and each symbol one call. *)
let decode_instrs read =
  let rec go acc =
    let opcode = read Instr.Opcode in
    match Instr.rebuild ~opcode read with
    | Error msg -> raise (Bitio.Corrupt_stream ("Coder.decode_instrs: " ^ msg))
    | Ok Instr.Sentinel -> List.rev acc
    | Ok ins -> go (ins :: acc)
  in
  go []

let decode_region { per_stream; alphabets } blob ~bit_offset =
  let r = Bitio.Reader.of_string ~start_bit:bit_offset blob in
  let bits = ref 0 and steps = ref 0 in
  (* The last opcode read: the context of an opcode and of its fields. *)
  let ctx = ref sentinel_op in
  (* The recency lists are built at the region's first move-to-front
     symbol, so a model without one never builds them. *)
  let state = lazy (Mtf_state.create alphabets) in
  let read stream =
    let si = Instr.stream_index stream in
    let cc = ccode per_stream si !ctx in
    let d = find_dedicated cc !ctx in
    let sym, b, probes = Canonical.decode (code_at cc si !ctx d) r in
    bits := !bits + b;
    (* Decode-table probes, plus one step to select a dedicated table;
       walking a recency list costs rank steps. *)
    steps := !steps + probes + (if d >= 0 then 1 else 0);
    let v =
      if Array.length alphabets.(si) = 0 then sym
      else begin
        steps := !steps + sym;
        Mtf_state.value_at (Lazy.force state) si sym
      end
    in
    (match stream with Instr.Opcode -> ctx := v | _ -> ());
    v
  in
  let instrs = decode_instrs read in
  (instrs, { bits = !bits; steps = !steps })

let stream_stats { per_stream; _ } =
  List.filter_map
    (fun stream ->
      match per_stream.(Instr.stream_index stream) with
      | None -> None
      | Some cc ->
        let codes =
          Option.to_list cc.default @ Array.to_list (Array.map snd cc.dedicated)
        in
        let fold f = List.fold_left f 0 codes in
        let symbols = fold (fun a c -> a + Canonical.symbol_count c) in
        let max_len = fold (fun a c -> max a (Canonical.max_length c)) in
        Some (Instr.stream_name stream, symbols, float_of_int max_len))
    Instr.all_streams

let stream_bits model regions =
  let totals = Array.make stream_count 0 in
  iter_symbols ~alphabets:model.alphabets
    (fun si ctx sym ->
      let code = code_for (ccode model.per_stream si ctx) si ctx in
      match Canonical.codeword code sym with
      | Some (_, len) -> totals.(si) <- totals.(si) + len
      | None -> failwith ("Coder: symbol outside the alphabet of " ^ stream_name si))
    regions;
  List.filter_map
    (fun stream ->
      let b = totals.(Instr.stream_index stream) in
      if b = 0 then None else Some (Instr.stream_name stream, b))
    Instr.all_streams
