type work = { bits : int; steps : int }

module type S = sig
  type model

  val build : Instr.t list array -> model
  val encode_regions : model -> Instr.t list array -> string * int array
  val decode_region : model -> string -> bit_offset:int -> Instr.t list * work
  val table_bits : model -> int
  val stream_stats : model -> (string * int * float) list
  val stream_bits : model -> Instr.t list array -> (string * int) list
end

let stream_count = List.length Instr.all_streams

let stream_of_index =
  let a = Array.make stream_count Instr.Opcode in
  List.iter (fun s -> a.(Instr.stream_index s) <- s) Instr.all_streams;
  a

let opcode_index = Instr.stream_index Instr.Opcode

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

let with_sentinel instrs = instrs @ [ Instr.Sentinel ]

(* Visit every (stream index, value) of an instruction, opcode first. *)
let iter_fields f ins =
  f opcode_index (Instr.opcode_value ins);
  List.iter (fun (s, v) -> f (Instr.stream_index s) v) (Instr.fields ins)

let stream_values regions =
  let values = Array.make stream_count [] in
  Array.iter
    (fun instrs ->
      List.iter
        (iter_fields (fun i v -> values.(i) <- v :: values.(i)))
        (with_sentinel instrs))
    regions;
  Array.map List.rev values

let freqs_of_values vs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    vs;
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [] |> List.sort compare

let render_stream_bits totals =
  List.filter_map
    (fun stream ->
      let b = totals.(Instr.stream_index stream) in
      if b = 0 then None else Some (Instr.stream_name stream, b))
    Instr.all_streams

(* [read] goes straight to [Instr.rebuild], so a decoded instruction costs no
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

(* ------------------------------------------------------------------ *)
(* Move-to-front state: one recency array per stream. *)

module Mtf_state = struct
  type t = int array array  (* per stream; [||] when the stream is absent *)

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
