type t = int

let count = 32
let zero = 31
let sp = 30
let ra = 26
let rv = 0
let stub_scratch = 25
let args = [ 16; 17; 18; 19; 20; 21 ]
let temps = [ 1; 2; 3; 4; 5; 6; 7; 8; 22; 23; 24 ]
let saved = [ 9; 10; 11; 12; 13; 14; 15 ]
let is_valid r = r >= 0 && r < count
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b

let name r =
  match r with
  | 0 -> "v0"
  | 25 -> "t12"
  | 26 -> "ra"
  | 27 -> "pv"
  | 28 -> "at"
  | 29 -> "gp"
  | 30 -> "sp"
  | 31 -> "zero"
  | r when r >= 1 && r <= 8 -> Printf.sprintf "t%d" (r - 1)
  | r when r >= 9 && r <= 15 -> Printf.sprintf "s%d" (r - 9)
  | r when r >= 16 && r <= 21 -> Printf.sprintf "a%d" (r - 16)
  | r when r >= 22 && r <= 24 -> Printf.sprintf "t%d" (r - 14)
  | r -> Printf.sprintf "r%d" r

let table = List.init count (fun r -> (name r, r))

let of_name s =
  match List.assoc_opt s table with
  | Some r -> Some r
  | None ->
    if String.length s >= 2 && s.[0] = 'r' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some r when is_valid r -> Some r
      | Some _ | None -> None
    else None

let pp ppf r = Format.pp_print_string ppf (name r)
