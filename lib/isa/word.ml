type t = int

exception Division_trap

let mask = 0xFFFF_FFFF
let of_int v = v land mask

let to_signed v =
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let add a b = (a + b) land mask
let sub a b = (a - b) land mask
let mul a b = (a * b) land mask

let sdiv a b =
  let sb = to_signed b in
  if sb = 0 then raise Division_trap
  else of_int (to_signed a / sb)

let srem a b =
  let sb = to_signed b in
  if sb = 0 then raise Division_trap
  else of_int (to_signed a mod sb)

let logand a b = a land b
let logor a b = a lor b
let logxor a b = a lxor b
let lognot a = lnot a land mask

let shift_left a n = (a lsl (n land 31)) land mask
let shift_right_logical a n = a lsr (n land 31)
let shift_right_arith a n = of_int (to_signed a asr (n land 31))

let eq a b = a = b
let slt a b = to_signed a < to_signed b
let sle a b = to_signed a <= to_signed b
let ult a b = a < b
let ule a b = a <= b

let sign_extend ~width v =
  let v = v land ((1 lsl width) - 1) in
  if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

let zero_extend ~width v = v land ((1 lsl width) - 1)

let fits_signed ~width v =
  let bound = 1 lsl (width - 1) in
  v >= -bound && v < bound

let fits_unsigned ~width v = v >= 0 && v < 1 lsl width

let pp ppf v = Format.fprintf ppf "0x%04x_%04x" (v lsr 16) (v land 0xFFFF)
