(** 32-bit machine arithmetic on top of OCaml's native [int].

    All values of type {!t} are kept in canonical unsigned form, i.e. in the
    range [0, 2{^32}).  Signed interpretation is obtained with {!to_signed}.
    Division by zero raises {!Division_trap}, which the VM turns into a
    machine trap. *)

type t = int
(** A 32-bit word in canonical unsigned form. *)

exception Division_trap

val mask : int
(** [0xFFFF_FFFF]. *)

val of_int : int -> t
(** Truncate an OCaml int to 32 bits. *)

val to_signed : t -> int
(** Signed (two's-complement) value in [-2{^31}, 2{^31}). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val sdiv : t -> t -> t
(** Signed division truncating toward zero.  @raise Division_trap on zero
    divisor. *)

val srem : t -> t -> t
(** Signed remainder (sign follows the dividend).  @raise Division_trap on
    zero divisor. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
(** Shift count is taken modulo 32. *)

val shift_right_logical : t -> int -> t
val shift_right_arith : t -> int -> t

val eq : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool
val ult : t -> t -> bool
val ule : t -> t -> bool

val sign_extend : width:int -> int -> int
(** [sign_extend ~width v] interprets the low [width] bits of [v] as a
    two's-complement value and returns it as an OCaml int. *)

val zero_extend : width:int -> int -> int
(** Keep only the low [width] bits. *)

val fits_signed : width:int -> int -> bool
(** Does [v] fit in a signed field of [width] bits? *)

val fits_unsigned : width:int -> int -> bool

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, e.g. [0x0001_f00d]. *)
