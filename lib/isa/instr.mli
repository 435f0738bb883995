(** SQ32 instructions: decoded form, binary encoding, and the field-stream
    view used by the split-stream compressor.

    SQ32 is a 32-bit fixed-width RISC in the style of the Compaq Alpha:

    - {b operate} format: [op:6 | ra:5 | rb:5 | sbz:4 | func:7 | rc:5], or
      with an 8-bit literal [op:6 | ra:5 | lit:8 | sbz:1 | func:7 | rc:5];
    - {b memory} format: [op:6 | ra:5 | rb:5 | disp:16] (byte displacement,
      signed);
    - {b branch} format: [op:6 | ra:5 | disp:21] (instruction displacement
      relative to the next instruction, signed);
    - {b jump} format: [op:6 | ra:5 | rb:5 | hint:16];
    - {b system} format: [op:6 | sbz:10 | func:16].

    The opcode fully determines which fields an instruction carries, which is
    what lets the compressor merge all per-field codeword streams into a
    single bitstream (paper, Section 3). *)

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

type mem_op = Ldw | Stw | Ldb | Stb

type cond = Eq | Ne | Lt | Le | Gt | Ge
(** Condition of a conditional branch; the tested register is compared
    against zero (signed). *)

type operand =
  | Reg of Reg.t
  | Imm of int  (** Unsigned 8-bit literal, [0, 255]. *)

type t =
  | Sys of int  (** System call; the 16-bit function code selects the call. *)
  | Nop
  | Lda of { ra : Reg.t; rb : Reg.t; disp : int }
      (** [ra := rb + sext16 disp]. *)
  | Ldah of { ra : Reg.t; rb : Reg.t; disp : int }
      (** [ra := rb + (sext16 disp << 16)]. *)
  | Opr of { op : alu_op; ra : Reg.t; rb : operand; rc : Reg.t }
      (** [rc := ra <op> rb]. *)
  | Mem of { op : mem_op; ra : Reg.t; rb : Reg.t; disp : int }
      (** Load/store of [ra] at byte address [rb + sext16 disp]. *)
  | Cbr of { op : cond; ra : Reg.t; disp : int }
      (** Branch if [ra <op> 0], to [pc + 4 + 4*disp]. *)
  | Br of { ra : Reg.t; disp : int }
      (** Unconditional branch; [ra := return address] (use [Reg.zero] to
          discard). *)
  | Bsr of { ra : Reg.t; disp : int }  (** Branch subroutine. *)
  | Bsrx of { ra : Reg.t; disp : int }
      (** Marked call that the decompressor expands into
          [bsr ra, CreateStub ; br target].  Only ever appears in the
          compressed stream; executing it is an illegal-instruction trap. *)
  | Jmp of { ra : Reg.t; rb : Reg.t; hint : int }
      (** [pc := rb]; [ra := return address]. *)
  | Jsr of { ra : Reg.t; rb : Reg.t; hint : int }
  | Ret of { ra : Reg.t; rb : Reg.t; hint : int }  (** [pc := rb]. *)
  | Sentinel
      (** Illegal instruction used to terminate compressed regions. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Binary encoding} *)

exception Encode_error of string * t

val encode : t -> Word.t
(** Encode to a 32-bit word.
    @raise Encode_error if a displacement or literal does not fit its
    field. *)

val decode : Word.t -> (t, string) result
(** Decode a 32-bit word.  [Bsrx] decodes successfully (the decompressor
    needs to read it back from the compressed stream) but the VM refuses to
    execute it. *)

(** {1 Field streams (paper, Section 3)} *)

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

val all_streams : stream list
(** The 15 streams, [Opcode] first. *)

val equal_stream : stream -> stream -> bool

val stream_index : stream -> int
val stream_name : stream -> string

val opcode_value : t -> int
(** The value contributed to the [Opcode] stream.  This is the 6-bit major
    opcode with the literal-form flag folded in for operate instructions, so
    that the opcode alone determines the remaining field kinds. *)

val fields : t -> (stream * int) list
(** The non-opcode field values of an instruction, in a canonical order.
    All values are raw unsigned field patterns (displacements are presented
    as their two's-complement bit patterns). *)

val streams_of_opcode : int -> (stream list, string) result
(** Which streams (beyond [Opcode]) an instruction with the given opcode
    value reads, in the same canonical order as {!fields}. *)

val rebuild : opcode:int -> (stream -> int) -> (t, string) result
(** Reassemble an instruction from its opcode value and a function supplying
    the next value of each stream.  Inverse of {!opcode_value}/{!fields}. *)

(** {1 Branch helpers} *)

val branch_displacement : t -> int option
(** The instruction displacement of a PC-relative control transfer
    ([Cbr]/[Br]/[Bsr]/[Bsrx]), if any. *)

val with_branch_displacement : t -> int -> t
(** Replace the displacement of a PC-relative control transfer.  Returns the
    instruction unchanged if it has no displacement. *)

val is_control_transfer : t -> bool
(** Does this instruction (potentially) transfer control somewhere other
    than the next instruction?  [Sys Exit] is not counted. *)
