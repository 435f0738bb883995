(** Intraprocedural constant and code-address propagation, and the
    indirect-target resolution built on it (paper, Sections 6.1–6.2).

    A forward {!Dataflow} client tracks, per register, a flat lattice of
    integer constants and code addresses: a [Load_addr] of a function
    yields {!Code}, a [Load_addr] of a jump table yields {!Table_base},
    address arithmetic on a table base stays within the table
    ({!Table_slot}), and a word loaded through it is one of the table's
    entries ({!Table_entry}).  Anything else collapses to {!Top}.

    Two consumers:

    - {b indirect calls}: a site whose target register holds [Code g]
      calls exactly [g]; otherwise the candidate set is the program's
      address-taken functions.  This is sound under the IR's closed-world
      assumption — indirectly callable code addresses only ever originate
      from [Load_addr (_, Func_addr _)] items, which is what
      {!Cfg.Callgraph.address_taken} records.
    - {b indirect jumps}: a [Jump_indirect { table = None; _ }] whose
      target register provably holds a word fetched from jump table [t]
      dispatches to exactly the entries of [t] — the same "analysable"
      shape the [table = Some _] annotation asserts — so the annotation
      can be reconstructed ({!resolve_tables}), tightening
      {!Prog.successors}/{!Cfg.preds} from "every block" to the table's
      entries. *)

type value =
  | Bot  (** Unreached. *)
  | Int of int  (** Known 32-bit constant. *)
  | Code of string  (** Entry address of the named function. *)
  | Table_base of int  (** Address of this function's jump table [tid]. *)
  | Table_slot of int  (** [Table_base tid] plus an unknown offset. *)
  | Table_entry of int  (** A word loaded from jump table [tid]. *)
  | Top  (** Unknown. *)

val pp_value : Format.formatter -> value -> unit

type t
(** Per-function analysis result: a register environment at every block
    entry. *)

val analyze : Prog.Func.t -> t

val call_target : t -> int -> [ `Exact of string | `Unknown ]
(** Resolution of the indirect call terminating block [i]; [`Unknown] if
    the block does not end in [Call_indirect]. *)

val jump_table : t -> int -> int option
(** The jump table an un-annotated [Jump_indirect] terminating block [i]
    provably dispatches through, if the analysis can prove one. *)

(** {1 Whole-program consumers} *)

val address_taken : Prog.t -> string list
(** Functions whose address is materialised anywhere in the program
    (sorted) — the candidate set of any unresolved indirect call. *)

type call_site = {
  caller : string;
  block : int;
  resolution : [ `Exact of string | `Fallback of string list ];
      (** [`Exact g]: the site provably calls [g]; [`Fallback candidates]:
          any address-taken function ([candidates] is {!address_taken}). *)
}

val indirect_call_sites : Prog.t -> call_site list

val resolve_tables : Prog.t -> Prog.t * (string * int) list
(** Rewrite every provable [Jump_indirect { table = None; _ }] to carry
    its table id; returns the rewritten program and the [(function,
    block)] sites changed.  Sound tightening only: unprovable sites are
    left alone. *)

val annotate_callgraph : Prog.t -> Cfg.Callgraph.t -> unit
(** Record the resolved indirect-call edges
    ({!Cfg.Callgraph.indirect_callees}) on a callgraph of the same
    program: per caller, the union over its indirect sites of each site's
    candidate set. *)
