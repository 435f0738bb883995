(** The image gate: whole-image static verification of a squashed
    executable ([squashc lint]), with one typed diagnostic for every check
    the repository makes of an image.

    The gate has three levels, each containing the one before:

    + {b structure} ({!structure}): the mechanical facts a loader would
      check — the layout, the entry stubs and the compressed streams.
      [Pipeline.execute ~check_each:true] runs this level after every
      pass once an image exists.
    + {b lint} ({!run}): structure plus the semantic invariants the
      rewrite relies on, proved without executing anything.
    + {b prove} ([Prove.run]): translation validation of every region
      block at every cache slot.  It reuses this module's stub check
      ({!stubs}) and decode ({!decode}) and reports through the same
      {!diag} type.

    The kinds:

    - {b layout} ({!Bad_layout}): the function offset table has one entry
      per region, each inside the blob and in ascending order; every
      region fits the allocated buffer less its two spare words; the
      footprint parts sum to [Rewrite.total_words].
    - {b stubs} ({!Bad_stub}): every entry stub decodes to the 2- or
      3-word form, its [bsr] targets the decompressor entry matching its
      return-address register, and its tag names a real region and the
      correct instruction-boundary offset of its block in that region's
      image.
    - {b stub registers} ({!Live_stub_reg}): the return-address register
      of every 2-word stub is dead at its block's entry, per an
      independent liveness analysis ({!Dataflow.Liveness}) — deliberately
      not the {!Cfg.liveness} the rewrite itself consulted.
    - {b streams} ({!Stream_mismatch}): every region's slice of the
      compressed blob decodes — under whichever coder built the image —
      back to exactly the region image's instruction stream, without
      raising and with non-negative reported work.
    - {b transfers} ({!Dangling_transfer}): no surviving branch,
      fall-through, call, jump-table entry or materialised code address
      targets the {e interior} of a removed region — every such target is
      either never-compressed code or a region entry (which is where the
      stub lives).  Intra-region edges and calls to a callee wholly inside
      the same region are exempt, exactly mirroring the rewrite's plan.
    - {b unchanged calls} ({!Unsafe_call}): every plain [bsr] the rewrite
      left in compressed code (the Section 6.1 optimisation) targets a
      known function entry whose callee is buffer-safe under the sharpened
      analysis ({!Buffer_safe.analyze_sharp}).  Since the sharpened safe
      set contains the conservative one, images built with either analysis
      verify.
    - {b unresolved indirection} ({!Unresolved_indirect}, warning): an
      indirect call whose candidate set is empty — no function's address
      is ever taken — cannot be verified further and would trap at run
      time.
    - {b dead surviving code} ({!Unreachable_code}, warning): a block the
      rewrite emitted into the text (or a whole surviving function) that
      is unreachable — function-level over the callgraph with the
      {!Consts}-resolved indirect edges, block-level via a forward
      {!Dataflow} reachability client.
    - {b unproved regions} ({!Unproved_region}): produced only by the
      prove level, one per region block (or whole region) that could not
      be proved at some cache slot. *)

type severity = Error | Warning

type kind =
  | Bad_stub
  | Dangling_transfer
  | Live_stub_reg
  | Unsafe_call
  | Unresolved_indirect
  | Stream_mismatch
  | Unreachable_code
  | Unproved_region
  | Bad_layout

type diag = {
  severity : severity;
  kind : kind;
  site : string;
      (** Where: ["func.b3"], ["func.table0[2]"], ["region 1 @ 7"],
          ["offset table"]; the prove level appends the cache slot, as in
          ["func.b3 slot 1"]. *)
  region : int option;  (** Region id the diagnostic is about, if any. *)
  addr : int option;  (** Byte address in the image, when one is known. *)
  message : string;
}

val structure : Rewrite.t -> diag list
(** The structure level: layout, entry stubs and streams, in that order. *)

val run : Rewrite.t -> diag list
(** The lint level: {!structure} followed by the semantic checks, in
    discovery order.  Self-contained: recomputes the address-taken set,
    the sharpened buffer-safe analysis and the liveness facts from the
    image's own program and regions. *)

val stubs : Rewrite.t -> diag list * int
(** The entry-stub obligations alone ({!Bad_stub}, {!Live_stub_reg}), and
    how many stubs discharged all of them. *)

val decode : Rewrite.t -> int -> (Instr.t list, diag) result
(** [decode sq rid]: region [rid]'s slice of the blob, decoded with the
    image's coder, or the {!Stream_mismatch} diagnostic saying why it does
    not decode.  It does not compare the result with the region image. *)

val errors : diag list -> diag list
(** The [Error]-severity subset ([squashc lint] exits 1 when non-empty). *)

val kind_name : kind -> string
(** Stable kebab-case name: ["bad-stub"], ["dangling-transfer"], … *)

val severity_name : severity -> string
val message : diag -> string
(** One-line rendering: ["error bad-stub @ site: …"]. *)

val render : diag list -> string
(** Aligned text table of the diagnostics. *)

val to_json : diag list -> Report.Json.t
(** [[{"severity": …, "kind": …, "site": …, "region": …, "addr": …,
    "message": …}, …]]; [region]/[addr] are [null] when unknown. *)
