(** Per-region translation validation of a squashed image
    ([squashc prove]): the prove level of the image gate ({!Verify}).

    For every compressed region, every cache slot the runtime may
    materialise it into, and every block of the region, the prover:

    + decodes the region's slice of the blob with the image's actual
      coder ({!Verify.decode}, the gate's own decode);
    + materialises the decoded stream for the slot through
      {!Rewrite.materialise}, the function the runtime decompressor
      calls — marker expansion through CreateStub, slot-relative
      displacement rebiasing — and re-encodes every word, so a rebias
      that overflows its field is caught here, statically;
    + symbolically executes the original IR block and its materialised
      counterpart over the {!Equiv} word-level domain, and
    + proves that registers, observable effects (stores and system
      calls) and the typed exit match: branch targets resolve to the
      same block (through the buffer offset for intra-region edges,
      through {!Rewrite.block_addrs} for external ones), calls name the
      same callee with the continuation landing on [return_to]'s first
      word, and expanded calls follow the CreateStub protocol shape.

    Entry stubs are checked once, by the gate's own stub check
    ({!Verify.stubs}), with the dead-register fact from the independent
    {!Dataflow.Liveness} solver.

    What is {e assumed} rather than proved (each occurrence is counted
    in [conservative]; see DESIGN.md §6c): the runtime hook contracts
    (decompressor entry and CreateStub restore-stub protocol), the
    correspondence of retained jump-table dispatch (the loaded table
    {e addresses} are proved equivalent; the entries themselves are
    covered by {!Verify}'s dangling-transfer check), and indirect-call
    target sets (the target {e values} are proved equivalent). *)

type fault =
  | Rebias_delta of int
      (** Test-only fault injection: skew the [delta] passed to
          {!Rewrite.materialise} by this many words for every slot above
          0, modelling a decompressor that re-aims external displacements
          wrongly.  The prover must then fail on any region with an
          external transfer proved at slot 1 or higher, and still prove
          slot 0. *)

type report = {
  regions : int;
  slots : int;  (** Cache-slot count the image was proved for. *)
  blocks : int;  (** Region blocks examined (once per slot). *)
  proved : int;  (** Block proofs discharged. *)
  stubs : int;  (** Entry-stub obligation sets discharged. *)
  conservative : int;  (** Assumption applications (see above). *)
  failures : Verify.diag list;
      (** Stub diagnostics ({!Verify.Bad_stub}, {!Verify.Live_stub_reg}),
          streams that do not decode ({!Verify.Stream_mismatch}), and one
          {!Verify.Unproved_region} per block or region that failed at a
          slot, with the slot in its [site] (["main.b3 slot 1"]) and the
          divergence trace in its [message]. *)
}

val run : ?slots:int -> ?fault:fault -> Rewrite.t -> report
(** Prove every region of the image for cache slots [0 .. slots-1]
    (default 1).  Self-contained: decodes from the blob, re-derives
    liveness, and resolves addresses through the image's own maps. *)

val render : report -> string
(** Failures with their divergence traces, or a one-line success
    summary. *)

val report_json : report -> Report.Json.t
