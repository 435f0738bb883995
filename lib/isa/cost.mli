(** Cycle-cost model for SQ32.

    The model is deliberately simple — a per-class latency table in the style
    of an in-order embedded core — because the paper's Figure 7(b) only needs
    relative execution times.  The decompressor's dynamic cost is derived
    from the same table (see {!Pgcc.Runtime}). *)

type model = {
  alu : int;  (** add/sub/logical/compare/shift/lda/ldah *)
  mul : int;
  div : int;  (** div/rem *)
  mem : int;  (** load/store *)
  branch : int;  (** not-taken conditional branch *)
  branch_taken : int;  (** taken branches, jumps, calls, returns *)
  syscall : int;
  (* Decompressor cost parameters: *)
  decomp_invoke : int;
      (** Fixed overhead per decompressor call: register save/restore,
          argument unpacking, dispatch. *)
  decomp_per_bit : int;  (** Cycles per bit consumed by the DECODE loop. *)
  decomp_per_step : int;
      (** Cycles per model step beyond bit consumption: decode-table
          probes, move-to-front recency-list walks, context-table
          selections. *)
  decomp_per_instr : int;
      (** Cycles per instruction materialised into the runtime buffer
          (field reassembly + store). *)
  decomp_cache_hit : int;
      (** Flat cost of a decompressor entry that finds its region already
          resident in a buffer slot: dispatch, tag load, residency check
          and the jump back into the buffer — no decoding, no stores, no
          cache flush. *)
  icache_flush : int;  (** Flat cost of the post-decompression cache flush. *)
  stub_invoke : int;
      (** Flat cost of one CreateStub call (paper, Fig. 2): hash the
          (region, return address) key, bump or initialise a stub slot and
          redirect the return register.  Previously hard-coded at its
          default of 20 inside the runtime; a field so sweeps can vary
          it. *)
}

val default : model

val instr_cost : model -> Instr.t -> taken:bool -> int
(** Cycles charged for executing one instruction.  [taken] matters only for
    conditional branches. *)
