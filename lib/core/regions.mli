(** Compressible-region construction (paper, Section 4).

    Cold blocks are partitioned into regions of bounded decompressed size.
    An initial set of regions is grown by depth-first search over the CFG
    (each tree drawn from a single function, at most [K] bytes of
    instructions); a region is kept only if it is {e profitable} —
    [E < (1 − γ)·I] where [I] is the region's instruction count and [E] the
    instructions its entry stubs will cost.  A greedy packing pass then
    repeatedly merges the pair of regions with the greatest stub savings
    that still fits the bound (packed regions may span functions).

    The module also computes the {e entry points}: the region blocks that
    need an entry stub because control can reach them from outside their
    region — an intra-function CFG predecessor in another region or in
    never-compressed code, a function entry reachable by calls or through a
    taken address, or a target of a retained jump table. *)

type region = {
  id : int;
  blocks : (string * int) list;  (** In buffer-image layout order. *)
}

type t = {
  regions : region array;
  region_of : (string * int, int) Hashtbl.t;
  entries : (string * int, unit) Hashtbl.t;
  rejected_blocks : int;  (** Compressible blocks left out as unprofitable. *)
}

type strategy =
  [ `Dfs  (** The paper's depth-first region growth. *)
  | `Linear  (** Consecutive blocks in layout order (a future-work
                 alternative). *) ]

type packer =
  [ `Incremental
    (** Indexed facts and a candidate-pair heap; after each merge only the
        pairs the merge touched are re-evaluated.  The default. *)
  | `Rescan
    (** Recompute every fact and scan all region pairs each round — the
        executable specification of the greedy merge, quadratic per round.
        Kept as the equivalence-regression reference. *) ]

type params = {
  k_bytes : int;  (** Runtime-buffer size bound, default 512. *)
  gamma : float;  (** Assumed compression factor, default 0.66. *)
  pack : bool;  (** Enable the packing pass. *)
  strategy : strategy;
}

val default_params : params

val build :
  ?packer:packer ->
  Prog.t ->
  compressible:(string -> int -> bool) ->
  params:params ->
  t
(** Both packers produce the same partition; [`Rescan] exists for
    regression tests and before/after timing. *)

val entry_count_if_region : Prog.t -> (string * int) list -> int
(** [E] of the §4 profitability test: how many of [blocks] would need an
    entry stub if they formed one region — the same predicate [build] uses
    both when pricing a tentative region and when computing the final entry
    set. *)

val block_region : t -> string -> int -> int option
val is_entry : t -> string -> int -> bool

val has_compressed : t -> Prog.t -> string -> bool
(** [has_compressed t p f]: whether function [f] of [p] has a block in
    some region of [t] (false when [p] has no function [f]) — the seed of
    the §6.1 buffer-safety analyses. *)

val compressed_instr_count : Prog.t -> t -> int
(** Static instructions inside regions (the paper's "compressible code"
    plotted in Figure 4). *)
