(** Profile lifecycle operations.

    A production profile pipeline rarely ships the exact counts of a
    single run: it merges profiles from many inputs (weighted by traffic
    share), ages out profiles from old releases (exponential decay),
    truncates before shipping, and needs a distance metric
    to decide when a deployed profile has drifted far enough to
    re-profile.  These operations all return {!Profile.t} values whose
    {!Profile.source} is [Derived] with a human-readable recipe, so
    downstream cache keys distinguish them from exact profiles. *)

val merge : ?w:float -> Profile.t -> Profile.t -> Profile.t
(** [merge ~w a b] is [a + w·b] pointwise (counts rounded to nearest;
    all-zero entries dropped).  [w] defaults to 1.0 — the plain sum, like
    {!Profile.merge} but with [Derived] provenance.
    @raise Invalid_argument if [w < 0]. *)

val decay : Profile.t -> factor:float -> Profile.t
(** Exponential aging: scale every frequency and weight by [factor]
    (rounded to nearest; entries decayed to zero are dropped).  Apply [n]
    times for a profile [n] releases stale.  [decay ~factor:1.0] is the
    identity on entries.  @raise Invalid_argument unless [0 ≤ factor ≤ 1]. *)

val truncate_top : Profile.t -> keep:int -> Profile.t
(** Keep only the [keep] heaviest blocks (ties broken by key order, so
    the result is deterministic); the total becomes the kept weight sum. *)

val distance : Profile.t -> Profile.t -> float
(** Total-variation distance between the normalised block-weight
    distributions: [½ Σ |a_k/A − b_k/B|], in [0, 1] — 0 for identically
    distributed profiles (scaling-invariant), 1 for disjoint support.
    Two empty profiles are at distance 0; an empty vs. a non-empty
    profile is at distance 1. *)

val overlap : Profile.t -> Profile.t -> float
(** [1 − distance]. *)
