(** Finite closure spaces: the Kuratowski axioms as executable checks.

    Section 2.2 of the paper defines a {e topological-closure operator} by
    four axioms — [cl ∅ = ∅], extensivity, idempotence, and distribution
    over binary unions — and recalls that such an operator defines a
    topology whose closed sets are the fixpoints. The paper's contribution
    3 is that its lattice framework {e drops} the union axiom; this module
    makes the gap measurable: {!is_topological} vs
    {!is_lattice_closure}.

    Carriers are finite (points [0 .. size-1]); subsets are bitmasks. *)

type t = {
  size : int;  (** number of points; at most 20 *)
  cl : int -> int;  (** on subset bitmasks *)
}

val make : size:int -> cl:(int -> int) -> t

(** {1 Axiom checks} *)

type verdict = (unit, string * int list) result
(** [Error (axiom, witness_masks)] names the failed axiom. *)

val is_extensive : t -> verdict
val is_idempotent : t -> verdict
val is_monotone : t -> verdict
val preserves_union : t -> verdict

val is_lattice_closure : t -> verdict
(** Extensive + idempotent + monotone: the paper's (and Section 3's)
    notion. *)

val is_topological : t -> verdict
(** All four Kuratowski axioms. Implies {!is_lattice_closure}
    (monotonicity follows from the union axiom). *)

val closed_sets : t -> int list
(** Fixpoint subsets, sorted. For a topological closure these are closed
    under finite unions and intersections and form the closed sets of a
    topology. *)

val closed_under_union : t -> bool
val closed_under_intersection : t -> bool

(** {1 Stock spaces} *)

val discrete : int -> t
(** Every set closed ([cl = id]). *)

val indiscrete : int -> t
(** Only [∅] and the whole carrier closed. *)

val from_closed_sets : size:int -> closed:int list -> t
(** The coarsest closure whose closed sets include the given masks and the
    full carrier: [cl s] is the intersection of the closed supersets of
    [s]. A lattice closure by construction; topological iff the closed
    family is union-closed and contains [∅]. *)

val lcl_on_lassos :
  max_prefix:int -> max_cycle:int -> alphabet:int -> t * Sl_word.Lasso.t array
(** The linear-time closure [lcl], sampled: the carrier is the canonical
    lasso grid, and [cl S] keeps a lasso iff each of its finite prefixes
    (up to the grid's horizon) is a prefix of some member of [S]. Returns
    the space and the lasso denoted by each point. The test suite checks
    that this space is {e topological} — the executable shadow of "lcl is
    a topological-closure operator on Σ^ω". *)
