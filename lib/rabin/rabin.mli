module Ftree = Sl_tree.Ftree
module Rtree = Sl_tree.Rtree

(** Rabin tree automata on k-ary infinite trees (Section 4.4 of the
    paper).

    A Rabin automaton is [(Σ, Q, q0, δ, Φ)] with [δ : Q × Σ → P(Q^k)] and
    [Φ] a list of (green, red) pairs; a run is accepting iff every path
    satisfies some pair — greens recur, reds eventually stop.

    Decision procedures implemented here:

    - {!accepts} on {e regular} trees. For Büchi-shaped conditions (a
      single pair with an empty red set — this covers both genuine Büchi
      conditions and the trivial condition produced by {!Closure.rfcl})
      membership is a Büchi game on the automaton × presentation product,
      solved by the standard [νY.μX] fixpoint. For general conditions we
      enumerate memoryless product strategies (sound and complete by
      memoryless determinacy of Rabin games) under a size guard.
    - {!is_empty} / {!nonempty_states} via the same game against an
      unconstrained input tree.
    - {!extends} — can a finite k-branching prefix be extended to an
      accepted tree? Bottom-up dynamic programming with nonempty-language
      states at the frontier. This powers the sampled [fcl] oracle that
      cross-validates {!Closure.rfcl}.

    Full Rabin complementation (Rabin's theorem) is {e not} implemented —
    the paper itself only cites it; see DESIGN.md for how Theorem 9 is
    verified without it. *)

type t = {
  alphabet : int;
  k : int;
  nstates : int;
  start : int;
  delta : int array list array array;
      (** [delta.(q).(s)] lists the k-tuples available at state [q]
          reading symbol [s]. *)
  pairs : (bool array * bool array) list;  (** (green, red) pairs *)
}

val make :
  alphabet:int -> k:int -> nstates:int -> start:int ->
  delta:int array list array array -> pairs:(bool array * bool array) list ->
  t

val graph : t -> Sl_core.Digraph.t
(** The transition graph with successor-tuple components flattened:
    [q --s--> q'] whenever [q'] occurs in some tuple of
    [delta.(q).(s)]. *)

val buchi_condition : nstates:int -> accepting:int list -> (bool array * bool array) list
(** The single pair [(F, ∅)]: a Büchi acceptance condition. *)

val trivial_condition : nstates:int -> (bool array * bool array) list
(** The pair [(Q, ∅)]: every run is accepting (used by [rfcl]). *)

val is_buchi_shaped : t -> bool
(** Exactly one pair, with no red states. *)

(** {1 Decision procedures} *)

val nonempty_states : t -> bool array
(** Per state [q]: [L(B(q)) ≠ ∅]. Büchi-shaped only
    (@raise Invalid_argument otherwise). *)

val is_empty : t -> bool

val nonempty_witness : t -> Rtree.t option
(** A regular tree in the language, extracted from the emptiness game: a
    memoryless winning strategy assigns each productive state a symbol
    and a transition tuple; reading the strategy as a pointed graph gives
    a regular tree together with its accepting run. Büchi-shaped only. *)

val accepts : ?max_product:int -> t -> Rtree.t -> bool
(** Membership of a regular tree. General Rabin conditions fall back to
    memoryless-strategy enumeration, guarded by [max_product] (default
    [4096] strategy candidates). @raise Invalid_argument when the
    fallback would exceed the guard. *)

val extends : t -> Ftree.t -> bool
(** Does some accepted tree extend the given finite k-branching prefix?
    (Interior nodes must have all [k] children.) Büchi-shaped only. *)

(** {1 Operations} *)

val union : t -> t -> t
(** Language union (fresh start state; runs commit to one component at the
    root). *)

val restrict : t -> bool array -> t
(** Keep only marked states and the tuples that stay inside them. If the
    start is dropped the result is an automaton with the empty language. *)

val pp : Format.formatter -> t -> unit
