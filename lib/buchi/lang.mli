module Lasso = Sl_word.Lasso

(** Language-level queries on Büchi automata.

    Two independent decision strategies are provided and cross-checked by
    the test suite:

    - {e exact}: complementation + product + emptiness. Complete but
      exponential (rank-based complementation).
    - {e sampled}: agreement on all canonical lassos up to a size bound.
      Sound for refutation; complete in the limit (two ω-regular languages
      are equal iff they agree on all lassos). *)

val subset : ?max_states:int -> Buchi.t -> Buchi.t -> bool
(** [subset a b] decides [L(a) ⊆ L(b)] exactly, via
    [L(a) ∩ ¬L(b) = ∅]. Uses {!Complement.complement_closed} when [b] is
    closure-shaped (or empty), falling back to {!Complement.rank_based}.
    @raise Complement.Too_large if the fallback exceeds its budget. *)

val equal : ?max_states:int -> Buchi.t -> Buchi.t -> bool
(** Exact language equality (two subset tests). *)

val is_universal : ?max_states:int -> Buchi.t -> bool
(** [L(B) = Σ^ω]. *)

val separating_lasso :
  max_prefix:int -> max_cycle:int -> Buchi.t -> Buchi.t -> Lasso.t option
(** First canonical lasso (within the bound) on which the two automata
    disagree, if any — the sampled refutation oracle. *)

val sampled_equal : max_prefix:int -> max_cycle:int -> Buchi.t -> Buchi.t -> bool
val sampled_subset : max_prefix:int -> max_cycle:int -> Buchi.t -> Buchi.t -> bool
