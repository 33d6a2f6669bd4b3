(** Complementation of Büchi automata.

    Two constructions, and {!negate}, the one place that chooses between
    them:

    - {!complement_closed} — for closure automata (safety languages) only.
      A closed language is determined by its prefix set; since that set is
      prefix-closed, the subset construction over the prefix NFA has a
      single rejecting sink, and the complement is the co-safety language
      "some prefix leaves the prefix set", recognized deterministically by
      accepting exactly at that sink. Cheap (one determinization), and the
      only complementation the paper's decomposition (Theorem 1 / Section
      2.4) actually needs: [B_L = B ∪ ¬(bcl B)].

    - {!rank_based} — full Kupferman–Vardi rank-based complementation for
      arbitrary Büchi automata, used to decide language containment
      ({!Lang}) and to close the Boolean algebra of ω-regular languages
      that instantiates [Sl_core.Theory]. Exponential: guarded by a
      state-budget. *)

exception Too_large of string
(** Raised by {!rank_based} when the construction would exceed the given
    state budget. *)

val complement_closed : Buchi.t -> Buchi.t
(** Complement of the language of a closure-shaped automaton (see
    {!Closure.is_closure_shaped}); also accepts an automaton with the
    empty language (complement = universal).
    @raise Invalid_argument if the automaton is neither. *)

val rank_based : ?max_states:int -> Buchi.t -> Buchi.t
(** Full complementation; the result accepts exactly [Σ^ω \ L(B)].
    Rank bound [2 (n - |F ∩ reachable|) ] with the even-rank restriction on
    accepting states. Ranking states are interned through a hashtable with
    a whole-structure hash, in breadth-first order. [max_states] (default
    [200_000]) bounds the explored complement automaton.
    @raise Too_large when exceeded. *)

val negate : Buchi.t -> Buchi.t
(** The complement by the cheapest construction that applies:
    {!complement_closed} for an empty language or a closure-shaped
    automaton, {!rank_based} with its default budget otherwise. The one
    negation behind the exact queries of {!Lang} and [Decompose].
    @raise Too_large when {!rank_based} exceeds its budget. *)
