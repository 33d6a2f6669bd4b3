(** Direct-simulation reduction of Büchi automata.

    State [p] {e directly simulates} [q] when every move of [q] can be
    matched by [p] on the same symbol into simulating states, and [p] is
    accepting whenever [q] is. Quotienting by mutual direct simulation
    preserves the language (direct simulation is a congruence for Büchi
    acceptance); merging shrinks the automata produced by union and
    degeneralization — the liveness parts [B ∪ ¬bcl B] in particular.

    The relation is computed as a greatest fixpoint on state pairs. *)

val quotient : Buchi.t -> Buchi.t
(** Quotient by mutual simulation ([p ~ q] iff each simulates the other),
    dropping unreachable classes. Language-preserving. *)

val reduce : Buchi.t -> Buchi.t
(** {!quotient} plus little-brother pruning: a transition into [q] is
    dropped when a transition from the same state on the same symbol
    reaches a strict simulator of [q]. Language-preserving and never
    larger than the input. *)
