(** Structural classes of Büchi automata and their relation to the
    safety/liveness landscape (the Manna–Pnueli hierarchy's automata
    side).

    - {e terminal} ("guarantee"): once an accepting state is reached the
      automaton can never leave acceptance — the language is determined by
      the existence of a good prefix (co-safety). The complement of a
      safety language is recognized by a terminal automaton
      ({!Sl_buchi.Complement.complement_closed} outputs one).
    - {e weak}: every SCC is homogeneous (all accepting or all rejecting);
      Büchi and co-Büchi semantics coincide on weak automata.
    - {e closure-shaped} safety automata ({!Closure.is_closure_shaped})
      are the all-accepting weak case.

    The predicates are structural (linear-time checks); the semantic
    consequences — terminal ⇒ complement is safety, safety ∧ co-safety ⇒
    weak-definable "obligation" behaviour — are exercised in the tests on
    the pattern corpus. *)

val is_terminal : Buchi.t -> bool
(** The reachable accepting region is a complete trap: from an accepting
    state, every symbol has at least one successor and all successors are
    accepting. Reaching it is then a good prefix, hence the co-safety
    reading. (Without completeness the implication fails: the FG¬a
    automaton has an accepting-closed but incomplete region, and FG¬a is
    no co-safety language — the tests pin this distinction.) *)

val is_weak : Buchi.t -> bool
(** Every SCC of the reachable part is acceptance-homogeneous. *)

val classify_structural : Buchi.t -> string
(** A human-readable tag: ["safety-shaped"], ["terminal"], ["weak"] or
    ["general"] (the finest applicable). *)
