(** The Alpern–Schneider decomposition for Büchi automata (Section 2.4 of
    the paper), derived — as the paper stresses — from Theorem 3
    instantiated at the Boolean algebra of ω-regular languages.

    [B_S = bcl B] recognizes a safety property, [B_L = B ∪ ¬(bcl B)] a
    liveness property, and [L(B) = L(B_S) ∩ L(B_L)]. *)

type 'a decomposition = 'a Sl_core.Theory.decomposition = {
  element : 'a;
  safety : 'a;
  liveness : 'a;
}

type t = Buchi.t decomposition
(** [element] is [B]; [safety] is [bcl B], the strongest safety part
    (Theorem 6); [liveness] is [B ∪ ¬(bcl B)], the weakest liveness part
    (Theorem 7 — the language lattice is distributive). *)

val decompose : Buchi.t -> t
(** Theorem 3 itself: [Sl_core.Theory.Make]'s [decompose ~cl2:lcl] over
    {!language_lattice}. Always succeeds: [bcl B] is closure-shaped, so
    {!Complement.negate} complements it by the subset construction. *)

val verify_via_negation : t -> negation:Buchi.t -> (string * string) list
(** Exact checks of the three claims (safety part closed, liveness part
    dense, intersection recovers the language); returns failing claims
    with diagnostics. Like {!classify_via_negation}, it takes a
    caller-supplied automaton for the complement of the {e original}
    language — for LTL, the negated formula's translation — and
    exploits the decomposition's structure ([B_L = B ∪ ¬B_S] with
    [¬B_S] deterministic) so that nothing is complemented with the
    rank-based construction. Polynomial given the negation. A claimed
    negation that overlaps [L(B)] fails the third claim. *)

val verify_exact : t -> (string * string) list
(** {!verify_via_negation} with the negation computed: only the
    {e original} automaton is complemented, by {!Complement.negate}
    (@raise Complement.Too_large if that exceeds its budget). *)

val verify_sampled : max_prefix:int -> max_cycle:int -> t -> (string * string) list
(** Lasso-sampled version of the intersection claim plus exact
    closed/dense checks (those are cheap). *)

(** {1 Classification} *)

type classification = Safety | Liveness | Both | Neither

val classification_to_string : classification -> string

val classify : Buchi.t -> classification
(** - [Safety]: [L(B) = lcl L(B)] (closed);
    - [Liveness]: [lcl L(B) = Σ^ω] (dense);
    - [Both]: only [Σ^ω] itself;
    - [Neither]: e.g. Rem's p3.
    {!classify_via_negation} with [¬B] from {!Complement.negate}, less
    its overlap check: the safety test is [lcl L(B) ∩ ¬L(B) = ∅]
    (@raise Complement.Too_large on big inputs); the liveness test is
    always cheap. *)

val is_safety : Buchi.t -> bool
(** The safety half of {!classify}, without the liveness test. *)

val is_liveness : Buchi.t -> bool

val classify_via_negation : Buchi.t -> negation:Buchi.t -> classification
(** Like {!classify} (the same body), but takes a caller-supplied
    automaton for the complement language instead of complementing — the
    standard trick for LTL-derived automata, where [¬L(B_φ) = L(B_{¬φ})]
    comes from translating the negated formula. Polynomial given the negation.
    @raise Invalid_argument if the claimed negation visibly overlaps
    [L(B)]. *)

(** {1 The language lattice}

    The Boolean algebra of ω-regular languages over a fixed alphabet,
    packaged for [Sl_core.Theory.Make]. Elements are automata; equality is
    language equality. This is the lattice the paper notes is {e not}
    [-]-complete, hence outside Gumm's framework, yet inside ours.
    Order and equality are {!Lang.subset} and {!Lang.equal}; [complement]
    is {!Complement.negate}, [None] where that exceeds its budget. *)

val language_lattice :
  alphabet:int -> (module Sl_core.Theory.COMPLEMENTED with type t = Buchi.t)

val lcl : Buchi.t -> Buchi.t
(** The closure operator on the language lattice: {!Closure.bcl}. *)
