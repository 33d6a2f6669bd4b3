(** LTL to Büchi translation.

    The classical declarative tableau construction: states of the
    generalized Büchi automaton are {e elementary} (maximal, locally
    consistent) subsets of the formula's closure; transitions enforce the
    [X]-step and the [Until] expansion law
    [a U b  ≡  b ∨ (a ∧ X (a U b))]; one acceptance set per [Until]
    forbids postponing [b] forever. The generalized automaton is then
    degeneralized with a counter track.

    The tableau runs on integer bit masks, one bit per formula of the
    positive closure. Each closure operand is resolved once to a
    (bit, negated) literal. The elementary sets are enumerated directly,
    deciding each position after its operands, and numbered in ascending
    mask order. The step relation out of a set is one [(mask, value)]
    pair: a successor [e'] must satisfy [e' land mask = value]. Whether a
    set fits a letter is one compare against the letter's proposition
    bits. The test suite pins the result, by structural equality of
    the automaton (every state, edge and edge order), to a predicate
    tableau kept as a test reference, which filters all [2^n] subsets
    and tests every pair of sets.

    Correctness is established in the test suite by checking agreement
    with the fixpoint evaluator {!Semantics.eval} on every canonical lasso
    up to a size bound, for a corpus of formulas including all of Rem's
    examples. *)

val max_closure : int
(** The largest positive closure the tableau accepts (20). *)

val closure_size : Formula.t -> int
(** The number of non-negation subformulas of the formula's core form:
    the tableau's bit width. *)

val translate :
  alphabet:int -> valuation:Semantics.valuation -> Formula.t -> Sl_buchi.Buchi.t
(** [translate ~alphabet ~valuation f] builds a Büchi automaton over
    symbols [0 .. alphabet-1] accepting exactly the words satisfying [f]
    (atomic propositions read through [valuation]).
    @raise Invalid_argument when [closure_size f > max_closure]. *)

val gnba_stats :
  alphabet:int -> valuation:Semantics.valuation -> Formula.t ->
  int * int * int
(** [(elementary_states, acceptance_sets, final_states)] — the sizes of
    the intermediate generalized automaton and the degeneralized result;
    used by the benches to report translation growth.
    @raise Invalid_argument when [closure_size f > max_closure]. *)
