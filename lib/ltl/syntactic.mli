(** Syntactic safety and co-safety fragments of LTL.

    A formula whose negation normal form contains no [U]/[F] ("until-free
    NNF": literals, [∧], [∨], [X], [R], [G]) denotes a {e safety} property;
    dually, an NNF without [R]/[G] denotes a {e co-safety} property (its
    negation is safety). These are the classical sound-but-incomplete
    syntactic approximations of the semantic classes decided in
    [Sl_buchi.Decompose] — Sistla's characterization, which the paper
    cites as [21]. The test suite checks soundness against the semantic
    classifier on a corpus and on random formulas, and exhibits the
    incompleteness witnesses (semantically safe formulas outside the
    fragment, e.g. [F false]). *)

type nnf = private
  | Lit of string * bool  (** proposition, positive? *)
  | NTrue
  | NFalse
  | NAnd of nnf * nnf
  | NOr of nnf * nnf
  | NNext of nnf
  | NUntil of nnf * nnf
  | NRelease of nnf * nnf

val nnf : Formula.t -> nnf
(** Negation normal form: negations pushed to literals, [F]/[G]/[->]
    expanded, double negations cancelled. Linear in the formula. *)

val of_nnf : nnf -> Formula.t
(** Back to formula syntax (the tests check semantic equivalence of the
    round trip on lassos). *)

val is_syntactically_safe : Formula.t -> bool
(** The NNF contains no [U]. Sound: implies the semantic safety of the
    property (including the degenerate "both" case Σ^ω). *)

val is_syntactically_cosafe : Formula.t -> bool
(** The NNF contains no [R]. The negation of a syntactically co-safe
    formula is syntactically safe. *)
