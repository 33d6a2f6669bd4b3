(** Reference semantics of LTL on ultimately periodic words.

    The evaluator computes truth by fixpoint iteration over the finitely
    many distinct positions of a lasso ([Until] as a least, [Release]/[G]
    as a greatest fixpoint), making it an {e independent} oracle against
    which the automata-theoretic translation ({!Translate}) is tested. *)

type valuation = int -> string -> bool
(** [valuation symbol prop] tells whether atomic proposition [prop] holds
    when the letter [symbol] is read. *)

val subset_valuation : string list -> valuation
(** The valuation of the alphabet [2^AP] built by
    {!Sl_word.Alphabet.of_subsets}: proposition [j] of the list is bit
    [1 lsl j] of the symbol. *)

val eval : valuation -> Formula.t -> Sl_word.Lasso.t -> bool
(** [eval v f w] iff [w, 0 ⊨ f]. *)

val eval_at : valuation -> Formula.t -> Sl_word.Lasso.t -> int -> bool
(** Truth at an arbitrary position (positions beyond the spoke wrap into
    the cycle). *)
