(** Rem's example properties (Section 2.3 of the paper) as LTL formulas,
    plus the machinery that regenerates the paper's classification table
    from first principles: parse → translate → compute the Büchi closure →
    classify.

    All formulas are over the single proposition ["a"], read over the
    binary alphabet of {!Sl_buchi.Patterns.sigma} (letter 0 is [a], letter
    1 is "anything else"). *)

val valuation : Semantics.valuation
(** ["a"] holds exactly on letter 0. *)

val p0 : Formula.t (** [false] *)

val p1 : Formula.t (** [a] *)

val p2 : Formula.t (** [!a] *)

val p3 : Formula.t (** [a & F !a] *)

val p4 : Formula.t (** [F G !a] *)

val p5 : Formula.t (** [G F a] *)

val p6 : Formula.t (** [true] *)

val all : (string * Formula.t) list

val automaton : Formula.t -> Sl_buchi.Buchi.t
(** Translation over the binary alphabet with {!valuation}. *)

val classify : Formula.t -> Sl_buchi.Decompose.classification
(** Safety/liveness classification of an arbitrary formula over ["a"],
    decided through the automaton (closure, with the negated formula's
    automaton as the complement): {!Sl_buchi.Decompose.classify_via_negation},
    the paper's Section 2.4 route. {!table} classifies the same way. *)

type row = {
  name : string;
  formula : Formula.t;
  classification : Sl_buchi.Decompose.classification;
  closure_of : string option;
      (** Name of the property the closure coincides with, when it is one
          of the table's entries (e.g. the closure of p3 is p1). *)
}

val table : unit -> row list
(** The full Section 2.3 table, recomputed (not hard-coded). *)

val pp_table : Format.formatter -> row list -> unit
