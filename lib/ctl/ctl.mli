(** Computation Tree Logic: syntax and the standard labeling model checker.

    CTL is the paper's carrier logic for the branching-time examples of
    Section 4.3 (q0–q6). Formulas are interpreted over the total trees
    obtained by unwinding Kripke structures; by the classical fact that
    CTL cannot distinguish a structure from its unwinding, model checking
    the structure decides membership of the unwinding tree in the
    property. *)

type t =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | EX of t
  | AX of t
  | EF of t
  | AF of t
  | EG of t
  | AG of t
  | EU of t * t
  | AU of t * t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val parse : string -> (t, string) result
(** Concrete syntax: [EX f], [AX f], [EF f], [AF f], [EG f], [AG f],
    [E (f U g)], [A (f U g)], booleans as in LTL. *)

val parse_exn : string -> t

val size : t -> int
val propositions : t -> string list

(** {1 Model checking} *)

val sat : Sl_kripke.Kripke.t -> t -> bool array
(** The labeling algorithm: [sat k f] marks the states whose unwinding
    satisfies [f]. Core modalities [EX], [EU], [EG] are computed by
    fixpoints ([EU] least, [EG] greatest via successor-pruning); the rest
    reduce by the standard dualities. Linear passes per subformula. *)

val holds : Sl_kripke.Kripke.t -> t -> bool
(** Truth at the initial state. *)

val witnesses : Sl_kripke.Kripke.t -> t -> int list
(** States satisfying the formula, sorted. *)
