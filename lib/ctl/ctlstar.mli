(** The four CTL* limit modalities used by the paper's Section 4.3
    examples (q4a/q4b/q5a/q5b), which lie outside CTL proper:
    [E GF p], [E FG p], [A GF p], [A FG p].

    On finite Kripke structures these reduce to cycle analysis: a path
    with infinitely many [p]-states exists iff a reachable cycle contains
    a [p]-state; a path with eventually only [p]-states exists iff a
    reachable cycle lies entirely inside [p]-states. Both are computed
    with the CTL fixpoints {!Ctl.eu} and {!Ctl.eg}: [E FG p = EF EG p]
    and [E GF p = νZ. EX EF (p ∧ Z)]. The [A] forms are the negations of
    the dual [E] forms. *)

val e_gf : Sl_kripke.Kripke.t -> pred:(int -> bool) -> bool array
(** Per state: some path from it visits [pred]-states infinitely often. *)

val e_fg : Sl_kripke.Kripke.t -> pred:(int -> bool) -> bool array
(** Per state: some path from it is eventually confined to
    [pred]-states. *)

val a_gf : Sl_kripke.Kripke.t -> pred:(int -> bool) -> bool array
(** [A GF p = ¬ E FG ¬p]. *)

val a_fg : Sl_kripke.Kripke.t -> pred:(int -> bool) -> bool array
(** [A FG p = ¬ E GF ¬p]. *)

val prop_pred : Sl_kripke.Kripke.t -> string -> int -> bool
(** Convenience: the predicate of an atomic proposition. *)
