module Kripke = Sl_kripke.Kripke

(** CTL under fairness constraints.

    A (generalized Büchi style) fairness assumption is a list of state
    sets, each of which a {e fair} path must visit infinitely often. The
    path quantifiers of CTL are then relativized to fair paths — the
    classical Clarke–Grumberg–Peled treatment, and the standard way the
    liveness half of a specification is made true of schedulers that the
    plain structure does not force (the paper's "existence of a fair
    computation cannot be so determined" remark lives in exactly this
    setting).

    With an empty constraint list everything degenerates to plain CTL;
    the test suite checks that degeneration and the textbook examples. *)

type constraints = bool array list
(** Each array has one flag per structure state. *)

val fair_states : Kripke.t -> constraints -> bool array
(** States from which some fair path starts ([E_fair G true]). *)

val eg : Kripke.t -> constraints -> bool array -> bool array
(** [E_fair G f]: an [f]-confined path visiting every constraint
    infinitely often — computed by SCC analysis of the [f]-restricted
    graph. *)

val sat : Kripke.t -> constraints -> Ctl.t -> bool array
(** Full fair-CTL labeling: {!Ctl.label} with the targets of [EX] and
    [EU] conjoined with {!fair_states} and {!eg} for [EG]; universal
    modalities come out by duality. *)

val holds : Kripke.t -> constraints -> Ctl.t -> bool

val constraint_of_prop : Kripke.t -> string -> bool array
(** The state set where a proposition holds — convenience for building
    constraints like "the scheduler picks process 1 infinitely often". *)
