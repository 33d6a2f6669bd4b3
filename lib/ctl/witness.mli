module Kripke = Sl_kripke.Kripke

(** Witness and counterexample paths for CTL model checking.

    A positive answer to an existential query ([EX]/[EF]/[EG]/[EU]) is
    backed by a lasso-shaped path of the structure; a negative answer to a
    universal query ([AX]/[AF]/[AG]/[AU]) is refuted by a witness for its
    existential dual. The extracted paths are replayed against the
    independent path-semantics checker in the tests. *)

type path = { spoke : int list; cycle : int list }
(** [spoke] then [cycle] repeated forever; both lists of states, [cycle]
    nonempty, consecutive states connected, and the cycle closing back to
    its head. *)

val check_path : Kripke.t -> path -> bool
(** Structural validity of a path in the structure. *)

val states_of_path : path -> int -> int
(** [states_of_path p i] — the [i]-th state along the path. *)

val witness : Kripke.t -> Ctl.t -> int -> path option
(** [witness k f q] — a path from [q] demonstrating [f], for [f] of the
    existential shapes [EX g], [EF g], [EG g], [E (g U h)] (with [g], [h]
    arbitrary CTL state formulas, decided by {!Ctl.sat}). Returns [None]
    when [f] does not hold at [q] or has no path-witnessable shape. For
    [EX]/[EF]/[EU] the continuation beyond the demonstrating prefix is an
    arbitrary cycle. *)

val counterexample : Kripke.t -> Ctl.t -> int -> path option
(** [counterexample k f q] — a path refuting [f] at [q], for [f] of the
    universal shapes [AX g], [AF g], [AG g], [A (g U h)], via the
    existential dual. [None] if [f] holds or has no handled shape. *)
