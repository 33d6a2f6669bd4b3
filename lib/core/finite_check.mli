module Lattice = Sl_lattice.Lattice
module Closure = Sl_lattice.Closure

(** Exhaustive verification of the paper's theorems on finite lattices.

    Each [check_*] function quantifies over the whole (finite) carrier —
    and, where the theorem quantifies over closures, over every closure
    operator of the lattice — and returns [Ok ()] or a counterexample
    description. This is the executable counterpart of the paper's proofs:
    on lattices satisfying the hypotheses the checks must succeed, and on
    the counterexample lattices of Figures 1 and 2 the designated checks
    must fail in exactly the way the paper describes. *)

type report = (unit, string) result

val as_complemented : Lattice.t -> (module Theory.COMPLEMENTED with type t = Lattice.elt)
(** View a finite complemented lattice through the generic signature
    (picks the least-indexed complement; elements without complements map
    to [None]). *)

(** {1 Per-theorem exhaustive checks} *)

val check_theorem2 : Lattice.t -> Closure.t -> report
(** Every element decomposes into a cl-safety and cl-liveness element via
    the paper's construction. Hypotheses (modular + complemented) are
    checked first and reported if absent. *)

val check_theorem3 : Lattice.t -> cl1:Closure.t -> cl2:Closure.t -> report
(** Two-closure variant; also checks the pointwise [cl1 <= cl2]
    hypothesis. *)

val check_theorem5 : Lattice.t -> cl1:Closure.t -> cl2:Closure.t -> report
(** For every [a] with [cl2 a = 1 > cl1 a], verifies {e by exhaustion over
    all pairs} that no [cl2]-safety/[cl1]-liveness decomposition of [a]
    exists. *)

val check_theorem6 : Lattice.t -> cl1:Closure.t -> cl2:Closure.t -> report
(** For every decomposition [a = s ^ z] with [s] closed under either
    closure, [cl1 a <= s]. *)

val check_theorem7 : Lattice.t -> cl1:Closure.t -> cl2:Closure.t -> report
(** Distributive lattices only (checked): for every [a = s ^ z] with [s]
    closed and every complement [b] of [cl1 a], [z <= a v b]. *)

val check_theorem8 : Lattice.t -> cl1:Closure.t -> cl2:Closure.t -> report
(** Theorem 8 (the branching-time corollary of Theorems 6 and 7, stated
    here at the lattice level): on a distributive lattice, if [q] is
    [cl1]- or [cl2]-safe and [p = q ^ r], then [cl1 p <= q] and
    [r <= p v b] for every complement [b] of [cl1 p]. Exhaustive over all
    [(q, r)] pairs. *)

val check_all_closures : Lattice.t -> (string * report) list
(** Runs Theorems 2, 6 (and 7 when distributive) for {e every} closure
    operator of the lattice, and Theorems 3, 5 for every pointwise-ordered
    pair of closures. Returns one labeled report per (theorem, closure)
    combination that fails, or a single [("all", Ok ())]. Exponential —
    meant for {!Sl_lattice.Named.all_small}. *)

(** {1 The paper's counterexamples} *)

val lemma6_fig1 : unit -> report
(** Figure 1: on N5 with [cl a = b], element [a] admits {e no}
    decomposition into a cl-safety and a cl-liveness element — verified by
    exhausting all pairs. [Ok ()] means the counterexample behaves as the
    paper claims. *)

val fig2_theorem7_failure : unit -> report
(** Figure 2: on M3, for every closure mapping [a] to [s], exhibits the
    failure of Theorem 7's conclusion ([z <= a v b] is false), confirming
    distributivity is necessary. *)

val modularity_is_needed : unit -> report
(** N5 fails [check_theorem2] under the Figure 1 closure, while every
    modular complemented lattice in {!Sl_lattice.Named.all_small} passes —
    the executable form of the paper's "why we need modularity"
    discussion. *)
