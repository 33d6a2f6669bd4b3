module Poset = Sl_order.Poset
(** Finite lattices.

    A finite lattice is a finite poset in which every pair of elements has a
    meet and a join; since the poset is finite and bounded this extends to
    arbitrary finite subsets. The paper's core results (Section 3) are
    stated over modular complemented lattices; this module provides the law
    checkers ({!is_modular}, {!is_distributive}, {!is_complemented}, …) used
    both to validate the counterexample lattices of Figures 1 and 2 and to
    drive the exhaustive theorem checks in [Sl_core]. *)

type t
(** A finite lattice: a poset plus precomputed meet and join tables. *)

type elt = Poset.elt

exception Not_a_lattice of string
(** Raised by {!of_poset} when some pair lacks a meet or a join. *)

(** {1 Construction} *)

val of_poset : Poset.t -> t
(** Interpret a finite poset as a lattice.
    @raise Not_a_lattice if some pair of elements has no least upper bound
    or no greatest lower bound. The empty poset is not a lattice. *)

val of_covers : size:int -> covers:(elt * elt) list -> t
(** Convenience: {!Poset.of_covers} followed by {!of_poset}. *)

val product : t -> t -> t
val dual : t -> t

val interval : t -> elt -> elt -> t option
(** [interval l a b] is the sublattice [{ x | a <= x <= b }] (with elements
    renumbered in increasing order), or [None] if [not (a <= b)]. *)

(** {1 Observations} *)

val poset : t -> Poset.t
val size : t -> int
val elements : t -> elt list
val leq : t -> elt -> elt -> bool
val lt : t -> elt -> elt -> bool
val meet : t -> elt -> elt -> elt
val join : t -> elt -> elt -> elt
val meet_set : t -> elt list -> elt
(** Meet of a finite set; the empty meet is {!top}. *)

val bot : t -> elt
val top : t -> elt

(** {1 Laws}

    All checkers are exhaustive over the (finite) carrier and return a
    counterexample witness when the law fails. *)

val check_lattice_laws : t -> (string * elt list) option
(** Re-verifies associativity, commutativity, idempotency and absorption of
    the meet/join tables (they hold by construction; this is the executable
    form of the paper's algebraic axioms in Section 3). Returns
    [Some (law, witness)] on failure. *)

val modularity_violation : t -> (elt * elt * elt) option
(** A triple [(a, b, c)] with [a <= c] but
    [a v (b ^ c) <> (a v b) ^ (a v c)], if any.  (Here [v] is join and [^]
    is meet; the paper states modularity as
    [a <= c  =>  a v (b ^ c) = (a v b) ^ c].) *)

val is_modular : t -> bool

val distributivity_violation : t -> (elt * elt * elt) option
(** A triple where [a ^ (b v c) <> (a ^ b) v (a ^ c)], if any. *)

val is_distributive : t -> bool

val complements : t -> elt -> elt list
(** [complements l a] is the set [cmp a = { b | a ^ b = 0 and a v b = 1 }].
    The paper stresses that complements need not be unique outside
    distributive lattices. *)

val is_complemented : t -> bool
(** Every element has at least one complement. *)

val uncomplemented : t -> elt list
(** Elements with no complement. *)

val is_boolean : t -> bool
(** Distributive and complemented: a (finite) Boolean algebra. *)

val has_unique_complements : t -> bool

(** {1 Structure} *)

val atoms : t -> elt list
(** Elements covering bottom. *)

val join_irreducibles : t -> elt list
(** Elements [x <> 0] that are not the join of two strictly smaller
    elements; the basis of Birkhoff duality (see {!Birkhoff}). *)

val sublattice_closure : t -> elt list -> elt list
(** Least subset containing the given elements and closed under meet and
    join (not necessarily containing 0 and 1). *)

val contains_pentagon : t -> (elt * elt * elt * elt * elt) option
(** A sublattice isomorphic to N5 [(0', a, b, c, 1')] with
    [0' < a < b < 1'], [0' < c < 1'], [c] incomparable to both [a] and [b],
    [a ^ c = b ^ c = 0'], [a v c = b v c = 1'] — the Dedekind witness that
    the lattice is not modular. Returns [None] iff the lattice is
    modular. *)

val contains_diamond : t -> (elt * elt * elt * elt * elt) option
(** A sublattice isomorphic to M3 [(0', x, y, z, 1')] — together with
    {!contains_pentagon} this characterizes non-distributivity
    (Birkhoff's M3/N5 theorem). *)

val isomorphic : t -> t -> (elt -> elt) option

(** {1 Output} *)

val pp : Format.formatter -> t -> unit
val to_dot : ?label:(elt -> string) -> t -> string
