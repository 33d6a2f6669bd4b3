module Poset = Sl_order.Poset
(** Birkhoff duality for finite distributive lattices.

    Every finite distributive lattice is isomorphic to the lattice of
    down-sets of its poset of join-irreducible elements. The paper's
    distributive hypotheses (Theorem 7, unique complements) live exactly in
    this class, so we use the duality both as a test oracle and to generate
    distributive lattices from random posets. *)

val downset_lattice : Poset.t -> Lattice.t * Poset.elt list array
(** The lattice of down-sets of a poset ordered by inclusion (meet =
    intersection, join = union); also returns the down-set denoted by each
    lattice element. Always distributive. *)

val representation : Lattice.t -> (Lattice.elt -> Lattice.elt) option
(** For a distributive lattice [l], the isomorphism from [l] onto the
    down-set lattice of its join-irreducibles ([x] maps to the element
    denoting [{ j irreducible | j <= x }]). Returns [None] when [l] is not
    distributive (the map is then not injective or not surjective). *)

val check_representation : Lattice.t -> bool
(** [true] iff {!representation} returns an order isomorphism — i.e.
    Birkhoff's theorem holds for this lattice; by the theorem this is
    equivalent to distributivity, which is exactly how the test suite uses
    it. *)
