(** Finite partially ordered sets.

    A poset is represented over the carrier [{0, ..., size - 1}] by its full
    order relation (a reflexive, antisymmetric, transitive boolean matrix).
    All constructors validate the poset axioms; a value of type {!t} is
    therefore always a genuine partial order.

    This module is the foundation for {!Sl_lattice}: the paper's Hasse
    diagrams (Figures 1 and 2) are built here, and lattice structure (meets
    and joins) is computed from the order relation. *)

type t
(** A finite poset. Immutable. *)

type elt = int
(** Elements are indices in [0 .. size - 1]. *)

exception Invalid_order of string
(** Raised by constructors when the input fails a poset axiom. The payload
    names the axiom and a witness. *)

(** {1 Construction} *)

val make : size:int -> leq:(elt -> elt -> bool) -> t
(** [make ~size ~leq] builds the poset on [{0..size-1}] with order [leq].
    @raise Invalid_order if [leq] is not reflexive, antisymmetric and
    transitive, or if [size < 0]. *)

val of_covers : size:int -> covers:(elt * elt) list -> t
(** [of_covers ~size ~covers] builds the poset whose order is the reflexive
    transitive closure of the cover relation [covers]; [(x, y)] means
    [x] is covered by [y] ([x < y] with nothing strictly between — though
    redundant, non-covering pairs are accepted and absorbed).
    @raise Invalid_order if the closure is not antisymmetric (a cycle). *)

val chain : int -> t
(** [chain n] is the total order [0 < 1 < ... < n-1]. *)

val antichain : int -> t
(** [antichain n] is the discrete order on [n] elements. *)

val powerset : int -> t
(** [powerset n] is the poset of subsets of an [n]-element set ordered by
    inclusion; element [i] denotes the subset with characteristic bits [i].
    Size is [2^n]. *)

val divisors : int -> t * int array
(** [divisors n] is the divisibility order on the divisors of [n] (which must
    be positive). Returns the poset together with the array mapping each
    element index to the divisor it denotes (in increasing order). *)

val product : t -> t -> t
(** Componentwise (coordinatewise) order on the cartesian product. Element
    [i * size q + j] of [product p q] denotes the pair [(i, j)]. *)

val dual : t -> t
(** Order-reversed poset on the same carrier. *)

(** {1 Basic observations} *)

val size : t -> int
val elements : t -> elt list
val leq : t -> elt -> elt -> bool
val lt : t -> elt -> elt -> bool
val comparable : t -> elt -> elt -> bool
val equal : t -> t -> bool
(** Equality of posets on the same carrier (same size and same relation). *)

(** {1 Hasse diagram} *)

val covers : t -> (elt * elt) list
(** The cover (Hasse) relation: [(x, y)] with [x < y] and no [z] with
    [x < z < y]. This is the transitive reduction of the strict order. *)

val covers_of : t -> elt -> elt list
(** [covers_of p x] lists the elements covering [x] (immediately above). *)

(** {1 Extremal elements and bounds} *)

val minimal : t -> elt list
val maximal : t -> elt list
val bottom : t -> elt option
(** The least element, if one exists. *)

val top : t -> elt option
(** The greatest element, if one exists. *)

val join_opt : t -> elt -> elt -> elt option
(** Least upper bound of two elements, if it exists. *)

val meet_opt : t -> elt -> elt -> elt option
(** Greatest lower bound of two elements, if it exists. *)

(** {1 Up-sets, down-sets, chains, antichains} *)

val up_set : t -> elt -> elt list
(** [up_set p x] is [{ y | x <= y }], sorted. *)

val down_set : t -> elt -> elt list
(** [down_set p x] is [{ y | y <= x }], sorted. *)

val is_down_set : t -> elt list -> bool
val down_closure : t -> elt list -> elt list
(** Least down-set containing the given elements, sorted. *)

val is_chain : t -> elt list -> bool
val is_antichain : t -> elt list -> bool

val height : t -> int
(** Number of elements in a longest chain (0 for the empty poset). *)

val width : t -> int
(** Size of a largest antichain, computed via Dilworth's theorem as a
    minimum chain cover using bipartite matching (Hopcroft–Karp style
    augmenting paths on the comparability DAG). *)

val minimum_chain_cover : t -> elt list list
(** A partition of the carrier into the minimum number of chains (each
    listed bottom-up). By Dilworth's theorem the number of chains equals
    {!width}; extracted from the same maximum bipartite matching. *)

val all_down_sets : t -> elt list list
(** Every down-set, each sorted; the list of down-sets ordered by inclusion
    forms the free distributive lattice over this poset (Birkhoff duality).
    Exponential; intended for small posets. *)

val linear_extension : t -> elt list
(** A topological order of the elements (least first). *)

(** {1 Morphisms} *)

val is_monotone : t -> t -> (elt -> elt) -> bool
(** [is_monotone p q f] checks that [f] is order-preserving from [p] to
    [q]. *)

val is_order_embedding : t -> t -> (elt -> elt) -> bool
(** [x <= y] iff [f x <= f y]. *)

val isomorphic : t -> t -> (elt -> elt) option
(** Search for an order isomorphism (backtracking; intended for small
    posets). Returns a witness if one exists. *)

(** {1 Output} *)

val pp : Format.formatter -> t -> unit
(** Prints the cover relation. *)

val to_dot : ?label:(elt -> string) -> t -> string
(** GraphViz rendering of the Hasse diagram (bottom-up). *)
