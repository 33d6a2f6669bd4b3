(** Packed integer bitsets over a fixed universe [0, size), and a
    hash-consing interner assigning dense ids to distinct sets.

    This is the shared state-set kernel for the automaton hot paths
    (subset construction, on-the-fly products, rank-based
    complementation): O(1) membership and insertion, word-parallel union
    and intersection, and a whole-set hash suitable for hashtable
    interning — unlike [Hashtbl.hash], which inspects only a bounded
    prefix of the structure. *)

type t

val create : int -> t
(** [create size] is the empty set over universe [0, size).
    @raise Invalid_argument if [size < 0]. *)

val capacity : t -> int
(** The universe size the set was created with. *)

val copy : t -> t

val add : t -> int -> unit
(** In-place insertion. @raise Invalid_argument out of range. *)

val remove : t -> int -> unit
val mem : t -> int -> bool

val unsafe_add : t -> int -> unit
(** [add] without the range check; the caller guarantees range. *)

val is_empty : t -> bool
val of_list : int -> int list -> t
val singleton : int -> int -> t
val cardinal : t -> int

val union : t -> t -> t
(** Fresh set; operands must share a universe. *)

val inter : t -> t -> t
val diff : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val subset : t -> t -> bool

val hash : t -> int
(** Mixes every word of the set (FNV-style); stable across runs. *)

val iter : (int -> unit) -> t -> unit
(** Elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
(** Sorted ascending. *)

val exists : (int -> bool) -> t -> bool
val pp : Format.formatter -> t -> unit

(** Hash-consed ids for bitsets, in insertion order. Interned sets are
    aliased by the table and must not be mutated afterwards. *)
module Interner : sig
  type bitset = t
  type t

  val create : unit -> t
  val count : t -> int

  val intern : t -> bitset -> int
  (** The id of the set, allocating the next dense id if unseen. *)

  val find_opt : t -> bitset -> int option
  val get : t -> int -> bitset
  val iteri : (int -> bitset -> unit) -> t -> unit
end
