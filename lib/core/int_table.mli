(** Maps from nonnegative ints to ints, by open addressing over two int
    arrays with the key as its own hash: a lookup or an insertion of a
    present key allocates nothing, and the table adds no block per
    entry for the GC to walk. Made for dense keys such as trace ids;
    it serves as a set too, through {!add_all} and {!keys}. *)

type t

val create : unit -> t
(** An empty table with room for 32 keys before it first grows. *)

val length : t -> int
(** Keys present. *)

val add_all : t -> int array -> len:int -> unit
(** Make each of [a.(0 .. len-1)] present, leaving the value of a
    present key as it is (0 for a new key).
    @raise Invalid_argument on a negative key or a [len] outside
    [0, length a]. *)

val replace : t -> int -> int -> unit
(** [replace t key v] binds [key] to [v].
    @raise Invalid_argument on a negative key. *)

val find : t -> int -> int
(** The value bound to the key. @raise Not_found if it is absent. *)

val keys : t -> int array
(** The keys present, in no particular order. *)

val clear : t -> unit
(** Remove every key, keeping the arrays: O(their length) when the
    table is not empty. *)
