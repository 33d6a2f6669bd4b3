(** Ultimately periodic infinite words ("lassos").

    A lasso [(u, v)] denotes the infinite word [u · v^ω]. Lassos are the
    computable probe into [Σ^ω]: two ω-regular languages are equal iff they
    contain the same lassos, and every nonempty ω-regular language contains
    one — which is why the test suite and the language-lattice backend use
    systematic lasso enumeration as a second, independent oracle next to
    automata-theoretic constructions (see DESIGN.md §2). *)

type t
(** A lasso in canonical form: the cycle is primitive (not a power of a
    shorter word) and the prefix is shortest (its last letter differs from
    the corresponding cycle letter). Canonicity makes structural equality
    coincide with equality of the denoted infinite words. *)

val make : prefix:int list -> cycle:int list -> t
(** @raise Invalid_argument if the cycle is empty or any symbol is
    negative. *)

val constant : int -> t
(** [constant s] is [s^ω]. *)

val prefix : t -> int list
val cycle : t -> int list

val at : t -> int -> int
(** [at w i] is the [i]-th letter (0-based) of the denoted word. *)

val period : t -> int
(** Length of the canonical cycle. *)

val spoke : t -> int
(** Length of the canonical prefix. *)

val total_length : t -> int
(** [spoke + period]: the number of distinct positions that matter. *)

val equal : t -> t -> bool
(** Equality of denoted infinite words (structural equality of canonical
    forms). *)

val compare : t -> t -> int

val first_n : t -> int -> int list
(** The finite prefix of length [n]. *)

val shift : t -> int -> t
(** [shift w k] drops the first [k] letters (the suffix word). *)

val append_prefix : int list -> t -> t
(** [append_prefix u w] denotes [u ·  w]. *)

val map : (int -> int) -> t -> t
(** Letter-to-letter renaming (re-canonicalized). *)

val enumerate : alphabet:int -> max_prefix:int -> max_cycle:int -> t list
(** All canonical lassos with spoke length [<= max_prefix] and period
    [<= max_cycle] over symbols [0 .. alphabet-1], without duplicates.
    This is the systematic sampling grid used to compare languages. *)

val count_letter : t -> int -> [ `Finitely of int | `Infinitely ]
(** How often a letter occurs in the denoted word — decidable because the
    word is ultimately periodic; used to cross-check Rem's p4/p5. *)

val pp : ?alphabet:Alphabet.t -> unit -> Format.formatter -> t -> unit
(** [u(v)^w], each letter printed by its [alphabet] label, or else as
    its number. The letters are printed back to back, unless one prints
    as a number of two or more digits: then they are separated by
    spaces, as in [9 (9 9 10 10 12 12)^w]. *)

val to_string : ?alphabet:Alphabet.t -> t -> string
