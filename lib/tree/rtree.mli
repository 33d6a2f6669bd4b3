(** Regular infinite trees: finitely-presented total k-branching trees.

    A regular tree is the unwinding of a pointed labeled graph in which
    every state has exactly [k] ordered successors; it is total by
    construction. These are the computable sample points of the paper's
    space [A_{k,tot}] (Section 4.4), playing the role lasso words play in
    the linear-time framework. *)

type t = {
  k : int;  (** branching degree *)
  nstates : int;
  root : int;
  label : int array;
  children : int array array;  (** [children.(q).(i)], each in range *)
}

val make :
  k:int -> nstates:int -> root:int -> label:int array ->
  children:int array array -> t

val constant : k:int -> int -> t
(** The all-[s] tree. *)

val unfold : t -> depth:int -> Ftree.t
(** The finite k-branching prefix containing every node up to the given
    depth (a tree in the paper's [A_{k,f}] family once its frontier is
    leaves). *)

val node_state : t -> Ftree.node -> int option
(** The graph state reached by following a path of child indices (None if
    an index is [>= k]). *)

val to_kripke : t -> prop_of_label:(int -> string) -> Sl_kripke.Kripke.t
(** Read the presentation as a Kripke structure whose states carry the
    proposition [prop_of_label label]; CTL model checking on it decides
    CTL membership of the unwinding (CTL is insensitive to unwinding). *)

val enumerate : alphabet:int -> k:int -> max_states:int -> t list
(** All regular trees with at most [max_states] graph states (exponential;
    intended for [max_states <= 2] with small alphabets). Includes every
    constant tree. *)

val equal_presentation : t -> t -> bool
(** Structural equality of presentations (a sound but incomplete proxy for
    equality of denoted trees; the tests compare unfoldings instead). *)

val pp : Format.formatter -> t -> unit
