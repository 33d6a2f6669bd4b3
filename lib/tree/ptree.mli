(** Partial regular trees: finitely-presented {e non-total} prefixes.

    The paper's [ncl] closure quantifies over non-total prefixes — trees
    where some node lacks successors. A partial regular tree is a pointed
    graph like {!Rtree.t} except that child slots may be {e holes}
    (absent); a tree with a reachable hole is non-total. This is exactly
    the shape of the paper's Section 4.3 counterexample prefixes ("a tree
    with at least two paths such that along one of the paths [a] always
    holds" — cut the siblings of the all-[a] path and you get a partial
    regular tree that no member of the property extends). *)

type t = {
  k : int;
  nstates : int;
  root : int;
  label : int array;
  children : int option array array;  (** [None] is a hole *)
}

val make :
  k:int -> nstates:int -> root:int -> label:int array ->
  children:int option array array -> t

val of_rtree : Rtree.t -> t
(** A total tree viewed as a (degenerate, hole-free) partial tree. *)

val reachable : t -> bool array

val has_hole : t -> bool
(** Some reachable state is a leaf (no present children): the presented
    tree is non-total. Note that a state with {e some} absent slots next
    to present ones is not a hole — in the arbitrary-branching reading it
    simply has fewer children, and extensions cannot add children
    there. *)

val has_cycle_within : t -> keep:(int -> bool) -> bool
(** Is there an infinite path from the root staying inside [keep]-states?
    (Equivalently a lasso: reachable-within cycle.) *)

val has_reachable_cycle_through : t -> pred:(int -> bool) -> bool
(** Is there an infinite path from the root on which [pred]-states recur?
    (A reachable cycle containing a [pred]-state.) *)

val has_reachable_cycle_inside : t -> pred:(int -> bool) -> bool
(** Is there an infinite path from the root that is eventually confined to
    [pred]-states? (A reachable cycle lying entirely inside [pred];
    the prefix leading to it is unconstrained.) *)

val is_total : t -> bool
(** Every reachable state has at least one present child: the presented
    tree is total in the paper's sense (arbitrary branching up to [k]).
    Strictly k-ary trees ({!Rtree.t}) are the special case with no holes
    at all. *)

val to_kripke : t -> prop_of_label:(int -> string) -> Sl_kripke.Kripke.t
(** Read a {e total} presentation as a Kripke structure (present children
    are the successors). @raise Invalid_argument if not total. *)

val truncation : t -> depth:int -> t
(** The cut at a depth: every node of depth [< depth] keeps its children,
    the frontier consists of holes — the canonical finite-depth prefix. *)

val cut_variants : t -> depth:int -> t list
(** Non-total prefixes obtained by unfolding the top [depth] levels
    explicitly and turning one explicit node into a leaf (removing its
    whole subtree) while keeping the regular continuation elsewhere.
    These are exactly the shapes of the paper's Section 4.3
    counterexamples ("a tree with at least two paths, one all-[a]": cut
    below a node on the other path and the all-[a] path survives into
    every extension). Cutting a single sibling would {e not} be a prefix
    in the sense of Definition 4. *)

val enumerate_total : alphabet:int -> k:int -> max_states:int -> t list
(** All total partial-tree presentations (child slots present or absent,
    at least one present per state, all states reachable not enforced)
    with at most [max_states] states — the arbitrary-branching analogue of
    {!Rtree.enumerate}; includes unary presentations (sequences), which is
    what distinguishes the paper's Section 4.3 [ncl] facts from their
    k-ary restrictions. *)

val unfold : t -> depth:int -> Ftree.t
(** Finite prefix of the presented (possibly non-total) tree. *)

val pp : Format.formatter -> t -> unit
