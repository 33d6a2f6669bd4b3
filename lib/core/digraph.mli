(** Packed CSR (compressed-sparse-row) directed graphs over integer
    nodes, with the one canonical implementation of the graph analyses
    every automaton layer needs: Tarjan strongly connected components
    (iterative — no call-stack overflow on deep automata), forward and
    backward reachability, condensation, and accepting-cycle / fair-SCC
    search parameterized by membership predicates.

    A graph stores its successors in one flat [int array]; per-node (and,
    for symbol-labeled graphs, per-(node, symbol)) extents live in an
    offset array. Iterating a node's successors is a contiguous array
    scan — no list traversal, no per-edge allocation, and no polymorphic
    [compare] — which is what the automata hot paths (emptiness, closure,
    classification) spend their time doing.

    Successor {e order} is preserved from the builder's input, and
    duplicate edges are kept: traversals visit nodes in exactly the order
    the list-based automata code did, so rewritten layers produce
    byte-identical results. *)

type t

val nodes : t -> int
(** Number of nodes; node ids are [0 .. nodes - 1]. *)

val nsyms : t -> int
(** Number of symbol labels ([1] for unlabeled graphs). *)

val nedges : t -> int
(** Total edge count, duplicates included. *)

(** {1 Builders} *)

val of_delta : int list array array -> t
(** [of_delta delta] reads an automaton transition table
    [delta.(node).(symbol) = successor list]. Rows must be uniform in
    width and targets in range.
    @raise Invalid_argument on ragged rows or out-of-range targets. *)

val of_successors : int list array -> t
(** Unlabeled graph from per-node successor lists ([nsyms = 1]). *)

val of_array_delta : int array array -> t
(** Deterministic transition table: [delta.(node).(symbol)] is the unique
    successor (a DFA's delta). *)

val of_fn : nodes:int -> (int -> int list) -> t
(** Materialize a successor function over [0 .. nodes - 1]
    ([nsyms = 1]). *)

(** {1 Access} *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** All successors of a node, symbols erased, in storage order. *)

val iter_succ_sym : t -> int -> int -> (int -> unit) -> unit
(** [iter_succ_sym g v s f]: successors of [v] on symbol [s]. *)

val sym_degree : t -> int -> int -> int
(** Number of [s]-successors of [v] (duplicates included). *)

val succs_sym : t -> int -> int -> int list
(** The [s]-successor list of [v], in storage order (fresh list). *)

val has_self_loop : t -> int -> bool

(** {1 Reachability} *)

val reachable : ?filter:(int -> bool) -> t -> int list -> bool array
(** Nodes reachable from the sources (sources included), restricted to
    nodes satisfying [filter]. Iterative DFS. *)

val reachable_from : ?filter:(int -> bool) -> t -> bool array -> bool array
(** As {!reachable} with a seed set given as a flag array. To compute
    {e backward} reachability, pass the {!reverse} graph. *)

val shortest_path :
  ?filter:(int -> bool) -> ?nonempty:bool -> t -> src:int ->
  target:(int -> bool) -> (int * int) list option
(** [shortest_path g ~src ~target]: the [(symbol, node)] edges of a
    shortest path from [src] to a node satisfying [target], or [None].
    Breadth-first, successors tried symbol by symbol in storage order:
    the path returned ends at the first target discovered, the least
    shortest path (paths compare by length, then edge by edge: symbol,
    then storage position) — on a deterministic graph, the least word
    of minimal length in (length, lexicographic) order. Intermediate
    nodes must satisfy [filter] (default: all); the endpoint only
    [target], and [src] is expanded whatever [filter] says. With
    [~nonempty:true] the path takes at least one step, so [src] is
    reached again only along a cycle; otherwise a [target] [src] gives
    [Some []]. *)

val reverse : t -> t
(** The transpose graph (symbols erased, [nsyms = 1]). *)

(** {1 Strongly connected components} *)

type scc = {
  comp : int array;
      (** node → component id, [-1] for nodes excluded by the filter *)
  count : int;  (** number of components *)
  comps : int list list;
      (** members per component, each ascending in DFS-discovery order;
          the head of the list is the last-completed component
          (id [count - 1]) *)
  nontrivial : bool array;
      (** per component id: more than one member, or a self-loop (within
          the filter) *)
}

val sccs : ?filter:(int -> bool) -> t -> scc
(** Tarjan on the subgraph induced by [filter] (default: all nodes).
    Iterative — an explicit frame stack replaces recursion, so
    path-shaped automata of any depth are safe. Component ids are
    assigned in completion order, identical to the textbook recursive
    formulation. *)

val condense : t -> scc -> t
(** The component DAG: one node per component, edges between distinct
    components, deduplicated. Node ids are component ids. *)

(** {1 Cycle search} *)

val has_good_scc : ?filter:(int -> bool) -> t -> predicates:(int -> bool) list -> bool
(** Is there a nontrivial SCC (within [filter]) containing, for every
    predicate, at least one satisfying member? With one predicate this is
    Büchi accepting-cycle search; with one per acceptance set it is
    generalized-Büchi emptiness; over a product graph it is lasso
    membership. *)

val good_scc_members : ?filter:(int -> bool) -> t -> predicates:(int -> bool) list -> bool array
(** The members of all such components — the seed set of fair-SCC
    computations ([E_fair G] in fair CTL). *)
