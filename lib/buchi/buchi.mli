module Lasso = Sl_word.Lasso

(** Büchi automata on infinite words (Section 2.4 of the paper).

    A Büchi automaton is a 5-tuple [(Σ, Q, q0, δ, F)]; a run on
    [t ∈ Σ^ω] is an infinite state sequence following [δ], accepting iff it
    visits [F] infinitely often. States and symbols are integers; the
    transition relation is a list-valued table, so the same graph doubles as
    the prefix NFA ({!to_prefix_nfa}) used by the closure and complement
    constructions. *)

type t = {
  alphabet : int;
  nstates : int;
  start : int;
  delta : int list array array;
  accepting : bool array;
}

val make :
  alphabet:int -> nstates:int -> start:int -> delta:int list array array ->
  accepting:bool array -> t
(** Validates shapes and state ranges.
    @raise Invalid_argument on malformed input. *)

val of_edges :
  alphabet:int -> nstates:int -> start:int -> edges:(int * int * int) list ->
  accepting:int list -> t
(** Convenience constructor from [(source, symbol, target)] triples. *)

val empty_language : alphabet:int -> t
(** A one-state automaton with no accepting states: [L = ∅]. *)

val universal : alphabet:int -> t
(** A one-state all-accepting automaton with every self-loop:
    [L = Σ^ω]. *)

(** {1 Graph analysis}

    All analyses run on the shared packed-CSR kernel
    {!Sl_core.Digraph}; {!graph} exposes the handle. *)

val graph : t -> Sl_core.Digraph.t
(** The symbol-labeled transition graph as a CSR kernel graph (built on
    demand; successor order and duplicates preserved). *)

val reachable : t -> bool array

val sccs : t -> int array * int list list
(** Tarjan strongly connected components on the (symbol-erased) transition
    graph. Returns the component id of each state and the components in
    reverse topological order. *)

val on_cycle : t -> bool array
(** [on_cycle b q] iff [q] lies on some cycle ([q] reaches itself in one or
    more steps): a nontrivial SCC, or a self loop. *)

val live_states : t -> bool array
(** States [q] with [L(B(q)) ≠ ∅]: those reaching an accepting state that
    lies on a cycle. These are the states the paper's closure operator
    keeps ("removes states that cannot reach an accepting state" — read as
    accepting states occurring infinitely often). *)

val restrict : t -> bool array -> t
(** Keep exactly the marked states (renumbered). If the start is dropped,
    the result is an [empty_language] automaton. *)

val trim_live : t -> t
(** Restrict to reachable live states. The language is unchanged. *)

(** {1 Language probes} *)

val is_empty : t -> bool
(** [L(B) = ∅], via accepting-cycle reachability. *)

val nonempty_witness : t -> Lasso.t option
(** A lasso in the language, if nonempty (shortest-path BFS for both the
    spoke and the cycle). *)

type lasso_product = {
  graph : Sl_core.Digraph.t;
      (** node [q * positions + p]: state [q] at lasso position [p] *)
  reach : bool array;  (** nodes reachable from [(start, 0)] *)
  positions : int;  (** spoke + period *)
}

val lasso_product :
  start:int -> delta:int list array array -> Lasso.t -> lasso_product
(** A transition structure × a lasso's positions, the library's one such
    product: {!accepts_lasso}, [Gnba] and [Acceptance] each run their own
    acceptance check on it. *)

val accepts_lasso : t -> Lasso.t -> bool
(** Membership of an ultimately periodic word: search for an accepting
    cycle in {!lasso_product}. *)

val to_prefix_nfa : t -> Sl_nfa.Nfa.t
(** The same graph read as an NFA on finite words, all states accepting:
    its language is the set of finite runs' labels from the start (the
    prefix language of [B]'s run tree). *)

val rename_start : t -> int -> t
(** The automaton [B(q)] of Section 4.4's notation: same structure, start
    moved to [q]. *)

val size_info : t -> string
(** Human-readable "n states, m transitions". *)

val pp : Format.formatter -> t -> unit

val random : ?seed:int -> alphabet:int -> nstates:int -> density:float ->
  accepting_fraction:float -> unit -> t
(** Random automaton for property tests and benches: each [(q, s, q')]
    transition is present with probability [density]; each state accepting
    with probability [accepting_fraction]. Deterministic in [seed]. *)
