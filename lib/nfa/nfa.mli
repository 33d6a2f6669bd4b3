(** Nondeterministic finite automata over finite words.

    The prefix behaviour of a Büchi automaton is an NFA (same graph, finite
    semantics); the closure constructions of the paper move back and forth
    between the two views, so this module mirrors the Büchi representation:
    integer states, integer symbols, a list-valued transition function. *)

type t = {
  alphabet : int;
  nstates : int;
  starts : int list;
  delta : int list array array;  (** [delta.(q).(s)] lists successors. *)
  accepting : bool array;
}

val make :
  alphabet:int -> nstates:int -> starts:int list ->
  delta:int list array array -> accepting:bool array -> t
(** Validates shapes and ranges. [nstates = 0] with no starts denotes the
    empty language. *)

val empty : alphabet:int -> t
(** The automaton of the empty language. *)

val accepts : t -> int list -> bool
(** Membership by running the subset frontier as a packed bitset — one
    bit per state, no per-step sorting. *)

val successors : t -> int list -> int -> int list
(** Set image of a state set under one symbol (sorted, deduplicated). *)

val graph : t -> Sl_core.Digraph.t
(** The symbol-labeled transition graph as a CSR kernel graph. *)

val reachable : t -> bool array

val trim : t -> t
(** Restrict to states both reachable and co-reachable (can reach an
    accepting state). The language is unchanged; on a trimmed automaton
    every run prefix extends to an accepted word. *)

val determinize : t -> Dfa.t
(** Subset construction; the result is complete (includes the sink for the
    empty set). State sets are interned through the
    {!Sl_core.Bitset} kernel with an explicit worklist, so each subset
    state is expanded exactly once. *)

val union : t -> t -> t
val is_empty : t -> bool
val language_equal : t -> t -> bool
(** Via determinization. *)

val is_prefix_closed : t -> bool

val prefix_closure : t -> t
(** The automaton of the prefix closure of the language: trim, then accept
    everywhere. *)

val reverse : t -> t
(** The mirror-language automaton: edges flipped, start and accepting
    roles exchanged. *)

val reverse_determinize_minimize : t -> Dfa.t
(** Canonical minimal DFA of the language (determinize then Moore-minimize;
    the name records that this is the test oracle for language
    equality). *)

val brzozowski_minimize : t -> Dfa.t
(** Brzozowski's double-reversal minimization:
    [determinize ∘ reverse ∘ determinize ∘ reverse]. Produces the minimal
    DFA directly — checked against the Moore route in the tests. *)

val pp : Format.formatter -> t -> unit
