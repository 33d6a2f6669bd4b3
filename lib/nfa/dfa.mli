(** Deterministic finite automata over finite words.

    DFAs here are {e complete}: every state has exactly one successor per
    symbol. They arise from NFAs by subset construction ({!Nfa.determinize})
    and support the boolean operations needed to complement safety
    languages: a closed ω-language is determined by its set of finite
    prefixes, so complementing the Büchi closure automaton reduces to
    complementing a DFA over finite words (see [Sl_buchi.Complement]). *)

type t = {
  alphabet : int;  (** number of symbols *)
  nstates : int;
  start : int;
  delta : int array array;  (** [delta.(q).(s)] is the unique successor *)
  accepting : bool array;
}

val make :
  alphabet:int -> nstates:int -> start:int -> delta:int array array ->
  accepting:bool array -> t
(** Validates shapes and ranges. @raise Invalid_argument on malformed
    input. *)

val accepts : t -> int list -> bool
val step : t -> int -> int -> int
val run : t -> int list -> int
(** State reached from the start on the given word. *)

val complement : t -> t
(** Flips acceptance; correct because DFAs are complete. *)

val product : bool_op:(bool -> bool -> bool) -> t -> t -> t
(** Pairing construction with pointwise acceptance combination:
    intersection with [( && )], union with [( || )], symmetric difference
    with [( <> )]. Alphabets must agree. *)

val intersect : t -> t -> t
val union : t -> t -> t

val graph : t -> Sl_core.Digraph.t
(** The transition graph as a CSR kernel graph (one successor per
    (state, symbol)). *)

val reachable : t -> bool array
val is_empty : t -> bool
(** No reachable accepting state. *)

val some_accepted_word : t -> int list option
(** The least shortest accepted word (in length, then lexicographic
    order), if any: {!Sl_core.Digraph.shortest_path} to an accepting
    state. *)

val equivalent : t -> t -> bool
(** Language equality via emptiness of the symmetric difference. *)

val subset : t -> t -> bool
(** [subset a b] iff [L(a) ⊆ L(b)]. *)

val minimize : t -> t
(** Moore partition refinement on the reachable part. The result is the
    canonical minimal complete DFA of the language. *)

val is_prefix_closed : t -> bool
(** The language is prefix-closed: every prefix of an accepted word is
    accepted. This is the finite-word shadow of ω-safety. *)

val is_total_language : t -> bool
(** Accepts every word. *)

val pp : Format.formatter -> t -> unit
