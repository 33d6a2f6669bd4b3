(** Execution monitors for safety properties — the paper's Schneider
    connection made executable.

    A monitor observes a finite, growing prefix and must reject exactly
    the executions with a {e bad prefix}: one no member of the property
    extends. Such monitors exist precisely for safety properties, since
    only there does every violation have a finite witness; for any other
    property the monitor built here is the monitor of its safety part
    ([bcl B]) — the strongest enforceable approximation (Theorem 6 is why
    it is the strongest).

    This module only compiles. The runtime ([Sl_runtime.Packed_dfa])
    minimizes and packs the DFA, and [Sl_runtime.Engine] steps it. *)

type t
(** A compiled monitor: the subset DFA of the safety part's prefix
    language. Immutable. *)

val create : Buchi.t -> t
(** Monitor for the safety part of an arbitrary property automaton. *)

val dfa : t -> Sl_nfa.Dfa.t
(** The compiled monitor automaton: the subset DFA of the safety part's
    prefix language. A prefix is bad exactly when it leads to a
    rejecting state; the language is prefix-closed, so a run never
    returns to acceptance. *)

val empty_property : t -> bool
(** The degenerate corner: the property's safety part is empty, so even
    the empty prefix is bad and {!dfa} is not meaningful. *)
