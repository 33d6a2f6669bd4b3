(** Compile-once monitor registry.

    Each property is parsed/translated/decomposed once and its safety
    part compiled to a {!Packed_dfa.t}; the canonical packed key
    hash-conses language-equal monitors, so properties whose safety
    parts coincide share one compiled table and the streaming engine
    steps it once per event regardless of how many properties ride on
    it. *)

type prop = {
  id : int;  (** dense property index, in insertion order *)
  name : string;  (** source text (or caller-supplied label) *)
  formula : Sl_ltl.Formula.t option;  (** [None] for automaton-sourced *)
  monitor : int;  (** index into {!monitors} *)
}

type t

val create :
  ?alphabet:int -> ?valuation:(int -> string -> bool) -> unit -> t
(** Defaults: alphabet 2 with symbol 0 meaning the proposition [a]
    holds — the convention of the CLI and the Section 2.3 examples. *)

val add_formula : t -> ?name:string -> Sl_ltl.Formula.t -> int
(** Translate, decompose, compile, hash-cons; returns the property id.
    A formula already compiled into this registry is not translated
    again: its packed table is reused (and counts as a hash-cons
    hit). *)

val add_buchi : t -> name:string -> Sl_buchi.Buchi.t -> int
(** Register a property given directly as a Büchi automaton. *)

val compile_all : t -> (string option * Sl_ltl.Formula.t) list -> int list
(** {!add_formula} on each property in input order, returning their
    ids. [None] names default to the formula's printed form. *)

val load_lines : t -> ?path:string -> string list -> string list
(** Load a property file given as lines: one LTL formula per line, blank
    lines and ['#'] comments skipped. Returns human-readable
    ["path:line: parse error: ... (line skipped)"] messages for malformed
    lines and ["path:line: formula closure too large (line skipped)"] for
    formulas past {!Sl_ltl.Translate.max_closure}; such lines are skipped
    rather than aborting the load. Well-formed lines are compiled through
    {!compile_all}. *)

val load_file : t -> string -> (string list, string) result
(** {!load_lines} over the file at [path] (["-"]: standard input), read
    whole before anything compiles: [Ok] with the skipped lines'
    messages, or [Error msg] when the file cannot be opened or read — a
    directory, a missing or unreadable file, a failing read. The one
    property-file reader of [slc monitor], [slc pack], [slc serve] and
    its SIGHUP reload. *)

val alphabet : t -> int
val nprops : t -> int
val nmonitors : t -> int
(** Distinct compiled monitors (≤ {!nprops}). *)

val hits : t -> int
(** Hash-cons hits: properties that reused an existing monitor. *)

type stats = {
  props : int;  (** total properties compiled into the registry *)
  distinct_monitors : int;  (** deduplicated compiled-monitor count *)
  hashcons_hits : int;
      (** [props - distinct_monitors]: compilations that reused an
          existing packed table — the hash-cons effectiveness, reported
          directly instead of being observable only as the difference *)
}

val stats : t -> stats
(** Total vs deduplicated compiled-monitor counts in one snapshot. *)

val fingerprint : t -> string
(** The registry's structural identity as 16 hex digits: alphabet,
    properties (name and monitor assignment, in order), and each
    distinct monitor's canonical BFS key. Two registries compiled from
    the same property list over the same alphabet fingerprint
    identically; any change
    to a property, its order, or a compiled table changes it. Session
    snapshots embed this and refuse to restore against a registry whose
    fingerprint differs. *)

val prop : t -> int -> prop
val props : t -> prop list
val monitor_of_prop : t -> int -> int
val monitors : t -> Packed_dfa.t array
(** Snapshot of the compiled monitor table, for {!Engine.create}. *)
