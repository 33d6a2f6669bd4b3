(** Compiled safety monitors in packed transition-table form.

    A monitor DFA (the subset automaton of the safety part's prefix
    language, compiled by [Sl_buchi.Monitor]) is minimized, renumbered
    into the canonical BFS order, and flattened into a single [int
    array] indexed by [state * alphabet + symbol] — one array read per
    event, no per-step allocation. Because the minimal DFA is unique up
    to isomorphism and the BFS numbering fixes the isomorphism,
    language-equal monitors pack to {e identical} tables; {!key} exposes
    that identity so the registry can hash-cons monitors across
    properties. *)

type t = private {
  alphabet : int;
  nstates : int;
  trans : int array;  (** [trans.(q * alphabet + s)] is the successor *)
  accepting : bool array;
  can_trip : bool array;
      (** a rejecting state is reachable from here; once false the
          monitor is admissible forever and can be retired *)
  pre_tripped : bool;
      (** the empty prefix is already bad (the empty property) *)
  vacuous : bool;
      (** the monitor can never trip: the property's safety part is
          universal, i.e. the property is pure liveness *)
  key : string;  (** canonical identity for hash-consing *)
}

val start : int
(** Packed monitors always start in state [0]. *)

val of_buchi : Sl_buchi.Buchi.t -> t
(** Compile the monitor of a property automaton's safety part
    ([Monitor.create] then {!of_monitor}). *)

val of_monitor : Sl_buchi.Monitor.t -> t
(** Pack an already-compiled monitor's DFA. *)

val of_dfa : Sl_nfa.Dfa.t -> t
(** Pack an arbitrary prefix DFA (minimizes and canonicalizes first). *)

val step : t -> int -> int -> int
(** [step pd q s] is the packed successor lookup. *)

val is_accepting : t -> int -> bool
val can_trip : t -> int -> bool
val key : t -> string

val shortest_bad_prefix : t -> int list option
(** The monitor's certificate: the least (in length, then
    lexicographic order) finite word that no member of the property's
    safety part extends — a BFS path from {!start} to a rejecting
    state. [Some []] when the monitor is [pre_tripped] (the empty
    property), [None] when it is [vacuous] (pure liveness: no bad
    prefix exists). *)

val pp : Format.formatter -> t -> unit

val fuse : t array -> int array * int array
(** [fuse monitors] is [(mega, base)]: every monitor's transition rows
    concatenated into one contiguous array, with monitor [m]'s rows
    starting at [base.(m)]. The entry at [base.(m) + q * alphabet + s]
    is [(s' lsl 2) lor (can_trip lsl 1) lor accepting] for [s' = step
    monitors.(m) q s] — successor and verdict bits in one read, the
    layout a per-monitor stepping loop walks (the reference engine the
    product engine is tested against; the benchmark sizes it). All
    monitors must share an alphabet. *)

(** {1 Serialization}

    Packed monitors reach disk as the entries of a monitor pack
    ([Pack], kind {!Sl_core.Wire.kind_pack}). Only the defining fields
    — canonical key, alphabet, state count, transition table,
    acceptance bits — are stored; the derived fields ([can_trip],
    [pre_tripped], [vacuous]) are recomputed on decode exactly as
    compilation computes them, so a decoded monitor is field-for-field
    identical to a fresh compile of the same property. *)

val encode : Sl_core.Wire.writer -> t -> unit
(** Append the monitor's payload (no framing) to a writer. *)

val decode : Sl_core.Wire.reader -> t
(** Inverse of {!encode}. Validates table shape, successor ranges and
    that the stored key is the canonical key of the stored table.
    @raise Sl_core.Wire.Corrupt on any malformed bytes. *)
