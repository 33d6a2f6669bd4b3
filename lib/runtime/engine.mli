(** The streaming monitoring engine: M compiled monitors over N
    concurrent traces.

    Safety properties are closed under meets (paper §3), so the fleet
    runs as a shadow product automaton, built once when the engine is
    created or restored. Every
    monitor that can trip becomes a Mealy machine: an edge into the
    reject sink is a self-loop that emits a trip bit, an edge from a
    state that can still trip to one that cannot emits a retire bit
    (and then freezes). The monitors are grouped in contiguous index
    runs of at most 62 monitors and 4096 product states; a product
    edge holds the successor and the trip and retire masks. A trace is
    a few ints: per group its product state and tripped mask, and its
    event count. Trip positions live in a sparse table, so a trace
    that never trips allocates nothing, and the per-event step is one
    table read per group.

    Monitors retire early — on trip (violation is irrevocable), and as
    admissible-forever once no rejecting state is reachable from their
    current state; vacuous (pure-liveness) and pre-tripped
    (empty-property) monitors are in no group at all. *)

type verdict =
  | Vacuous
      (** the property's safety part is universal: no finite prefix can
          ever be rejected (unmonitorable liveness) *)
  | Admissible  (** no bad prefix seen (so far, or provably ever) *)
  | Violation of { position : int }
      (** tripped at the [position]-th event of the trace (1-based; [0]
          for the empty property, whose empty prefix is already bad) *)

type t

val create : monitors:Packed_dfa.t array -> unit -> t
(** A fresh run (no traces, zero counters) over [monitors]. All
    monitors must share an alphabet (the registry guarantees this).
    Builds the product groups from the start state, greedily: a group
    closes when adding the next monitor would pass 62 monitors or 4096
    product states; a group of one holds every state of its monitor.
    Sets the [engine_product_groups] and [engine_product_states] gauges
    and records an [engine.plan] span ([groups], [states],
    [build_us]). The product is derived layout, never serialized:
    per-trace states, the session codec, and reload carry-over index
    monitors by their unchanged canonical keys.
    @raise Invalid_argument if the monitors disagree on alphabet. *)

val monitors : t -> Packed_dfa.t array
(** The monitors the engine was built over, in index order. *)

val step : t -> trace:int -> symbol:int -> unit
(** Feed one event. Trace ids are dense nonnegative ints (see
    [Ingest]); a fresh id takes its slots in the flat trace table on
    first use. Records no chunk telemetry and no span, so a caller that
    steps one event at a time pays no clock read per event; only the
    per-monitor retirement counters move, as in {!feed}.
    @raise Invalid_argument if the symbol is outside the alphabet. *)

val feed :
  t -> ?off:int -> n:int -> traces:int array -> symbols:int array ->
  unit -> unit
(** Batched ingestion of [n] events from parallel arrays
    [traces.(off..)] / [symbols.(off..)] — the chunk shape produced by
    [Ingest]. Equivalent to [n] calls to {!step}, without per-event
    call/option overhead; while collection is enabled it also records
    an [engine.feed] span and the chunk's engine metrics. The
    [engine_minor_words_total] and [engine_minor_words_per_event]
    metrics count the engine's own allocation: whatever the retire
    hook allocates is left out. *)

val verdict : t -> trace:int -> monitor:int -> verdict
(** Current verdict of a distinct monitor on a trace (never-seen traces
    report the fresh verdict). Property-level verdicts go through
    [Registry.monitor_of_prop]. *)

(** {1 Incremental verdict hook}

    The serving layer's window into the run: retirements surface as
    they happen instead of only in the EOF report. *)

val set_retire_hook :
  t ->
  (trace:int -> monitor:int -> position:int -> tripped:bool -> unit) option ->
  unit
(** Install (or clear) a callback fired once per (trace, distinct
    monitor) retirement: [tripped = true] for a violation ([position]
    is the 1-based shortest-bad-prefix position), [false] for
    admissible-forever ([position] is the event at which no rejecting
    state remained reachable). Each monitor instance retires at most
    once ever, so the hook fires at most [ntraces * nmonitors] times
    over a run. The hook is the one source of verdict events: a
    pre-tripped (empty-property) monitor, whose bad prefix is the empty
    word, trips through it at [position = 0] when a trace is
    materialized, before that trace's first event steps; a step trips
    at [position >= 1]. Vacuous monitors never retire and never pass
    through the hook.

    Ordering: the hook fires in exact event order, from inside the
    step that retires the monitor, so {!feed} and the equivalent
    sequence of {!step} calls fire the same sequence. A new trace's
    pre-tripped monitors fire first, in ascending index; monitors
    retiring at the same event fire in ascending monitor index, trips
    and admissible retirements interleaved, whatever group they are
    in. Each firing at a step also bumps the retiring monitor's
    [engine_monitor_trips_total] or [engine_monitor_retires_total]
    series (pre-tripped firings count in neither). The hook must not
    call back into the engine's stepping API. Restoring a snapshot
    fires no hooks: restored traces are already materialized. *)

(** {1 Metrics counters} *)

val nmonitors : t -> int

val ntraces : t -> int
val events : t -> int
(** Events ingested since creation; for a {!restore}d engine, the sum
    of its traces' event counts plus those ingested since. *)

val trace_events : t -> int -> int
val live : t -> int
(** Live (still undecided) monitor instances across all traces: a
    monitor is live on a trace while it is untripped and its state can
    still trip. O(1): the engine keeps the count as each trace's state
    changes (materialization, retirement), and {!restore} takes it
    from the restored traces, so it is exact at every point and never
    walks the trace table. Derived state: snapshots neither save nor
    restore it. *)

val tripped : t -> int
(** Monitor instances retired by violation. Equal to the trace table's
    census at every point: no operation sets it. *)

val retired_admissible : t -> int
(** Monitor instances retired admissible-forever; likewise the
    census. *)

val nvacuous : t -> int
(** Vacuous monitors (per trace; they are never instantiated live). *)

(** {1 Introspection census}

    Exact counts derived from the trace table itself (not the
    process-local telemetry counters), so they square with the offline
    report even after a [--resume] — the serving layer's [/monitors]
    and [/traces] endpoints read these. *)

type monitor_counts = {
  mc_live : int;  (** traces where this monitor is still undecided *)
  mc_tripped : int;  (** traces where it retired by violation *)
  mc_retired : int;  (** traces where it retired admissible-forever *)
}

val monitor_counts : t -> monitor_counts array
(** One entry per distinct monitor, over every materialized trace.
    Vacuous monitors count all-zero (they are never instantiated).
    O(ntraces x nmonitors). *)

val trace_summary : t -> int -> (int * int * int) option
(** [(events, live, tripped)] for a materialized trace id, [None]
    otherwise. Allocation-light ([export_trace] copies state out;
    this only counts). *)

(** {1 Run-state externalization}

    The session codec's view of a run: per-trace, per-monitor packed
    states as plain arrays, decoded from the product's tuple table and
    the trip table. Exporting copies out of the engine; {!restore}
    validates every field against the monitors before it builds
    anything, so a corrupted snapshot can never yield an engine in a
    state the run loop couldn't have produced. *)

type trace_state = {
  ts_events : int;  (** events this trace has seen *)
  ts_states : int array;
      (** DFA state per monitor (length M): the current one, or for a
          tripped monitor the state it tripped in *)
  ts_live : int array;
      (** live monitor indices, ascending ({!restore} accepts any
          order) *)
  ts_tripped_at : int array;
      (** trip position per monitor, [-1] if not tripped (length M) *)
}

val export_trace : t -> int -> trace_state option
(** [None] for ids the engine has never materialized. *)

val restore : monitors:Packed_dfa.t array -> trace_state option array -> t
(** [restore ~monitors traces] is a fresh engine over [monitors] whose
    trace [id] is materialized in state [traces.(id)] when that is
    [Some]. Validates every trace first: lengths against the monitor
    count, states against each monitor's state count, trip positions
    against the event count, the event count against the trip table's
    range ([events * max states] must fit an int), the live list for
    range/duplicates/consistency with [ts_tripped_at], and that every
    monitor is where a run can leave it: vacuous and pre-tripped
    monitors in the start state (pre-tripped ones tripped at 0), an
    untripped monitor live exactly while its state can still trip.
    @raise Invalid_argument on any inconsistency.

    The states need not be reachable from the start state (reload
    carry-over starts fresh monitors at state 0 mid-trace): the
    product groups are built once, as in {!create}, with the start
    vector and every distinct restored state vector as roots, so no
    valid snapshot is refused. The counters ({!events}, {!tripped},
    {!retired_admissible}, {!live}) are the census of the restored
    traces. Fires no hooks. *)
