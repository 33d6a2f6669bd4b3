(** The serving core: one monitoring {!Sl_runtime.Session} shared by
    every connection.

    All client streams multiplex onto a single engine — "which
    connection an event arrived on" is deliberately not part of the
    monitoring semantics, only trace ids are, so two clients feeding the
    same trace id interleave into one trace exactly as two files
    concatenated offline would.

    The daemon owns the {!Sl_runtime.Engine} retire hook and routes its
    firings to whichever sink is feeding right now: {!feed} installs the
    caller's sink for the duration of the engine feed, so incremental
    trip/retire records land on the connection that delivered the
    triggering chunk. Pre-tripped (empty-property) verdicts come through
    the same hook: the engine fires them at position 0 as a trace
    materializes, and the hook renders them with cause ["pretripped"]
    (["trip"] at any later position), ahead of that trace's first
    step records. The per-trace EOF
    {!dump} then re-states every property's current verdict, making each
    connection's total output a superset of the offline report rows for
    the traces it touched. *)

type t

val make : ?pool:int -> Sl_runtime.Session.t -> t
(** Wrap a session (fresh or restored) and install the retire hook on
    its engine. Traces already present (a [--resume]d snapshot) are
    already materialized, so the engine fires nothing for them: their
    verdicts surface via {!dump}, not as spurious incremental records. [pool] bounds the free list of
    connection buffer sets (default 8; [0] gives every connection fresh
    buffers). *)

val session : t -> Sl_runtime.Session.t
val registry : t -> Sl_runtime.Registry.t
val engine : t -> Sl_runtime.Engine.t
val ingest : t -> Sl_runtime.Ingest.t
val alphabet : t -> int
val fingerprint : t -> string

val feed : t -> buf:Buffer.t -> Sl_runtime.Ingest.chunk -> unit
(** Feed one chunk through the engine, appending the NDJSON verdict
    records it causes (trips, admissible retirements, and the
    pre-tripped verdicts of traces this chunk materializes, each at its
    trace's first event) to [buf] — the
    caller's reusable scratch buffer, so a whole chunk's records
    coalesce into one output slab. The buffer is installed as the hook's
    target only for the duration of the call. *)

val dump : t -> buf:Buffer.t -> trace:int -> unit
(** Append the current verdict of every property on [trace] (cause
    ["eof"]) to [buf] — the connection-close dump that squares the
    served stream with the offline {!Sl_runtime.Verdict} report. *)

val add_summary : t -> Buffer.t -> conn_events:int -> conn_errors:int -> unit
(** Append the per-connection EOF summary record over the engine-global
    counters. *)

(** {2 EOF snapshots}

    A closing connection's dump, frozen at its EOF and rendered later
    in pages: 8 bytes per (trace, property) record until rendered, and
    the same bytes as {!dump} for each trace plus {!add_summary} at the
    moment of the snapshot, however the engine or the registry changes
    in between. *)

type snapshot

val snapshot : t -> ids:int array -> conn_events:int -> conn_errors:int ->
  snapshot
(** Freeze the current verdict of every property on each trace of
    [ids] (dumped in that order), the property names and the summary
    counters. *)

val render_page : t -> snapshot -> Buffer.t -> limit:int -> bool
(** Append the snapshot's next records to the buffer while it holds
    fewer than [limit] bytes; [true] once every verdict record and the
    closing summary have been rendered. *)

(** {2 Connection buffer sets}

    The per-connection buffers {!Conn} would otherwise allocate afresh
    for every connection, recycled through a small free list owned by
    the daemon. *)

type bufs = {
  scanner : Sl_runtime.Ingest.scanner;
      (** the connection's line framer, bound to the daemon's interner;
          its chunk and carry buffers are pooled with it *)
  scratch : Buffer.t;  (** records rendered by one call *)
  mutable slab : Bytes.t;  (** unwritten output bytes *)
  touched : Sl_core.Int_table.t;
      (** the trace ids fed, as the keys of an int table: a known id
          costs one probe and no allocation *)
}

val take_bufs : t -> bufs
(** A set from the free list (scratch and touched set empty; the taker
    {!Sl_runtime.Ingest.restart}s the scanner), or a fresh one. *)

val give_bufs : t -> max_slab:int -> bufs -> unit
(** Return a set once its owner is done with it. It is dropped instead
    when the free list is full, when its slab grew past [max_slab]
    bytes, or when it touched more than 65536 traces (the pooling cap:
    clearing keeps the touched set's arrays, which such a set has grown
    past 2 MiB, and costs a pass over them on every reuse). *)

val swap_session : t -> Sl_runtime.Session.t -> unit
(** Hot-reload commit point: detach the hook from the old engine,
    adopt [s] and install the hook there. All monitor/property lookup
    tables are rebuilt from the new registry; traces present in [s] are
    already materialized, so they get no pre-tripped records. [s] must share the running session's interner
    and alphabet, as {!Reload.carry_over}'s sessions do: live and
    pooled scanners keep interning into it.
    @raise Invalid_argument otherwise. *)
