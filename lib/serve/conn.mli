(** Per-connection state machine: bounded buffers on both sides,
    transport-agnostic (the select loop moves bytes; tests drive it
    directly).

    Input side: the connection drives one {!Sl_runtime.Ingest.scanner}
    — the line framer [slc monitor] uses — capped at [max_line], so at
    most one partial line of [max_line] bytes is buffered and an event
    line for a known trace id allocates nothing. A longer line is
    reported once as a structured [error] record and discarded up to
    its newline — the connection survives, memory does not grow with
    hostile input. Malformed lines are echoed back as [error] records
    and skipped. Valid events batch into the scanner's chunk, whose ids
    join the connection's touched set and which goes through
    {!Daemon.feed}; the chunk is flushed before {!on_bytes} returns, so
    it never straddles a registry reload.

    Output side: one reusable byte slab per connection, written to the
    socket in place through {!output}. Records rendered while
    processing one read coalesce in a scratch buffer and move into the
    slab in one blit per read — no string per record or per read. When
    the unwritten bytes pass the high-water mark, {!wants_read} turns
    false and the loop stops selecting the socket for reading —
    back-pressure propagates to the client's TCP window instead of an
    unbounded queue. While streaming, records are only generated by
    reading, so the queue is bounded by [hwm] plus one read's worth of
    records.

    A first line that starts with ["GET "] and fits [max_line] flips
    the connection into one-shot HTTP mode — decided before the
    scanner sees a byte, however the reads split the line: a [200]
    Prometheus exposition for [/metrics], any reply the optional
    [http] handler produces for other paths (the daemon plugs
    {!Introspect.handler} in here), and a [404] otherwise — queued,
    then the connection closes after the write drains. [slc serve]
    needs no second protocol or port for scraping.

    Client EOF ({!on_eof}) finalizes: an unterminated ["GET "] first
    line is answered as a request, exactly as with its newline;
    otherwise any unterminated last line is processed, then every touched trace's verdicts and the summary
    counters are frozen (8 bytes per (trace, property) record, see
    {!Daemon.snapshot}) and rendered in pages: a page is rendered
    while fewer than [hwm] bytes are pending, at EOF and again as
    {!consumed} drains the slab, so the bound holds at EOF too —
    [hwm] plus one record. The bytes are those of an eager dump at EOF,
    whatever other connections or a reload do in between. The
    connection then drains and closes.

    Buffers: the scanner (with its chunk and carry buffers), the
    scratch, the slab and the touched-trace set come from the daemon's
    free list ({!Daemon.take_bufs}) and return to it when the connection is done
    and fully drained (in {!consumed} or {!drain_output}), or when the
    loop {!release}s it. A slab that grew past [hwm] + 64 KiB is
    dropped rather than pooled. *)

type t

val create :
  ?max_line:int ->
  ?hwm:int ->
  ?listener:string ->
  ?http:(string -> (string * string * string) option) ->
  Daemon.t ->
  t
(** Fresh connection. The [hello] record is queued once the protocol is
    known (first non-[GET] line, or EOF). [max_line] caps the
    partial-line buffer (default 65536); [hwm] is the output high-water
    mark in bytes (default 262144). [listener] labels this connection's
    metrics series and /status row (default ["local"]; the loop passes
    ["unix"]/["tcp"]). [http] answers one-shot GETs for paths other
    than the built-in [/metrics]: [path -> Some (status, content_type,
    body)], e.g. [("200 OK", "application/json", body)]. *)

val on_bytes : t -> string -> unit
(** Bytes arrived from the transport. Never raises on hostile input. *)

val on_bytes_raw : t -> bytes -> int -> int -> unit
(** [on_bytes_raw c buf off len]: {!on_bytes} over a slice of a
    reusable read buffer, without copying it — the connection retains
    nothing from the slice past the call, so the select loop may refill
    [buf] immediately. Byte-identical behavior to [on_bytes c
    (Bytes.sub_string buf off len)]. *)

val on_eof : t -> unit
(** The client half-closed: flush, dump verdicts for touched traces,
    queue the summary, mark the connection draining. An unterminated
    request gets its HTTP reply alone. *)

val wants_read : t -> bool
(** The loop should select this connection for reading: still in
    streaming mode, not draining, and under the output high-water
    mark. *)

val output : t -> bytes * int * int
(** [(slab, off, len)]: the pending bytes, in place — write from
    [slab.[off]] up to [len] bytes, then {!consumed}. [len = 0] when
    nothing is pending. The view is valid until the next call into the
    connection. *)

val consumed : t -> int -> unit
(** [n] bytes of {!output} were written. Renders the next page of an
    EOF dump once fewer than [hwm] bytes remain, and returns the
    buffers to the pool once the connection is done and drained. *)

val pending_output : t -> int
(** Unwritten output bytes (the back-pressure quantity). *)

val should_close : t -> bool
(** Draining and fully drained — the loop closes the socket. *)

val drain_output : t -> string
(** Pop everything, the whole EOF dump included (tests and in-process
    harnesses). *)

val release : t -> unit
(** Return the connection's buffers to the pool now, dropping any
    unwritten output — for a connection closed before it drained (a
    dead client). Idempotent; the connection then reads as closed and
    drained. *)

val touched : t -> int list
(** Trace ids this connection has fed, ascending. *)

val events : t -> int
val errors : t -> int

(** {2 Introspection} — the /status connection table reads these. *)

val id : t -> int
(** Process-unique connection id, in accept order. *)

val lines : t -> int
(** Protocol lines seen so far. *)

val listener : t -> string

val mode_name : t -> string
(** ["lines"], ["http"], or ["done"]. *)

val stalled : t -> bool
(** Back-pressured: still streaming but at/over the high-water mark,
    so the loop has stopped reading the socket. *)
