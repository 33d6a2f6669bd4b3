(** Trace ingestion front end: the [trace-id symbol] line protocol.

    One event per line: a whitespace-free trace id followed by a strict
    decimal symbol (letter index). Blank lines and ['#'] comments are
    skipped; malformed lines are reported with their 1-based line number
    and skipped. Events are delivered to the engine in reusable batched
    chunks of parallel [int array]s.

    The {!scanner} is the one line framer: [slc monitor] and every
    [slc serve] connection cut their byte streams into lines through
    it. It walks raw read blocks in place and allocates only on new
    trace ids and on the error path. *)

type t
(** The trace-id interner: string ids to the dense ints the engine
    indexes traces by, in first-seen order. Internally an
    open-addressed table of one int per slot, probed from a key
    computed over the byte slice (a short id's packed bytes, a longer
    one's hash), so looking up a known id from the middle of a read
    buffer allocates nothing. *)

val create : unit -> t
val ntraces : t -> int
val name : t -> int -> string

val names : t -> string array
(** All interned trace ids in first-seen order ([names t].(id) is
    [name t id]) — the table the session codec externalizes. Re-interning
    the array in order into a fresh interner reproduces the id
    assignment exactly. *)

val intern : t -> string -> int

val home_slot : t -> string -> int
(** The slot of [t]'s current table where the probe for an id starts
    (its home): for an id of at most 7 bytes, its bytes and length
    packed into one int, mixed by one multiply; for a longer one, its
    FNV-1a hash. Ids with the same home are compared with one another
    on lookup — the tests build such ids from it. *)

type error = {
  e_line : int;  (** 1-based line number in the input stream *)
  e_trace : string option;
      (** the line's trace-id field — a daemon echoes the error to the
          client with the trace it concerns, not just a line number.
          [None] exactly for a line over the scanner's cap. *)
  e_reason : string;
}
(** A structured per-line ingestion defect: malformed syntax, a
    non-integer or negative symbol, a symbol outside the alphabet, or a
    line over the scanner's cap.
    The offending line is skipped; the record carries everything a
    caller needs to report it (or echo it back over a socket). *)

val error_to_string : error -> string
(** ["line N (trace T): reason"] — the CLI's rendering. *)

type chunk = {
  mutable len : int;
  trace_ids : int array;
  symbols : int array;
}
(** Parallel arrays; entries [0 .. len-1] are valid. The same chunk
    value is reused across [on_chunk] calls — consume before
    returning. *)

val create_chunk : int -> chunk

(** {1 Zero-copy scanning} *)

type scanner
(** Incremental scanner over raw read blocks: complete lines are
    scanned in place; a line straddling a block boundary is carried
    over and re-scanned once materialized (the cold path). Line numbers
    count completed lines, independent of where the blocks split.
    Symbols are strict decimal: digits only (an optional ['-'] is
    recognized just to report ["negative symbol"]) — [0x]/[0b] radix
    prefixes, ['_'] separators and a leading ['+'] are malformed,
    unlike [int_of_string_opt]. A rejected line never touches the
    interner; an event line for a known trace id allocates nothing.
    Events are delivered in input order; an error is reported as its
    line is scanned, so it can reach [on_error] before the events of
    earlier lines reach [on_chunk].

    A scanner is bound to one interner. Each block fed is observed
    once in the [stage_ingest_parse_ns] histogram (when {!Sl_obs.Obs}
    is enabled): the time spent in the call less the nested [on_chunk]
    time. *)

val scanner :
  ?chunk_size:int -> ?max_line:int -> alphabet:int -> t ->
  on_chunk:(chunk -> unit) -> on_error:(error -> unit) -> scanner
(** Fresh scanner batching valid events into chunks of [chunk_size]
    (default 4096) flushed through [on_chunk], reporting malformed or
    out-of-alphabet lines to [on_error]. A line longer than [max_line]
    bytes (default: no cap), newline excluded, is reported once as
    [line exceeds N bytes (skipped)] with [e_trace = None] — as soon
    as its bytes pass the cap, even before its newline — and discarded
    up to its newline; an over-cap final line is dropped at EOF. The
    carried partial line never exceeds [max_line] bytes. *)

val restart :
  scanner -> max_line:int ->
  on_chunk:(chunk -> unit) -> on_error:(error -> unit) -> unit
(** Reuse a scanner, with its chunk and carry buffers, as a fresh one
    over the same interner and alphabet: line numbers start again at
    1, anything carried or batched is dropped, and [max_line] and the
    callbacks are replaced. *)

val lines : scanner -> int
(** Lines completed so far (an unterminated final line counts once
    {!scan_eof} has scanned it). *)

val scan_string : scanner -> string -> int -> int -> unit
(** Feed the block [s.[off .. off+len-1]]. [on_chunk] fires whenever
    the chunk fills mid-block; a partial chunk waits for later blocks
    (see {!scan_flush}). *)

val scan_bytes : scanner -> bytes -> int -> int -> unit
(** {!scan_string} over a reusable read buffer, without copying it: the
    scanner retains nothing from the block past the call, so the caller
    may refill the buffer immediately after. *)

val scan_flush : scanner -> unit
(** Deliver the partial chunk now, if it holds any event — a daemon
    connection flushes after every read, so no chunk straddles a
    registry reload. *)

val scan_eof : scanner -> unit
(** End of stream: process any unterminated final line, then flush the
    remaining partial chunk. *)

val scan_channel :
  alphabet:int -> t -> in_channel -> on_chunk:(chunk -> unit) ->
  on_error:(error -> unit) -> unit
(** Block-read the channel to EOF, 65536 bytes per read, through a
    {!scanner} with its default chunk size — the [slc monitor] ingest
    path. *)
