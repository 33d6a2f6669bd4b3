(** Trace ingestion front end: the [trace-id symbol] line protocol.

    One event per line: a whitespace-free trace id followed by a strict
    decimal symbol (letter index). Blank lines and ['#'] comments are
    skipped; malformed lines are reported with their 1-based line number
    and skipped. Events are delivered to the engine in reusable batched
    chunks of parallel [int array]s.

    Two parsers share these semantics byte for byte. {!parse_line} and
    {!read} are the retained reference — a string per line and per
    field. The zero-copy path ({!scan_line}, {!scanner}) walks raw read
    blocks in place and allocates only on new trace ids and on the
    error path; it is what [slc monitor] and the serve daemon run. *)

type t
(** The trace-id interner: string ids to the dense ints the engine
    indexes traces by, in first-seen order. Internally an
    open-addressed hash table probed by a hash computed over the byte
    slice, so looking up a known id from the middle of a read buffer
    allocates nothing. *)

val create : unit -> t
val ntraces : t -> int
val name : t -> int -> string

val names : t -> string array
(** All interned trace ids in first-seen order ([names t].(id) is
    [name t id]) — the table the session codec externalizes. Re-interning
    the array in order into a fresh interner reproduces the id
    assignment exactly. *)

val intern : t -> string -> int

type error = {
  e_line : int;  (** 1-based line number in the input stream *)
  e_trace : string option;
      (** the line's trace-id field when one could be recognized — a
          daemon echoes the error to the client with the trace it
          concerns, not just a line number *)
  e_reason : string;
}
(** A structured per-line ingestion defect: malformed syntax, a
    non-integer or negative symbol, or a symbol outside the alphabet.
    The offending line is skipped; the record carries everything a
    caller needs to report it (or echo it back over a socket). *)

val error_to_string : error -> string
(** ["line N (trace T): reason"] — the CLI's rendering. *)

val parse_line :
  string ->
  [ `Event of string * int  (** trace id, nonnegative symbol *)
  | `Skip  (** blank or comment *)
  | `Malformed of string option * string
    (** trace id (when recognizable) and reason *) ]
(** The reference parser. Symbols are strict decimal: digits only (an
    optional ['-'] is recognized just to report ["negative symbol"]) —
    [0x]/[0b] radix prefixes, ['_'] separators and a leading ['+'] are
    malformed, unlike [int_of_string_opt]. *)

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

val find_newline : string -> int -> int -> int
(** [find_newline s off stop] is the index of the first ['\n'] in
    [[off, stop)], or [-1] — C [memchr], word-at-a-time where an OCaml
    byte loop is not. The explicit [stop] bound makes it safe on a
    string view of a reusable read buffer whose bytes beyond the fill
    are stale. *)

val scan_line :
  t -> alphabet:int -> string -> int -> int ->
  [ `Event of int * int  (** interned trace id, in-alphabet symbol *)
  | `Skip
  | `Error of string option * string ]
(** Scan one line given as the byte slice [[off, off+len)] — no
    trailing newline — entirely in place: the hot path (a known trace
    id, a valid symbol) performs no allocation. Unlike {!parse_line}
    this folds in the alphabet check and the interning; the error cases
    are exactly the reference loop's, with the same reason strings, and
    a rejected line never touches the interner. *)

val scan_event : t -> alphabet:int -> string -> int -> int -> int
(** The allocation-free fast path over the same slice: accepts exactly
    the lines {!scan_line} answers [`Event] for, returning the interned
    trace id with the symbol parked in {!scanned_symbol} — two ints, no
    heap. Everything else (blank, comment, malformed, out-of-alphabet)
    is [-1], touching neither the interner nor {!scanned_symbol}; the
    caller re-scans with {!scan_line} for the exact skip/error result
    (the cold path). *)

val scanned_symbol : t -> int
(** The symbol of the last event {!scan_event} accepted. *)

type scanner
(** Incremental scanner over raw read blocks: complete lines are
    scanned in place; a line straddling a block boundary is carried
    over and re-scanned once materialized (the cold path). Line numbers
    count completed lines, independent of where the blocks split. *)

val scanner :
  ?chunk_size:int -> alphabet:int -> t ->
  on_chunk:(chunk -> unit) -> on_error:(error -> unit) -> scanner
(** Fresh scanner batching valid events into chunks of [chunk_size]
    (default 4096) flushed through [on_chunk], reporting malformed or
    out-of-alphabet lines to [on_error]. *)

val scan_string : scanner -> string -> int -> int -> unit
(** Feed the block [s.[off .. off+len-1]]. [on_chunk] fires whenever
    the chunk fills mid-block. *)

val scan_bytes : scanner -> bytes -> int -> int -> unit
(** {!scan_string} over a reusable read buffer, without copying it: the
    scanner retains nothing from the block past the call, so the caller
    may refill the buffer immediately after. *)

val scan_eof : scanner -> unit
(** End of stream: process any unterminated final line, then flush the
    remaining partial chunk. *)

val scan_channel :
  ?chunk_size:int -> ?buf_size:int -> alphabet:int -> t -> in_channel ->
  on_chunk:(chunk -> unit) -> on_error:(error -> unit) -> unit
(** Block-read the channel to EOF through a {!scanner} ([buf_size]
    bytes per read, default 65536) — the [slc monitor] ingest path.
    Event/error/interning behavior is byte-identical to {!read_channel}
    on the same stream. *)

(** {1 Reference reader} *)

val read :
  ?chunk_size:int -> alphabet:int -> t ->
  next_line:(unit -> string option) -> on_chunk:(chunk -> unit) ->
  on_error:(error -> unit) -> unit
(** Pull lines until [next_line] returns [None], batching valid events
    into chunks (default size 4096) and reporting malformed or
    out-of-alphabet lines to [on_error] as structured {!error}
    records. *)

val read_channel :
  ?chunk_size:int -> alphabet:int -> t -> in_channel ->
  on_chunk:(chunk -> unit) -> on_error:(error -> unit) ->
  unit
(** {!read} over a channel ([stdin] or an opened trace file). *)
