(** The observability kernel: spans, metrics, and a GC/alloc probe.

    Zero external dependencies (the clock defaults to a monotonized
    [Unix.gettimeofday], part of the compiler distribution). The whole
    kernel is dark by default: every recording entry point performs a
    single global [enabled] check and returns immediately when the
    kernel is off, so instrumented code paths cost one boolean load —
    the property suite pins that disabled-mode runs are observably
    identical to uninstrumented ones.

    Three instruments:

    - {b Metrics} — counters, gauges and log-2-bucketed histograms with
      int-only flat-array storage: registering a metric allocates once,
      recording a sample is two array writes and never allocates.
      Exported in the Prometheus text exposition format.
    - {b Spans} — nestable monotonic-clock spans with int key/value
      attributes, buffered in a bounded ring and exported as JSON-lines
      trace events compatible with [chrome://tracing]'s trace-event
      format (one complete-event object per line).
    - {b GC probe} — minor/major words, collection counts and
      major-heap deltas recorded per span (togglable, on by default). *)

val enable : unit -> unit
(** Turn collection on. Registration is independent of this switch:
    metric handles created while disabled record normally once
    enabled. *)

val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every metric, drop all buffered span events,
    and abandon any open spans. Registered metric handles stay valid. *)

(** Monotonic time source. *)
module Clock : sig
  val now_us : unit -> float
  (** Microseconds since the first reading of the current source.
      Monotone non-decreasing by construction: readings that go
      backwards (NTP steps under the default wall-clock source) are
      clamped to the previous reading. *)

  val set_source : (unit -> float) -> unit
  (** Install a clock source (seconds, arbitrary epoch) and restart the
      epoch at its first reading. Tests install deterministic sources;
      the default is [Unix.gettimeofday]. *)

  val reset_source : unit -> unit
  (** Back to the default wall-clock source (fresh epoch). *)
end

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : ?help:string -> string -> counter
  (** Register (or retrieve — registration is idempotent by name) a
      monotone counter. Names follow Prometheus conventions:
      [snake_case], [_total] suffix for counters. [help] becomes the
      [# HELP] line of the exposition (first non-empty registration
      wins; the name itself is the fallback).
      @raise Invalid_argument if the name is registered as another
      kind. *)

  val gauge : ?help:string -> string -> gauge
  val histogram : ?help:string -> string -> histogram

  (** {2 Labeled families}

      A vec is a counter family with a fixed list of label {e names};
      {!counter_child} interns one child series per distinct label
      {e value} tuple. Child handles are ordinary {!counter} handles —
      recording into a labeled series costs exactly a flat record — and
      the family renders in the exposition as [name{label="value",...}]
      lines with values escaped per the text-format spec. *)

  type counter_vec

  val counter_vec : ?help:string -> string -> labels:string list -> counter_vec
  (** @raise Invalid_argument on an empty label list, a kind clash, or
      a label-list clash with an earlier registration of the name. *)

  val counter_child : counter_vec -> string list -> counter
  (** The family's series for this label-value tuple, interned on
      first use (idempotent by values).
      @raise Invalid_argument if the value count differs from the
      family's label count. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val set : gauge -> int -> unit

  val incr_always : counter -> unit
  (** Record even while the kernel is disabled — reserved for counters
      that make telemetry loss itself observable
      ([spans_dropped_total]). Never used on per-event hot paths. *)

  val add_always : counter -> int -> unit

  val observe : histogram -> int -> unit
  (** Record a sample into its log-2 bucket: bucket 0 holds samples
      [<= 0], bucket [i >= 1] holds samples in [[2^(i-1), 2^i - 1]]
      (upper bound [2^i - 1] is the bucket's [le] label), with one
      overflow bucket at the top. Allocation-free. *)

  val counter_value : counter -> int
  val gauge_value : gauge -> int

  val histogram_count : histogram -> int
  val histogram_sum : histogram -> int

  val histogram_buckets : histogram -> (int option * int) list
  (** Cumulative [(upper_bound, count)] pairs up to the last non-empty
      bucket, then the [+Inf] bucket as [(None, total)]. *)

  val value : string -> int option
  (** Current value of a registered counter or gauge, by name. *)

  val histogram_stats : string -> (int * int) option
  (** [(count, sum)] of a registered histogram, by name. *)

  val to_prometheus : unit -> string
  (** Text exposition: [# HELP] and [# TYPE] comments then sample lines
      per family, histograms as cumulative [_bucket{le="..."}] /
      [_sum] / [_count] series, in registration order with labeled
      children in creation order. Label values and help text are
      escaped per the text-format spec (backslash, double quote and
      newline in labels; backslash and newline in help). *)
end

module Span : sig
  type token
  (** Handle for an open span; the disabled kernel hands out an inert
      token, so callers never branch on the enabled state themselves. *)

  val none : token

  val enter : string -> token
  (** Open a span. Nesting is by entry order: spans opened while this
      one is open are its children. When disabled, returns {!none}. *)

  val attr : token -> string -> int -> unit
  (** Attach an int key/value attribute to an open span (exported under
      ["args"] in the trace event). No-op on {!none} or closed
      tokens. *)

  val exit : token -> unit
  (** Close a span, recording its duration, attributes and GC deltas
      into the ring. Children still open are closed first (at the same
      timestamp), so events always appear innermost-first. No-op on
      {!none} and on already-closed tokens. *)

  type event = {
    name : string;
    ts_us : float;  (** start, microseconds since the clock epoch *)
    dur_us : float;
    depth : int;  (** nesting depth at entry; 0 = root *)
    attrs : (string * int) list;  (** in attachment order *)
    minor_words : int;  (** minor allocations during the span, words *)
    major_words : int;
    minor_collections : int;
    major_collections : int;
    heap_delta_words : int;  (** major-heap size delta (may be < 0) *)
  }

  val events : unit -> event list
  (** Buffered completed spans, oldest first. The ring keeps the most
      recent {!ring_capacity} events; older ones are counted in
      {!dropped}. *)

  val dropped : unit -> int

  val set_ring_capacity : int -> unit
  (** Resize the ring (default 8192); drops buffered events. *)

  val ring_capacity : unit -> int

  val set_gc_probe : bool -> unit
  (** Toggle the per-span GC probe (default on). With the probe off the
      GC fields of new events are 0. *)

  val write_jsonl : out_channel -> unit
  (** Write buffered events as trace-event JSON objects, one per line:
      [{"name":...,"ph":"X","pid":1,"tid":1,"ts":...,"dur":...,
      "args":{...}}] — loadable by [chrome://tracing]/Perfetto after
      wrapping the lines in a JSON array. *)

  val to_jsonl : unit -> string
end
