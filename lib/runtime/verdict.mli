(** The verdict/metrics layer: structured per-(trace, property) verdicts
    plus engine counters, renderable as text or JSON.

    Verdicts come in three flavours, mirroring the theory: a violation
    carries the shortest-bad-prefix position (safety refuted at a finite
    point); admissible means no bad prefix (yet, or provably ever);
    vacuous marks pure-liveness properties whose safety part is
    universal — Schneider's unmonitorable case. *)

type counters = {
  traces : int;
  events : int;  (** events ingested *)
  props : int;
  distinct_monitors : int;  (** after hash-consing *)
  vacuous_props : int;
  violations : int;  (** (trace, property) violation pairs *)
  live : int;  (** live monitor instances across traces *)
  tripped : int;  (** monitor instances retired by violation *)
  retired_admissible : int;  (** retired admissible-forever *)
  events_per_s : float option;  (** when an elapsed time was supplied *)
}

type prop_summary = {
  prop : Registry.prop;
  vacuous : bool;
  trips : int;  (** traces on which this property tripped *)
}

type row = {
  trace : string;
  trace_events : int;
  verdicts : (Registry.prop * Engine.verdict) list;
}

type engine_metrics = {
  m_events : int;
  m_chunks : int;  (** [Engine.feed]/[step] calls observed *)
  m_retired_tripped : int;
  m_retired_admissible : int;
  m_live : int;
  m_vacuous : int;
  m_registry_props : int;
  m_distinct_monitors : int;
  m_hashcons_hits : int;
  m_chunk_latency_count : int;  (** chunk-latency histogram count *)
  m_chunk_latency_sum_ns : int;  (** chunk-latency histogram sum *)
  m_minor_words : int;  (** minor words allocated across observed chunks *)
}
(** Telemetry snapshot attached to a report when {!Sl_obs.Obs} was
    enabled during the run; surfaces in JSON as ["engine_metrics"]. *)

type report = {
  counters : counters;
  prop_summaries : prop_summary list;
  rows : row list;
  engine_metrics : engine_metrics option;
      (** [Some] iff observability was enabled when {!make} ran —
          absent otherwise so disabled-mode JSON is byte-identical to
          the pre-telemetry schema. *)
}

val make :
  registry:Registry.t -> engine:Engine.t -> trace_name:(int -> string) ->
  ?elapsed_s:float -> unit -> report

val of_session : ?elapsed_s:float -> Session.t -> unit -> report
(** {!make} over a session's registry, engine and interner — trace
    names come from {!Ingest.name}, so a restored session reports the
    original external trace ids. *)

val verdict_to_string : Engine.verdict -> string

val pp_text : Format.formatter -> report -> unit
(** Human-readable rendering; ends with a stable one-line
    [summary: traces=... events=...] record (CI greps it). *)

val to_json : report -> string
(** Schema [sl-monitor-report/1], in the block layout of
    {!Sl_json.Json}: one line per top-level member, one per property
    and one per trace. Linear in the number of traces. *)
