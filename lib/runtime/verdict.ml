type counters = {
  traces : int;
  events : int;
  props : int;
  distinct_monitors : int;
  vacuous_props : int;
  violations : int;
  live : int;
  tripped : int;
  retired_admissible : int;
  events_per_s : float option;
}

type prop_summary = {
  prop : Registry.prop;
  vacuous : bool;
  trips : int;
}

type row = {
  trace : string;
  trace_events : int;
  verdicts : (Registry.prop * Engine.verdict) list;
}

type engine_metrics = {
  m_events : int;
  m_chunks : int;
  m_retired_tripped : int;
  m_retired_admissible : int;
  m_live : int;
  m_vacuous : int;
  m_registry_props : int;
  m_distinct_monitors : int;
  m_hashcons_hits : int;
  m_chunk_latency_count : int;
  m_chunk_latency_sum_ns : int;
  m_minor_words : int;
}

type report = {
  counters : counters;
  prop_summaries : prop_summary list;
  rows : row list;
  engine_metrics : engine_metrics option;
}

(* Snapshot the Sl_obs engine/registry metrics into a report-attachable
   record. Engine/registry state supplies the structural numbers; the
   observability kernel supplies what only it can see (chunk latency,
   allocation). Meaningful only while Sl_obs is enabled — counters read 0
   otherwise, which is why [make] attaches this snapshot conditionally. *)
let engine_metrics_now ~registry ~engine =
  let module Obs = Sl_obs.Obs in
  let v name = Option.value ~default:0 (Obs.Metrics.value name) in
  let hcount, hsum =
    match Obs.Metrics.histogram_stats "engine_chunk_latency_ns" with
    | Some (c, s) -> (c, s)
    | None -> (0, 0)
  in
  let rs = Registry.stats registry in
  { m_events = Engine.events engine;
    m_chunks = v "engine_chunks_total";
    m_retired_tripped = Engine.tripped engine;
    m_retired_admissible = Engine.retired_admissible engine;
    m_live = Engine.live engine;
    m_vacuous = Engine.nvacuous engine;
    m_registry_props = rs.Registry.props;
    m_distinct_monitors = rs.Registry.distinct_monitors;
    m_hashcons_hits = rs.Registry.hashcons_hits;
    m_chunk_latency_count = hcount;
    m_chunk_latency_sum_ns = hsum;
    m_minor_words = v "engine_minor_words_total" }

let make ~registry ~engine ~trace_name ?elapsed_s () =
  let props = Registry.props registry in
  let ntr = Engine.ntraces engine in
  let rows =
    List.init ntr (fun tr ->
        { trace = trace_name tr;
          trace_events = Engine.trace_events engine tr;
          verdicts =
            List.map
              (fun (p : Registry.prop) ->
                (p, Engine.verdict engine ~trace:tr ~monitor:p.Registry.monitor))
              props })
  in
  let prop_summaries =
    List.map
      (fun (p : Registry.prop) ->
        let vacuous =
          (Registry.monitors registry).(p.Registry.monitor).Packed_dfa.vacuous
        in
        let trips =
          List.fold_left
            (fun acc row ->
              match List.assq p row.verdicts with
              | Engine.Violation _ -> acc + 1
              | _ -> acc)
            0 rows
        in
        { prop = p; vacuous; trips })
      props
  in
  let violations =
    List.fold_left (fun acc s -> acc + s.trips) 0 prop_summaries
  in
  let events = Engine.events engine in
  let counters =
    { traces = ntr; events; props = Registry.nprops registry;
      distinct_monitors = Registry.nmonitors registry;
      vacuous_props =
        List.length (List.filter (fun s -> s.vacuous) prop_summaries);
      violations; live = Engine.live engine; tripped = Engine.tripped engine;
      retired_admissible = Engine.retired_admissible engine;
      events_per_s =
        (match elapsed_s with
        | Some dt when dt > 0. -> Some (float_of_int events /. dt)
        | _ -> None) }
  in
  let engine_metrics =
    if Sl_obs.Obs.is_enabled () then Some (engine_metrics_now ~registry ~engine)
    else None
  in
  { counters; prop_summaries; rows; engine_metrics }

let of_session ?elapsed_s session () =
  let ingest = Session.ingest session in
  make ~registry:(Session.registry session) ~engine:(Session.engine session)
    ~trace_name:(Ingest.name ingest) ?elapsed_s ()

let pp_text fmt r =
  let c = r.counters in
  Format.fprintf fmt "@[<v>props: %d loaded, %d distinct monitor(s), %d \
                      vacuous (pure liveness)@,"
    c.props c.distinct_monitors c.vacuous_props;
  List.iter
    (fun s ->
      if s.vacuous then
        Format.fprintf fmt "  unmonitorable (liveness): %s@,"
          s.prop.Registry.name)
    r.prop_summaries;
  List.iter
    (fun row ->
      let nviol =
        List.length
          (List.filter
             (fun (_, v) ->
               match v with Engine.Violation _ -> true | _ -> false)
             row.verdicts)
      in
      Format.fprintf fmt "trace %s: %d event(s), %d violation(s)@."
        row.trace row.trace_events nviol;
      List.iter
        (fun ((p : Registry.prop), v) ->
          match v with
          | Engine.Violation { position } ->
              Format.fprintf fmt "  VIOLATION %s at event %d@."
                p.Registry.name position
          | _ -> ())
        row.verdicts)
    r.rows;
  Format.fprintf fmt
    "summary: traces=%d events=%d props=%d monitors=%d violations=%d \
     vacuous=%d live=%d tripped=%d retired_admissible=%d%s@]@."
    c.traces c.events c.props c.distinct_monitors c.violations
    c.vacuous_props c.live c.tripped c.retired_admissible
    (match c.events_per_s with
    | Some r -> Printf.sprintf " events_per_s=%.0f" r
    | None -> "")

module Json = Sl_json.Json

let verdict_fields = function
  | Engine.Vacuous -> [ ("verdict", Json.Str "vacuous") ]
  | Engine.Admissible -> [ ("verdict", Json.Str "admissible") ]
  | Engine.Violation { position } ->
      [ ("verdict", Json.Str "violation"); ("position", Json.int position) ]

let to_json r =
  let c = r.counters in
  let counters =
    [ ("traces", Json.int c.traces); ("events", Json.int c.events);
      ("props", Json.int c.props);
      ("distinct_monitors", Json.int c.distinct_monitors);
      ("violations", Json.int c.violations);
      ("vacuous", Json.int c.vacuous_props); ("live", Json.int c.live);
      ("tripped", Json.int c.tripped);
      ("retired_admissible", Json.int c.retired_admissible) ]
    @
    match c.events_per_s with
    | Some r -> [ ("events_per_s", Json.fixed 1 r) ]
    | None -> []
  in
  (* Present only when the run had observability enabled, so disabled-mode
     output stays byte-identical to the pre-telemetry schema. *)
  let engine_metrics =
    match r.engine_metrics with
    | None -> []
    | Some m ->
        [ ( "engine_metrics",
            Json.Obj
              [ ("events", Json.int m.m_events);
                ("chunks", Json.int m.m_chunks);
                ("retired_tripped", Json.int m.m_retired_tripped);
                ("retired_admissible", Json.int m.m_retired_admissible);
                ("live", Json.int m.m_live); ("vacuous", Json.int m.m_vacuous);
                ("registry_props", Json.int m.m_registry_props);
                ("distinct_monitors", Json.int m.m_distinct_monitors);
                ("hashcons_hits", Json.int m.m_hashcons_hits);
                ("chunk_latency_count", Json.int m.m_chunk_latency_count);
                ("chunk_latency_sum_ns", Json.int m.m_chunk_latency_sum_ns);
                ("minor_words_total", Json.int m.m_minor_words) ] ) ]
  in
  let prop s =
    Json.Obj
      [ ("name", Json.Str s.prop.Registry.name);
        ("monitor", Json.int s.prop.Registry.monitor);
        ("vacuous", Json.Bool s.vacuous); ("trips", Json.int s.trips) ]
  in
  let trace row =
    Json.Obj
      [ ("name", Json.Str row.trace); ("events", Json.int row.trace_events);
        ( "verdicts",
          Json.Arr
            (List.map
               (fun ((p : Registry.prop), v) ->
                 Json.Obj
                   (("prop", Json.Str p.Registry.name) :: verdict_fields v))
               row.verdicts) ) ]
  in
  Json.to_string ~layout:Json.Block
    (Json.Obj
       ([ ("schema", Json.Str "sl-monitor-report/1");
          ("counters", Json.Obj counters) ]
       @ engine_metrics
       @ [ ("props", Json.Arr (List.map prop r.prop_summaries));
           ("traces", Json.Arr (List.map trace r.rows)) ]))
