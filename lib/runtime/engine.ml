module Obs = Sl_obs.Obs

(* Engine telemetry. The per-event hot path ([step_trace]) stays
   untouched — metrics are recorded once per chunk/call from the [feed]
   and [step] epilogues as deltas of the engine's own counters, so the
   disabled-mode cost is one flag check per chunk, not per event.
   Counters aggregate across all engines of the process. *)
let m_events =
  Obs.Metrics.counter ~help:"Events stepped by the engine" "engine_events_total"

let m_chunks =
  Obs.Metrics.counter ~help:"Feed chunks processed" "engine_chunks_total"

let m_retired_tripped =
  Obs.Metrics.counter ~help:"Monitors retired on a violation"
    "engine_retired_tripped_total"

let m_retired_admissible =
  Obs.Metrics.counter ~help:"Monitors retired admissible-forever"
    "engine_retired_admissible_total"

let g_live =
  Obs.Metrics.gauge ~help:"Live (trace, monitor) pairs"
    "engine_live_monitors"

let h_chunk_latency =
  Obs.Metrics.histogram ~help:"Feed latency per chunk"
    "engine_chunk_latency_ns"

let h_chunk_events =
  Obs.Metrics.histogram ~help:"Events per feed chunk" "engine_chunk_events"

let m_minor_words =
  Obs.Metrics.counter ~help:"Minor-heap words allocated during feeds"
    "engine_minor_words_total"

let g_minor_words_per_event =
  Obs.Metrics.gauge ~help:"Minor-heap words per event, last chunk"
    "engine_minor_words_per_event"

(* Labeled telemetry. Per-monitor series are labeled by the FNV-64
   hash of the monitor's canonical key — stable across reloads and
   processes, unlike the distinct-monitor index. The hot loop only
   bumps plain int arrays at retirements; label lookup and the counter
   writes happen in the chunk epilogue, and only while collection is
   enabled. *)
let v_monitor_trips =
  Obs.Metrics.counter_vec
    ~help:"Violation retirements per distinct monitor (canonical-key hash)"
    "engine_monitor_trips_total" ~labels:[ "monitor" ]

let v_monitor_retires =
  Obs.Metrics.counter_vec
    ~help:"Admissible-forever retirements per distinct monitor \
           (canonical-key hash)"
    "engine_monitor_retires_total" ~labels:[ "monitor" ]

let h_stage_feed =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: engine feed latency per chunk"
    "stage_engine_feed_ns"

type verdict =
  | Vacuous
  | Admissible
  | Violation of { position : int }

type trace = {
  states : int array;
  live : int array;
  mutable nlive : int;
  mutable events : int;
  tripped_at : int array;
}

(* The immutable compiled plan: everything a run needs that is a pure
   function of the registry's compiled monitors. Separated from the
   mutable run state so the session layer can snapshot/restore runs
   against a plan recompiled in another process — the plan is identified
   by the registry fingerprint, never serialized itself. *)
type plan = {
  monitors : Packed_dfa.t array;
  alphabet : int;
  nvacuous : int;
  npretripped : int;
  (* Fused transition megatable (see [Packed_dfa.fuse]): all monitors'
     rows in one contiguous array, entries packing successor +
     can_trip/accepting bits, with per-monitor base offsets. The step
     loop walks only these two arrays; [monitors] stays the canonical
     per-monitor view (keys, state counts) for the session codec,
     reload carry-over and telemetry. *)
  mega : int array;
  mbase : int array;
}

type t = {
  plan : plan;
  mutable traces : trace option array;
  mutable ntraces : int;
  mutable events : int;
  mutable tripped : int;
  mutable retired_ok : int;
  mutable live_pairs : int;
      (* live (trace, monitor) pairs: the sum of [nlive] over the trace
         table, kept exact wherever a live list changes (trace
         (re)initialization, the two retirement branches, restore) so
         [live] never walks the table *)
  mutable hook :
    (trace:int -> monitor:int -> position:int -> tripped:bool -> unit) option;
      (** incremental retirement callback; [None] (the default) keeps
          the hot path at one comparison per retirement *)
  (* Per-monitor retirement telemetry: cumulative since creation/reset,
     process-local (snapshots neither save nor restore it, like the
     engine_*_total metrics). Bumped unconditionally — one int store
     per retirement, never per event — so the chunk epilogue can flush
     deltas into the labeled counters without touching the hot loop. *)
  mtrips : int array;  (* violation retirements per distinct monitor *)
  mretires : int array;  (* admissible-forever retirements *)
  mtrips0 : int array;  (* epilogue scratch: values at chunk start *)
  mretires0 : int array;
  mtrip_children : Obs.Metrics.counter array;  (* label handles, per M *)
  mretire_children : Obs.Metrics.counter array;
}

let plan_of_monitors monitors =
  let alphabet =
    match Array.length monitors with
    | 0 -> 1
    | _ ->
        let a = monitors.(0).Packed_dfa.alphabet in
        Array.iter
          (fun pd ->
            if pd.Packed_dfa.alphabet <> a then
              invalid_arg "Engine.plan_of_monitors: monitors over different \
                           alphabets")
          monitors;
        a
  in
  let nvacuous = ref 0 and npretripped = ref 0 in
  Array.iter
    (fun pd ->
      if pd.Packed_dfa.vacuous then incr nvacuous;
      if pd.Packed_dfa.pre_tripped then incr npretripped)
    monitors;
  let mega, mbase = Packed_dfa.fuse monitors in
  { monitors; alphabet; nvacuous = !nvacuous; npretripped = !npretripped;
    mega; mbase }

let of_plan plan =
  let m = Array.length plan.monitors in
  let mslots = max m 1 in
  (* Label handles are interned eagerly: engine creation is a cold
     main-domain path, and children are keyed by canonical-key hash, so
     engines over the same monitors share series. *)
  let mtrip_children =
    Array.map
      (fun pd ->
        Obs.Metrics.counter_child v_monitor_trips
          [ Sl_core.Wire.fnv64_hex pd.Packed_dfa.key ])
      plan.monitors
  and mretire_children =
    Array.map
      (fun pd ->
        Obs.Metrics.counter_child v_monitor_retires
          [ Sl_core.Wire.fnv64_hex pd.Packed_dfa.key ])
      plan.monitors
  in
  { plan; traces = Array.make 4 None; ntraces = 0;
    events = 0; tripped = 0; retired_ok = 0; live_pairs = 0; hook = None;
    mtrips = Array.make mslots 0; mretires = Array.make mslots 0;
    mtrips0 = Array.make mslots 0; mretires0 = Array.make mslots 0;
    mtrip_children; mretire_children }

let create ~monitors () = of_plan (plan_of_monitors monitors)

let plan eng = eng.plan
let plan_monitors plan = plan.monitors

(* (Re)initialize a trace record in place: every non-vacuous monitor
   starts live in the packed start state, except pre-tripped (empty
   property) monitors, which are born violated at position 0. *)
let init_trace eng (tr : trace) =
  eng.live_pairs <- eng.live_pairs - tr.nlive;
  tr.nlive <- 0;
  tr.events <- 0;
  Array.iteri
    (fun m pd ->
      tr.states.(m) <- Packed_dfa.start;
      if pd.Packed_dfa.pre_tripped then begin
        tr.tripped_at.(m) <- 0;
        eng.tripped <- eng.tripped + 1
      end
      else begin
        tr.tripped_at.(m) <- -1;
        if not pd.Packed_dfa.vacuous then begin
          tr.live.(tr.nlive) <- m;
          tr.nlive <- tr.nlive + 1
        end
      end)
    eng.plan.monitors;
  eng.live_pairs <- eng.live_pairs + tr.nlive

let mk_trace eng =
  let m = Array.length eng.plan.monitors in
  let tr =
    { states = Array.make (max m 1) 0; live = Array.make (max m 1) 0;
      nlive = 0; events = 0; tripped_at = Array.make (max m 1) (-1) }
  in
  init_trace eng tr;
  tr

let get_trace eng id =
  if id < 0 then invalid_arg "Engine: negative trace id";
  if id >= Array.length eng.traces then begin
    let cap = max (2 * Array.length eng.traces) (id + 1) in
    let a = Array.make cap None in
    Array.blit eng.traces 0 a 0 (Array.length eng.traces);
    eng.traces <- a
  end;
  match eng.traces.(id) with
  | Some tr -> tr
  | None ->
      let tr = mk_trace eng in
      eng.traces.(id) <- Some tr;
      if id >= eng.ntraces then eng.ntraces <- id + 1;
      tr

(* The per-event hot path: step every live monitor of the trace through
   the fused megatable; trip (and retire) on a rejecting state, retire
   as admissible-forever when no rejecting state is reachable anymore.
   A megatable entry packs the successor with its accepting/can_trip
   bits, so the verdict decision is one array read per live monitor —
   no per-monitor record dereference. Retirement is a swap-remove on
   the compact live list — no allocation anywhere on this path ([fire]
   closes over nothing when the hook is [None]: one comparison per
   retirement, never per event). *)
let fire eng ~trace ~monitor ~position ~tripped =
  match eng.hook with
  | None -> ()
  | Some h -> h ~trace ~monitor ~position ~tripped

let step_trace eng ~id (tr : trace) symbol =
  tr.events <- tr.events + 1;
  eng.events <- eng.events + 1;
  let mega = eng.plan.mega in
  let mbase = eng.plan.mbase in
  let alphabet = eng.plan.alphabet in
  let i = ref 0 in
  while !i < tr.nlive do
    let m = Array.unsafe_get tr.live !i in
    let e =
      Array.unsafe_get mega
        (Array.unsafe_get mbase m
        + (Array.unsafe_get tr.states m * alphabet)
        + symbol)
    in
    if e land 1 = 0 then begin
      (* rejecting successor: trip *)
      Array.unsafe_set tr.tripped_at m tr.events;
      eng.tripped <- eng.tripped + 1;
      eng.mtrips.(m) <- eng.mtrips.(m) + 1;
      eng.live_pairs <- eng.live_pairs - 1;
      tr.nlive <- tr.nlive - 1;
      Array.unsafe_set tr.live !i (Array.unsafe_get tr.live tr.nlive);
      fire eng ~trace:id ~monitor:m ~position:tr.events ~tripped:true
    end
    else begin
      Array.unsafe_set tr.states m (e lsr 2);
      if e land 2 <> 0 then incr i
      else begin
        eng.retired_ok <- eng.retired_ok + 1;
        eng.mretires.(m) <- eng.mretires.(m) + 1;
        eng.live_pairs <- eng.live_pairs - 1;
        tr.nlive <- tr.nlive - 1;
        Array.unsafe_set tr.live !i (Array.unsafe_get tr.live tr.nlive);
        fire eng ~trace:id ~monitor:m ~position:tr.events ~tripped:false
      end
    end
  done

let check_symbol eng symbol =
  if symbol < 0 || symbol >= eng.plan.alphabet then
    invalid_arg
      (Printf.sprintf "Engine: symbol %d outside alphabet [0, %d)" symbol
         eng.plan.alphabet)

(* Snapshot the per-monitor cumulative arrays into the epilogue scratch
   (callers do this only when collection is enabled, before stepping). *)
let snapshot_monitors eng =
  let m = Array.length eng.plan.monitors in
  Array.blit eng.mtrips 0 eng.mtrips0 0 m;
  Array.blit eng.mretires 0 eng.mretires0 0 m

(* Record the chunk's telemetry from deltas of the engine's own
   counters. [n] events were just stepped; [t0_us]/[mw0] and the
   monitor snapshot were read before the loop (only when collection was
   already enabled). Label handles were interned at engine creation, so
   flushing a delta is one hashtable-free counter add per monitor. *)
let record_chunk eng ~n ~t0_us ~mw0 ~tripped0 ~retired0 =
  let dt_ns = int_of_float ((Obs.Clock.now_us () -. t0_us) *. 1e3) in
  let mw = int_of_float (Gc.minor_words () -. mw0) in
  Obs.Metrics.add m_events n;
  Obs.Metrics.incr m_chunks;
  Obs.Metrics.add m_retired_tripped (eng.tripped - tripped0);
  Obs.Metrics.add m_retired_admissible (eng.retired_ok - retired0);
  Obs.Metrics.set g_live eng.live_pairs;
  Obs.Metrics.observe h_chunk_latency dt_ns;
  Obs.Metrics.observe h_stage_feed dt_ns;
  Obs.Metrics.observe h_chunk_events n;
  Obs.Metrics.add m_minor_words mw;
  if n > 0 then Obs.Metrics.set g_minor_words_per_event (mw / n);
  for m = 0 to Array.length eng.plan.monitors - 1 do
    let dt = eng.mtrips.(m) - eng.mtrips0.(m)
    and dr = eng.mretires.(m) - eng.mretires0.(m) in
    if dt > 0 then Obs.Metrics.add eng.mtrip_children.(m) dt;
    if dr > 0 then Obs.Metrics.add eng.mretire_children.(m) dr
  done

let step eng ~trace ~symbol =
  check_symbol eng symbol;
  if not (Obs.is_enabled ()) then
    step_trace eng ~id:trace (get_trace eng trace) symbol
  else begin
    let t0_us = Obs.Clock.now_us () in
    let mw0 = Gc.minor_words () in
    let tripped0 = eng.tripped and retired0 = eng.retired_ok in
    snapshot_monitors eng;
    step_trace eng ~id:trace (get_trace eng trace) symbol;
    record_chunk eng ~n:1 ~t0_us ~mw0 ~tripped0 ~retired0
  end

let feed eng ?(off = 0) ~n ~traces ~symbols () =
  if off < 0 || n < 0 || off + n > Array.length traces
     || off + n > Array.length symbols
  then invalid_arg "Engine.feed: bad chunk bounds";
  let run () =
    for k = off to off + n - 1 do
      let symbol = Array.unsafe_get symbols k in
      check_symbol eng symbol;
      let id = Array.unsafe_get traces k in
      step_trace eng ~id (get_trace eng id) symbol
    done
  in
  if not (Obs.is_enabled ()) then run ()
  else begin
    let sp = Obs.Span.enter "engine.feed" in
    let t0_us = Obs.Clock.now_us () in
    let mw0 = Gc.minor_words () in
    let tripped0 = eng.tripped and retired0 = eng.retired_ok in
    snapshot_monitors eng;
    (match run () with
    | () -> ()
    | exception e ->
        Obs.Span.exit sp;
        raise e);
    record_chunk eng ~n ~t0_us ~mw0 ~tripped0 ~retired0;
    Obs.Span.attr sp "events" n;
    Obs.Span.attr sp "tripped" (eng.tripped - tripped0);
    Obs.Span.attr sp "retired_admissible" (eng.retired_ok - retired0);
    Obs.Span.exit sp
  end

let reset eng =
  eng.events <- 0;
  eng.tripped <- 0;
  eng.retired_ok <- 0;
  Array.fill eng.mtrips 0 (Array.length eng.mtrips) 0;
  Array.fill eng.mretires 0 (Array.length eng.mretires) 0;
  Array.iter
    (function Some tr -> init_trace eng tr | None -> ())
    eng.traces

let set_retire_hook eng h = eng.hook <- h

let nmonitors eng = Array.length eng.plan.monitors
let ntraces eng = eng.ntraces
let events eng = eng.events
let tripped eng = eng.tripped
let retired_admissible eng = eng.retired_ok
let nvacuous eng = eng.plan.nvacuous

let live eng = eng.live_pairs

let trace_events eng id =
  if id < 0 || id >= Array.length eng.traces then 0
  else match eng.traces.(id) with Some tr -> tr.events | None -> 0

(* Exact per-monitor verdict census over the materialized traces —
   derived from the trace table itself, not the telemetry counters, so
   it matches the offline report exactly even after a resume (the
   cumulative counters are process-local). One O(N x M) pass. *)
type monitor_counts = {
  mc_live : int;
  mc_tripped : int;
  mc_retired : int;
}

let monitor_counts eng =
  let m = Array.length eng.plan.monitors in
  let live = Array.make (max m 1) 0 and tripped = Array.make (max m 1) 0 in
  let seen = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some tr ->
          incr seen;
          for i = 0 to tr.nlive - 1 do
            let mi = tr.live.(i) in
            live.(mi) <- live.(mi) + 1
          done;
          for mi = 0 to m - 1 do
            if tr.tripped_at.(mi) >= 0 then tripped.(mi) <- tripped.(mi) + 1
          done)
    eng.traces;
  Array.init m (fun mi ->
      if eng.plan.monitors.(mi).Packed_dfa.vacuous then
        { mc_live = 0; mc_tripped = 0; mc_retired = 0 }
      else
        { mc_live = live.(mi); mc_tripped = tripped.(mi);
          mc_retired = !seen - live.(mi) - tripped.(mi) })

(* Cheap per-trace census for /traces: (events, live, tripped) without
   copying the packed state the way [export_trace] does. *)
let trace_summary eng id =
  if id < 0 || id >= Array.length eng.traces then None
  else
    match eng.traces.(id) with
    | None -> None
    | Some tr ->
        let m = Array.length eng.plan.monitors in
        let ntripped = ref 0 in
        for mi = 0 to m - 1 do
          if tr.tripped_at.(mi) >= 0 then incr ntripped
        done;
        Some (tr.events, tr.nlive, !ntripped)

let verdict eng ~trace ~monitor =
  let pd = eng.plan.monitors.(monitor) in
  let fresh () =
    if pd.Packed_dfa.vacuous then Vacuous
    else if pd.Packed_dfa.pre_tripped then Violation { position = 0 }
    else Admissible
  in
  if trace < 0 || trace >= Array.length eng.traces then fresh ()
  else
    match eng.traces.(trace) with
    | None -> fresh ()
    | Some tr ->
        if pd.Packed_dfa.vacuous then Vacuous
        else if tr.tripped_at.(monitor) >= 0 then
          Violation { position = tr.tripped_at.(monitor) }
        else Admissible

(* Externalization: the packed per-trace state as plain arrays, so the
   session codec can serialize a run without reaching into the engine's
   representation. [ts_states] and [ts_tripped_at] are full M-length
   copies; [ts_live] is the compact live list in list order, so a
   restored trace retires monitors in the same order as the original
   run would — byte-identical continuation. *)
type trace_state = {
  ts_events : int;
  ts_states : int array;
  ts_live : int array;
  ts_tripped_at : int array;
}

let export_trace eng id =
  if id < 0 || id >= Array.length eng.traces then None
  else
    match eng.traces.(id) with
    | None -> None
    | Some tr ->
        let m = Array.length eng.plan.monitors in
        Some
          { ts_events = tr.events;
            ts_states = Array.sub tr.states 0 m;
            ts_live = Array.sub tr.live 0 tr.nlive;
            ts_tripped_at = Array.sub tr.tripped_at 0 m }

(* Restoring trusts nothing: a snapshot is bytes from disk, so every
   field is validated against the plan before it touches engine state.
   Raises [Invalid_argument] on any inconsistency — the session decoder
   wraps that into [Wire.Corrupt]. *)
let restore_trace eng id (ts : trace_state) =
  let monitors = eng.plan.monitors in
  let m = Array.length monitors in
  let fail fmt =
    Printf.ksprintf
      (fun s -> invalid_arg (Printf.sprintf "Engine.restore_trace: %s" s))
      fmt
  in
  if Array.length ts.ts_states <> m then
    fail "states length %d (have %d monitors)" (Array.length ts.ts_states) m;
  if Array.length ts.ts_tripped_at <> m then
    fail "tripped_at length %d (have %d monitors)"
      (Array.length ts.ts_tripped_at) m;
  if ts.ts_events < 0 then fail "negative event count %d" ts.ts_events;
  if Array.length ts.ts_live > m then
    fail "live list length %d (have %d monitors)" (Array.length ts.ts_live) m;
  for i = 0 to m - 1 do
    let s = ts.ts_states.(i) in
    if s < 0 || s >= monitors.(i).Packed_dfa.nstates then
      fail "monitor %d state %d outside [0, %d)" i s
        monitors.(i).Packed_dfa.nstates;
    let p = ts.ts_tripped_at.(i) in
    if p < -1 || p > ts.ts_events then
      fail "monitor %d trip position %d outside [-1, %d]" i p ts.ts_events
  done;
  let seen = Array.make (max m 1) false in
  Array.iter
    (fun mi ->
      if mi < 0 || mi >= m then fail "live monitor %d outside [0, %d)" mi m;
      if seen.(mi) then fail "monitor %d listed live twice" mi;
      seen.(mi) <- true;
      if ts.ts_tripped_at.(mi) >= 0 then
        fail "monitor %d both live and tripped" mi;
      if monitors.(mi).Packed_dfa.vacuous then
        fail "vacuous monitor %d listed live" mi)
    ts.ts_live;
  (* [get_trace] materializes (and init_trace-counts pre-tripped
     monitors into [eng.tripped]); the blits below overwrite the fresh
     state, and [set_counters] afterwards overwrites the counters. The
     live census is not a snapshot counter: it swaps the overwritten
     list's length for the restored one here. *)
  let tr = get_trace eng id in
  Array.blit ts.ts_states 0 tr.states 0 m;
  Array.blit ts.ts_tripped_at 0 tr.tripped_at 0 m;
  Array.blit ts.ts_live 0 tr.live 0 (Array.length ts.ts_live);
  eng.live_pairs <- eng.live_pairs - tr.nlive + Array.length ts.ts_live;
  tr.nlive <- Array.length ts.ts_live;
  tr.events <- ts.ts_events

let set_counters eng ~events ~tripped ~retired_admissible =
  if events < 0 || tripped < 0 || retired_admissible < 0 then
    invalid_arg "Engine.set_counters: negative counter";
  eng.events <- events;
  eng.tripped <- tripped;
  eng.retired_ok <- retired_admissible
