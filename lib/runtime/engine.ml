module Obs = Sl_obs.Obs

(* Engine telemetry. The per-event hot path ([step_trace]) stays
   untouched — metrics are recorded once per chunk from the [feed]
   epilogue as deltas of the engine's own counters, so the
   disabled-mode cost is one flag check per chunk, not per event; only
   the per-monitor retirement counters move at the retirement itself.
   {!step} records nothing. Counters aggregate across all engines of
   the process. *)
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
   processes, unlike the distinct-monitor index. Label handles are
   interned at engine creation, so a retirement that fires the hook
   bumps its monitor's series with one flag check and one counter add,
   never a label lookup. *)
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

let g_product_groups =
  Obs.Metrics.gauge ~help:"Product groups in the last engine plan"
    "engine_product_groups"

let g_product_states =
  Obs.Metrics.gauge
    ~help:"Product states summed over the last engine plan's groups"
    "engine_product_states"

type verdict =
  | Vacuous
  | Admissible
  | Violation of { position : int }

(* ---- The shadow product ----

   Safety properties are the closed elements of the safety closure, and
   closed elements are closed under meets (paper §3): the fleet's
   monitors run as product automata, one table read per group and
   event. Each monitor that can trip (neither vacuous nor pre-tripped)
   becomes a Mealy machine over its packed states:
   - an edge into a rejecting state is a self-loop that emits a trip
     bit, so no component ever enters the reject sink;
   - an edge from a [can_trip] state to one that cannot emits a retire
     bit, and every edge out of a state that cannot trip is a
     self-loop, so a retired component freezes in its retirement state.
   A tripped component keeps moving (a "shadow"); the trace's tripped
   mask hides it, and the trip table keeps the state it tripped in.

   Monitors are grouped in contiguous index runs of at most
   [max_members] (a mask fits one OCaml int) and at most [max_states]
   product states, closed greedily when the next pairwise product
   would pass the cap. A group of one holds every state of its monitor.
   The products are closed from roots: the start vector for a fresh
   engine, plus every restored trace's state vector for a restored
   one, so one builder serves both. *)

let max_members = 62
let max_states = 4096

let shadow (pd : Packed_dfa.t) q s =
  let q' = pd.trans.((q * pd.alphabet) + s) in
  if pd.accepting.(q') && pd.can_trip.(q) then q' else q

(* Tables keyed by whole-fleet state vectors (restore's roots), hashed
   over every element. *)
module Tuples = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = Array.fold_left (fun h q -> (h * 31) + q) 17
end)

type group = {
  members : int array;  (* monitor indices, ascending; bit j = members.(j) *)
  size : int;  (* product states *)
  next : int array;
      (* [p * alphabet + s]: (successor lsl 1) lor (the edge trips or
         retires a member) *)
  trips : int array;  (* same index: members tripping on the edge *)
  retires : int array;  (* members retiring on the edge *)
  tuples : int array;  (* [p * k + j]: members.(j)'s packed state *)
  cantrip : int array;  (* members whose state in [p] can trip *)
}

(* Fill state [p]'s edges from its tuple; [succ.(s)] is its successor
   on symbol [s]. *)
let fill (monitors : Packed_dfa.t array) gr p succ =
  let k = Array.length gr.members and alphabet = Array.length succ in
  let trips = Array.make alphabet 0 and retires = Array.make alphabet 0 in
  let cantrip = ref 0 in
  for j = 0 to k - 1 do
    let pd = monitors.(gr.members.(j)) and q = gr.tuples.((p * k) + j) in
    let bit = 1 lsl j and can_trip = pd.can_trip.(q) in
    if can_trip then cantrip := !cantrip lor bit;
    for s = 0 to alphabet - 1 do
      let q' = pd.trans.((q * alphabet) + s) in
      if not pd.accepting.(q') then trips.(s) <- trips.(s) lor bit
      else if can_trip && not pd.can_trip.(q') then
        retires.(s) <- retires.(s) lor bit
    done
  done;
  gr.cantrip.(p) <- !cantrip;
  for s = 0 to alphabet - 1 do
    let i = (p * alphabet) + s in
    gr.trips.(i) <- trips.(s);
    gr.retires.(i) <- retires.(s);
    gr.next.(i) <-
      (succ.(s) lsl 1) lor if trips.(s) lor retires.(s) <> 0 then 1 else 0
  done

(* A product under construction: [n] states, numbered in discovery
   order from the roots ([root_at.(r)] is root [r]'s state). State [p]
   is state [left.(p)] of [prev] extended by the newest member's packed
   state [right.(p)]; the first member's level has no [prev]. *)
type level = {
  n : int;
  succ : int array;  (* [p * alphabet + s] -> successor *)
  root_at : int array;
  left : int array;
  right : int array;
  prev : level option;
}

(* One monitor's shadow states reachable from [starts]. *)
let single (pd : Packed_dfa.t) starts =
  let alphabet = pd.alphabet and nq = pd.nstates in
  let id_of = Array.make nq (-1) and order = Array.make nq 0 and n = ref 0 in
  let id q =
    if id_of.(q) < 0 then begin
      id_of.(q) <- !n;
      order.(!n) <- q;
      incr n
    end;
    id_of.(q)
  in
  let root_at = Array.map id starts in
  let succ = Array.make (nq * alphabet) 0 in
  let p = ref 0 in
  while !p < !n do
    for s = 0 to alphabet - 1 do
      succ.((!p * alphabet) + s) <- id (shadow pd order.(!p) s)
    done;
    incr p
  done;
  { n = !n; succ = Array.sub succ 0 (!n * alphabet); root_at; left = [||];
    right = Array.sub order 0 !n; prev = None }

exception Too_big

(* Scratch space for [pair], reused across one build's trials: each new
   state's (left, right) parts and successors, and an open-addressing
   table from pair keys to states ([keys] slot -1 = free; [slot.(i)] is
   state [i]'s table slot, for clearing). *)
type scratch = {
  left : int array;
  right : int array;
  slot : int array;
  succ : int array;
  keys : int array;
  vals : int array;
}

let scratch alphabet =
  { left = Array.make max_states 0; right = Array.make max_states 0;
    slot = Array.make max_states 0;
    succ = Array.make (max_states * alphabet) 0;
    keys = Array.make (2 * max_states) (-1);
    vals = Array.make (2 * max_states) 0 }

(* The product of [lv] with one more monitor, from the roots' states
   [starts]; [None] past [max_states]. *)
let pair sc (lv : level) (pd : Packed_dfa.t) starts =
  let alphabet = pd.alphabet and nq = pd.nstates in
  let mask = Array.length sc.keys - 1 in
  let n = ref 0 in
  let id p q =
    let key = (p * nq) + q in
    let h = ref ((key * 0x4F1BBCDCBFA53E0B) lsr 40 land mask) in
    while sc.keys.(!h) >= 0 && sc.keys.(!h) <> key do
      h := (!h + 1) land mask
    done;
    if sc.keys.(!h) = key then sc.vals.(!h)
    else begin
      if !n = max_states then raise_notrace Too_big;
      let i = !n in
      sc.keys.(!h) <- key;
      sc.vals.(!h) <- i;
      sc.slot.(i) <- !h;
      sc.left.(i) <- p;
      sc.right.(i) <- q;
      n := i + 1;
      i
    end
  in
  let result =
    match
      let root_at = Array.mapi (fun r q -> id lv.root_at.(r) q) starts in
      let i = ref 0 in
      while !i < !n do
        let p = sc.left.(!i) and q = sc.right.(!i) in
        for s = 0 to alphabet - 1 do
          sc.succ.((!i * alphabet) + s) <-
            id lv.succ.((p * alphabet) + s) (shadow pd q s)
        done;
        incr i
      done;
      root_at
    with
    | exception Too_big -> None
    | root_at ->
        let n = !n in
        Some
          { n; succ = Array.sub sc.succ 0 (n * alphabet); root_at;
            left = Array.sub sc.left 0 n; right = Array.sub sc.right 0 n;
            prev = Some lv }
  in
  for i = 0 to !n - 1 do
    sc.keys.(sc.slot.(i)) <- -1
  done;
  result

let close (monitors : Packed_dfa.t array) members (lv : level) =
  let n = lv.n and k = Array.length members in
  let alphabet = monitors.(members.(0)).alphabet in
  let tuples = Array.make (n * k) 0 in
  let rec unfold (lv : level) at q j =
    tuples.(at + j) <- lv.right.(q);
    match lv.prev with Some prev -> unfold prev at lv.left.(q) (j - 1) | None -> ()
  in
  for p = 0 to n - 1 do
    unfold lv (p * k) p (k - 1)
  done;
  let gr =
    { members; size = n; next = Array.make (n * alphabet) 0;
      trips = Array.make (n * alphabet) 0;
      retires = Array.make (n * alphabet) 0; tuples;
      cantrip = Array.make n 0 }
  in
  for p = 0 to n - 1 do
    fill monitors gr p (Array.sub lv.succ (p * alphabet) alphabet)
  done;
  gr

(* Group the monitors that can trip, greedily, with products closed
   under the shadow steps from [roots] (full-length state vectors; the
   first is the start vector, so every group starts in state 0). Each
   group comes with its product state of every root. *)
let build_groups (monitors : Packed_dfa.t array) roots =
  let starts m = Array.map (fun r -> r.(m)) roots in
  let sc =
    scratch (if Array.length monitors = 0 then 1 else monitors.(0).alphabet)
  in
  let groups = ref [] in
  let finish members lv =
    let members = Array.of_list (List.rev members) in
    let lv, at =
      if Array.length members > 1 then (lv, lv.root_at)
      else
        let m = members.(0) in
        let pd = monitors.(m) in
        let lv = single pd (Array.init pd.nstates Fun.id) in
        (lv, Array.map (fun q -> lv.root_at.(q)) (starts m))
    in
    groups := (close monitors members lv, at) :: !groups
  in
  let cur = ref None in
  Array.iteri
    (fun m (pd : Packed_dfa.t) ->
      if not (pd.vacuous || pd.pre_tripped) then begin
        let fresh () = Some ([ m ], single pd (starts m)) in
        cur :=
          match !cur with
          | None -> fresh ()
          | Some (ms, lv) -> (
              match
                if List.length ms = max_members then None
                else pair sc lv pd (starts m)
              with
              | Some lv' -> Some (m :: ms, lv')
              | None ->
                  finish ms lv;
                  fresh ())
      end)
    monitors;
  Option.iter (fun (ms, lv) -> finish ms lv) !cur;
  Array.split (Array.of_list (List.rev !groups))

(* [build_groups] inside an [engine.plan] span, with the product's
   shape in the span and the product gauges: build-time telemetry
   only. *)
let planned monitors roots =
  let sp = Obs.Span.enter "engine.plan" and t0_us = Obs.Clock.now_us () in
  let groups, at = build_groups monitors roots in
  let states = Array.fold_left (fun acc gr -> acc + gr.size) 0 groups in
  Obs.Metrics.set g_product_groups (Array.length groups);
  Obs.Metrics.set g_product_states states;
  Obs.Span.attr sp "groups" (Array.length groups);
  Obs.Span.attr sp "states" states;
  Obs.Span.attr sp "build_us" (int_of_float (Obs.Clock.now_us () -. t0_us));
  Obs.Span.exit sp;
  (groups, at)

(* Per-trace run state lives in [slots], [stride] ints per trace id:
   the trace's event count ([-1] while the id is not materialized),
   then per group its product state and tripped mask. Trip positions
   live in the sparse [trip_at] table, keyed [trace * M + monitor], as
   [position * smax + state] with the state the monitor tripped in: a
   trace that never trips takes nothing there, and a trip adds no block
   for the GC to walk. *)
type t = {
  monitors : Packed_dfa.t array;
  alphabet : int;
  nvacuous : int;
  pretripped : int array;  (* pre-tripped monitor indices, ascending *)
  groups : group array;
  where : int array;
      (* monitor -> (group lsl 6) lor bit; -1 if vacuous or pre-tripped *)
  stride : int;
  mutable slots : int array;
  mutable ntraces : int;
  trip_at : Sl_core.Int_table.t;
  smax : int;
  nmembers : int;  (* monitors in groups: live on a fresh trace *)
  mutable events : int;
  mutable tripped : int;
  mutable retired_ok : int;
  mutable live_pairs : int;
      (* live (trace, monitor) pairs, kept exact wherever a trace's
         state changes (materialization and the two retirement
         branches) so [live] never walks the table *)
  mutable hook :
    (trace:int -> monitor:int -> position:int -> tripped:bool -> unit) option;
      (** incremental retirement callback; [None] (the default) keeps
          the hot path at one comparison per retirement *)
  mutable hook_words : int;
      (* minor words the hook allocated in the current feed, while
         telemetry is on: the feed's allocation gauges leave them out *)
  mtrip_children : Obs.Metrics.counter array;
      (* label handles, per M: violation retirements at a step *)
  mretire_children : Obs.Metrics.counter array;
      (* admissible-forever retirements *)
}

let empty_slots ~stride ~cap =
  let a = Array.make (cap * stride) 0 in
  for id = 0 to cap - 1 do
    a.(id * stride) <- -1
  done;
  a

let smax_of monitors =
  Array.fold_left (fun a pd -> max a pd.Packed_dfa.nstates) 1 monitors

(* An engine with no traces and zero counters, its groups closed from
   [roots]; also each group's product state of every root. *)
let make monitors roots =
  let alphabet =
    match Array.length monitors with
    | 0 -> 1
    | _ ->
        let a = monitors.(0).Packed_dfa.alphabet in
        Array.iter
          (fun pd ->
            if pd.Packed_dfa.alphabet <> a then
              invalid_arg "Engine.create: monitors over different alphabets")
          monitors;
        a
  in
  let m = Array.length monitors in
  let nvacuous =
    Array.fold_left
      (fun n pd -> if pd.Packed_dfa.vacuous then n + 1 else n)
      0 monitors
  and pretripped =
    Array.of_list
      (List.filter
         (fun mi -> monitors.(mi).Packed_dfa.pre_tripped)
         (List.init m Fun.id))
  in
  let groups, at = planned monitors roots in
  let where = Array.make m (-1) in
  Array.iteri
    (fun g gr ->
      Array.iteri (fun j mi -> where.(mi) <- (g lsl 6) lor j) gr.members)
    groups;
  (* Label handles are interned eagerly: engine creation is a cold
     main-domain path, and children are keyed by canonical-key hash, so
     engines over the same monitors share series. *)
  let children v =
    Array.map
      (fun pd ->
        Obs.Metrics.counter_child v [ Sl_core.Wire.fnv64_hex pd.Packed_dfa.key ])
      monitors
  in
  let stride = 1 + (2 * Array.length groups) in
  ( { monitors; alphabet; nvacuous; pretripped; groups; where; stride;
      slots = empty_slots ~stride ~cap:4; ntraces = 0;
      trip_at = Sl_core.Int_table.create ();
      smax = smax_of monitors;
      nmembers = m - nvacuous - Array.length pretripped;
      events = 0; tripped = 0; retired_ok = 0; live_pairs = 0; hook = None;
      hook_words = 0;
      mtrip_children = children v_monitor_trips;
      mretire_children = children v_monitor_retires },
    at )

let create ~monitors () =
  fst (make monitors [| Array.make (Array.length monitors) Packed_dfa.start |])

let monitors eng = eng.monitors

(* With telemetry on, what the hook allocates (a daemon renders its
   records there) is set apart from the engine's own allocation.
   [Gc.minor_words] is unboxed, and the count is kept as an int, so the
   bookkeeping allocates nothing itself. *)
let fire eng ~trace ~monitor ~position ~tripped =
  match eng.hook with
  | None -> ()
  | Some h ->
      if Obs.is_enabled () then begin
        let w0 = Gc.minor_words () in
        h ~trace ~monitor ~position ~tripped;
        eng.hook_words <-
          eng.hook_words + int_of_float (Gc.minor_words () -. w0)
      end
      else h ~trace ~monitor ~position ~tripped

(* The slot offset of trace [id], materializing it on first use: every
   group starts in its state 0 with nothing tripped, and pre-tripped
   (empty property) monitors are born violated at position 0 — their
   bad prefix is the empty word, so each trips through the hook there,
   in ascending index, before the trace's first event steps. *)
let materialize eng id =
  if id < 0 then invalid_arg "Engine: negative trace id";
  let base = id * eng.stride in
  if base >= Array.length eng.slots then begin
    let old = eng.slots in
    let cap = max (2 * (Array.length old / eng.stride)) (id + 1) in
    let a = empty_slots ~stride:eng.stride ~cap in
    Array.blit old 0 a 0 (Array.length old);
    eng.slots <- a
  end;
  if Array.unsafe_get eng.slots base < 0 then begin
    eng.slots.(base) <- 0;
    eng.tripped <- eng.tripped + Array.length eng.pretripped;
    eng.live_pairs <- eng.live_pairs + eng.nmembers;
    if id >= eng.ntraces then eng.ntraces <- id + 1;
    for i = 0 to Array.length eng.pretripped - 1 do
      fire eng ~trace:id ~monitor:eng.pretripped.(i) ~position:0 ~tripped:true
    done
  end;
  base

(* An edge that trips or retires members: record those not already
   tripped, in ascending monitor index. [slot] is the group's state
   slot, already holding the successor. *)
let emit eng gr ~id ~slot ~edge ~position =
  let slots = eng.slots in
  let tripped = slots.(slot + 1) in
  let trips = gr.trips.(edge) land lnot tripped
  and retires = gr.retires.(edge) land lnot tripped in
  if trips lor retires <> 0 then begin
    slots.(slot + 1) <- tripped lor trips;
    let k = Array.length gr.members and p = slots.(slot) in
    let bits = ref (trips lor retires) and j = ref 0 in
    while !bits <> 0 do
      if !bits land 1 <> 0 then begin
        let m = gr.members.(!j) in
        eng.live_pairs <- eng.live_pairs - 1;
        if trips land (1 lsl !j) <> 0 then begin
          (* a trip edge is a self-loop: the successor holds the state
             the monitor tripped in *)
          Sl_core.Int_table.replace eng.trip_at
            ((id * Array.length eng.where) + m)
            ((position * eng.smax) + gr.tuples.((p * k) + !j));
          eng.tripped <- eng.tripped + 1;
          Obs.Metrics.incr eng.mtrip_children.(m);
          fire eng ~trace:id ~monitor:m ~position ~tripped:true
        end
        else begin
          eng.retired_ok <- eng.retired_ok + 1;
          Obs.Metrics.incr eng.mretire_children.(m);
          fire eng ~trace:id ~monitor:m ~position ~tripped:false
        end
      end;
      bits := !bits lsr 1;
      incr j
    done
  end

(* The per-event hot path: one product-table read per group. The entry
   packs the successor with a bit saying whether the edge trips or
   retires anything; only then are the masks read. A known trace skips
   the call to [materialize]. No allocation unless a monitor trips
   ([fire] closes over nothing when the hook is [None]: one comparison
   per retirement, never per event). *)
let step_trace eng id symbol =
  let base = id * eng.stride in
  let base =
    if id >= 0 && base < Array.length eng.slots
       && Array.unsafe_get eng.slots base >= 0
    then base
    else materialize eng id
  in
  let slots = eng.slots in
  let position = Array.unsafe_get slots base + 1 in
  Array.unsafe_set slots base position;
  eng.events <- eng.events + 1;
  let groups = eng.groups and alphabet = eng.alphabet in
  for g = 0 to Array.length groups - 1 do
    let gr = Array.unsafe_get groups g and slot = base + 1 + (2 * g) in
    let edge = (Array.unsafe_get slots slot * alphabet) + symbol in
    let e = Array.unsafe_get gr.next edge in
    Array.unsafe_set slots slot (e lsr 1);
    if e land 1 <> 0 then emit eng gr ~id ~slot ~edge ~position
  done

let check_symbol eng symbol =
  if symbol < 0 || symbol >= eng.alphabet then
    invalid_arg
      (Printf.sprintf "Engine: symbol %d outside alphabet [0, %d)" symbol
         eng.alphabet)

(* Record the chunk's telemetry from deltas of the engine's own
   counters. [n] events were just stepped; [t0_us]/[mw0] were read
   before the loop (only when collection was already enabled), and
   [hook_words] counts from zero since then. *)
let record_chunk eng ~n ~t0_us ~mw0 ~tripped0 ~retired0 =
  let dt_ns = int_of_float ((Obs.Clock.now_us () -. t0_us) *. 1e3) in
  let mw = int_of_float (Gc.minor_words () -. mw0) - eng.hook_words in
  Obs.Metrics.add m_events n;
  Obs.Metrics.incr m_chunks;
  Obs.Metrics.add m_retired_tripped (eng.tripped - tripped0);
  Obs.Metrics.add m_retired_admissible (eng.retired_ok - retired0);
  Obs.Metrics.set g_live eng.live_pairs;
  Obs.Metrics.observe h_chunk_latency dt_ns;
  Obs.Metrics.observe h_stage_feed dt_ns;
  Obs.Metrics.observe h_chunk_events n;
  Obs.Metrics.add m_minor_words mw;
  if n > 0 then Obs.Metrics.set g_minor_words_per_event (mw / n)

let step eng ~trace ~symbol =
  check_symbol eng symbol;
  step_trace eng trace symbol

let feed eng ?(off = 0) ~n ~traces ~symbols () =
  if off < 0 || n < 0 || off + n > Array.length traces
     || off + n > Array.length symbols
  then invalid_arg "Engine.feed: bad chunk bounds";
  let run () =
    for k = off to off + n - 1 do
      let symbol = Array.unsafe_get symbols k in
      check_symbol eng symbol;
      step_trace eng (Array.unsafe_get traces k) symbol
    done
  in
  if not (Obs.is_enabled ()) then run ()
  else begin
    let sp = Obs.Span.enter "engine.feed" in
    let t0_us = Obs.Clock.now_us () in
    let mw0 = Gc.minor_words () in
    let tripped0 = eng.tripped and retired0 = eng.retired_ok in
    eng.hook_words <- 0;
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

let set_retire_hook eng h = eng.hook <- h

let nmonitors eng = Array.length eng.monitors
let ntraces eng = eng.ntraces
let events eng = eng.events
let tripped eng = eng.tripped
let retired_admissible eng = eng.retired_ok
let nvacuous eng = eng.nvacuous

let live eng = eng.live_pairs

(* The slot offset of a materialized trace. *)
let base_of eng id =
  if id >= 0 && id < eng.ntraces && eng.slots.(id * eng.stride) >= 0 then
    Some (id * eng.stride)
  else None

let trace_events eng id =
  match base_of eng id with Some base -> eng.slots.(base) | None -> 0

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* Position and state of a tripped (trace, monitor). *)
let trip_entry eng id m =
  let v =
    Sl_core.Int_table.find eng.trip_at ((id * Array.length eng.where) + m)
  in
  (v / eng.smax, v mod eng.smax)

(* [f m state ~tripped ~live] for every member monitor of a
   materialized trace, in ascending monitor index; [state] is the
   shadow state (a tripped monitor's trip state is in [trip_at]). *)
let iter_members eng base f =
  Array.iteri
    (fun g gr ->
      let p = eng.slots.(base + 1 + (2 * g))
      and t = eng.slots.(base + 2 + (2 * g)) in
      let k = Array.length gr.members in
      let live = gr.cantrip.(p) land lnot t in
      for j = 0 to k - 1 do
        f gr.members.(j) gr.tuples.((p * k) + j)
          ~tripped:(t land (1 lsl j) <> 0) ~live:(live land (1 lsl j) <> 0)
      done)
    eng.groups

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
  let monitors = eng.monitors in
  let m = Array.length monitors in
  let live = Array.make (max m 1) 0 and tripped = Array.make (max m 1) 0 in
  let seen = ref 0 in
  for id = 0 to eng.ntraces - 1 do
    match base_of eng id with
    | None -> ()
    | Some base ->
        incr seen;
        iter_members eng base (fun mi _ ~tripped:t ~live:l ->
            if l then live.(mi) <- live.(mi) + 1;
            if t then tripped.(mi) <- tripped.(mi) + 1)
  done;
  Array.init m (fun mi ->
      let pd = monitors.(mi) in
      if pd.Packed_dfa.vacuous then
        { mc_live = 0; mc_tripped = 0; mc_retired = 0 }
      else if pd.Packed_dfa.pre_tripped then
        { mc_live = 0; mc_tripped = !seen; mc_retired = 0 }
      else
        { mc_live = live.(mi); mc_tripped = tripped.(mi);
          mc_retired = !seen - live.(mi) - tripped.(mi) })

(* Cheap per-trace census for /traces: (events, live, tripped) without
   copying the per-monitor states the way [export_trace] does. *)
let trace_summary eng id =
  match base_of eng id with
  | None -> None
  | Some base ->
      let live = ref 0 and tripped = ref (Array.length eng.pretripped) in
      Array.iteri
        (fun g gr ->
          let p = eng.slots.(base + 1 + (2 * g))
          and t = eng.slots.(base + 2 + (2 * g)) in
          live := !live + popcount (gr.cantrip.(p) land lnot t);
          tripped := !tripped + popcount t)
        eng.groups;
      Some (eng.slots.(base), !live, !tripped)

let verdict eng ~trace ~monitor =
  let pd = eng.monitors.(monitor) in
  if pd.Packed_dfa.vacuous then Vacuous
  else if pd.Packed_dfa.pre_tripped then Violation { position = 0 }
  else
    match base_of eng trace with
    | None -> Admissible
    | Some base ->
        let w = eng.where.(monitor) in
        if eng.slots.(base + 2 + (2 * (w lsr 6))) land (1 lsl (w land 63)) = 0
        then Admissible
        else Violation { position = fst (trip_entry eng trace monitor) }

(* Externalization: the per-trace state as plain per-monitor arrays,
   decoded from the product's tuple table and the trip table, so the
   session codec can serialize a run without reaching into the
   engine's representation. [ts_live] is ascending. *)
type trace_state = {
  ts_events : int;
  ts_states : int array;
  ts_live : int array;
  ts_tripped_at : int array;
}

let export_trace eng id =
  match base_of eng id with
  | None -> None
  | Some base ->
      let monitors = eng.monitors in
      let m = Array.length monitors in
      let states = Array.make m Packed_dfa.start in
      let tripped_at =
        Array.map (fun pd -> if pd.Packed_dfa.pre_tripped then 0 else -1)
          monitors
      in
      let live = ref [] in
      iter_members eng base (fun mi q ~tripped ~live:l ->
          if tripped then begin
            let position, state = trip_entry eng id mi in
            tripped_at.(mi) <- position;
            states.(mi) <- state
          end
          else states.(mi) <- q;
          if l then live := mi :: !live);
      Some
        { ts_events = eng.slots.(base); ts_states = states;
          ts_live = Array.of_list (List.rev !live); ts_tripped_at = tripped_at }

(* ---- Restore ----

   A restored engine is built in one pass from its traces. Each
   distinct state vector among them is a root of the products, beside
   the start vector: a snapshot's vectors, and reload carry-over's,
   which starts fresh monitors at state 0 in the middle of a trace and
   so may lie outside the start-reachable product. The counters are
   then the trace table's census. *)

(* Restoring trusts nothing: a snapshot is bytes from disk, so every
   field is validated against the monitors before it touches engine
   state. Raises [Invalid_argument] on any inconsistency — the session
   decoder wraps that into [Wire.Corrupt]. *)
let validate (monitors : Packed_dfa.t array) ~smax id (ts : trace_state) =
  let m = Array.length monitors in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        invalid_arg (Printf.sprintf "Engine.restore: trace %d: %s" id s))
      fmt
  in
  if Array.length ts.ts_states <> m then
    fail "states length %d (have %d monitors)" (Array.length ts.ts_states) m;
  if Array.length ts.ts_tripped_at <> m then
    fail "tripped_at length %d (have %d monitors)"
      (Array.length ts.ts_tripped_at) m;
  if ts.ts_events < 0 then fail "negative event count %d" ts.ts_events;
  (* the trip table packs [position * smax + state] into one int *)
  if ts.ts_events >= max_int / smax then
    fail "event count %d past the trip table's range" ts.ts_events;
  if Array.length ts.ts_live > m then
    fail "live list length %d (have %d monitors)" (Array.length ts.ts_live) m;
  for i = 0 to m - 1 do
    let s = ts.ts_states.(i) in
    if s < 0 || s >= monitors.(i).nstates then
      fail "monitor %d state %d outside [0, %d)" i s monitors.(i).nstates;
    let p = ts.ts_tripped_at.(i) in
    if p < -1 || p > ts.ts_events then
      fail "monitor %d trip position %d outside [-1, %d]" i p ts.ts_events
  done;
  let live = Array.make (max m 1) false in
  Array.iter
    (fun mi ->
      if mi < 0 || mi >= m then fail "live monitor %d outside [0, %d)" mi m;
      if live.(mi) then fail "monitor %d listed live twice" mi;
      live.(mi) <- true;
      if ts.ts_tripped_at.(mi) >= 0 then
        fail "monitor %d both live and tripped" mi;
      if monitors.(mi).vacuous then fail "vacuous monitor %d listed live" mi)
    ts.ts_live;
  (* A run never leaves a monitor elsewhere than these: vacuous and
     pre-tripped monitors at the start, pre-tripped ones tripped at 0,
     and an untripped monitor live exactly while it can still trip. *)
  Array.iteri
    (fun i (pd : Packed_dfa.t) ->
      let s = ts.ts_states.(i) and p = ts.ts_tripped_at.(i) in
      if pd.vacuous || pd.pre_tripped then begin
        if s <> Packed_dfa.start then
          fail "monitor %d never steps, but is in state %d" i s;
        if p <> if pd.pre_tripped then 0 else -1 then
          fail "monitor %d trip position %d" i p
      end
      else if p < 0 && live.(i) <> pd.can_trip.(s) then
        fail "monitor %d %s in state %d" i
          (if live.(i) then "live" else "retired") s)
    monitors

let restore ~monitors traces =
  let m = Array.length monitors in
  let smax = smax_of monitors in
  Array.iteri (fun id ts -> Option.iter (validate monitors ~smax id) ts) traces;
  let index = Tuples.create 64 and roots = ref [] in
  let root v =
    if not (Tuples.mem index v) then begin
      Tuples.add index v (Tuples.length index);
      roots := v :: !roots
    end
  in
  root (Array.make m Packed_dfa.start);
  Array.iter (Option.iter (fun ts -> root ts.ts_states)) traces;
  let eng, at = make monitors (Array.of_list (List.rev !roots)) in
  let nt = ref 0 in
  Array.iteri (fun id ts -> if Option.is_some ts then nt := id + 1) traces;
  eng.slots <- empty_slots ~stride:eng.stride ~cap:(max 4 !nt);
  eng.ntraces <- !nt;
  Array.iteri
    (fun id ->
      Option.iter (fun ts ->
          let base = id * eng.stride and r = Tuples.find index ts.ts_states in
          eng.slots.(base) <- ts.ts_events;
          Array.iteri
            (fun g gr ->
              let t = ref 0 in
              Array.iteri
                (fun j mi ->
                  let p = ts.ts_tripped_at.(mi) in
                  if p >= 0 then begin
                    t := !t lor (1 lsl j);
                    Sl_core.Int_table.replace eng.trip_at ((id * m) + mi)
                      ((p * smax) + ts.ts_states.(mi))
                  end)
                gr.members;
              eng.slots.(base + 1 + (2 * g)) <- at.(g).(r);
              eng.slots.(base + 2 + (2 * g)) <- !t)
            eng.groups))
    traces;
  for id = 0 to !nt - 1 do
    Option.iter
      (fun (events, live, tripped) ->
        eng.events <- eng.events + events;
        if eng.events < 0 then invalid_arg "Engine.restore: event total overflows";
        eng.tripped <- eng.tripped + tripped;
        eng.live_pairs <- eng.live_pairs + live;
        eng.retired_ok <-
          eng.retired_ok + eng.nmembers + Array.length eng.pretripped - live
          - tripped)
      (trace_summary eng id)
  done;
  eng
