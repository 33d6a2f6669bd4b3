(* The seed's engine: every live (trace, monitor) pair stepped on its
   own through the fused megatable ([Packed_dfa.fuse]), with a compact
   live list per trace kept in ascending monitor order.
   [Sl_runtime.Engine] now steps the fleet as a shadow product; this is
   the reference it is pinned against (test/test_runtime.ml). Kept
   verbatim up to telemetry and the retire hook's pre-tripped firings
   at materialization, sharing the engine's verdict and trace-state
   types. *)

module Packed_dfa = Sl_runtime.Packed_dfa
module Engine = Sl_runtime.Engine

type verdict = Engine.verdict =
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

type plan = {
  monitors : Packed_dfa.t array;
  alphabet : int;
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
  mutable hook :
    (trace:int -> monitor:int -> position:int -> tripped:bool -> unit) option;
}

let plan_of_monitors monitors =
  let alphabet =
    match Array.length monitors with
    | 0 -> 1
    | _ -> monitors.(0).Packed_dfa.alphabet
  in
  let mega, mbase = Packed_dfa.fuse monitors in
  { monitors; alphabet; mega; mbase }

let create ~monitors () =
  { plan = plan_of_monitors monitors; traces = Array.make 4 None;
    ntraces = 0; events = 0; tripped = 0; retired_ok = 0; live_pairs = 0;
    hook = None }

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

let fire eng ~trace ~monitor ~position ~tripped =
  match eng.hook with
  | None -> ()
  | Some h -> h ~trace ~monitor ~position ~tripped

(* A new trace's pre-tripped monitors trip through the hook at position
   0, in ascending index. *)
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
      Array.iteri
        (fun m pd ->
          if pd.Packed_dfa.pre_tripped then
            fire eng ~trace:id ~monitor:m ~position:0 ~tripped:true)
        eng.plan.monitors;
      tr

(* Step every live monitor of the trace; the live list stays ascending,
   so the monitors retiring at one event fire in ascending index. *)
let step_trace eng ~id (tr : trace) symbol =
  tr.events <- tr.events + 1;
  eng.events <- eng.events + 1;
  let mega = eng.plan.mega in
  let mbase = eng.plan.mbase in
  let alphabet = eng.plan.alphabet in
  let kept = ref 0 in
  for i = 0 to tr.nlive - 1 do
    let m = Array.unsafe_get tr.live i in
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
      eng.live_pairs <- eng.live_pairs - 1;
      fire eng ~trace:id ~monitor:m ~position:tr.events ~tripped:true
    end
    else begin
      Array.unsafe_set tr.states m (e lsr 2);
      if e land 2 <> 0 then begin
        Array.unsafe_set tr.live !kept m;
        incr kept
      end
      else begin
        eng.retired_ok <- eng.retired_ok + 1;
        eng.live_pairs <- eng.live_pairs - 1;
        fire eng ~trace:id ~monitor:m ~position:tr.events ~tripped:false
      end
    end
  done;
  tr.nlive <- !kept

let check_symbol eng symbol =
  if symbol < 0 || symbol >= eng.plan.alphabet then
    invalid_arg
      (Printf.sprintf "Engine: symbol %d outside alphabet [0, %d)" symbol
         eng.plan.alphabet)

let step eng ~trace ~symbol =
  check_symbol eng symbol;
  step_trace eng ~id:trace (get_trace eng trace) symbol

let feed eng ?(off = 0) ~n ~traces ~symbols () =
  if off < 0 || n < 0 || off + n > Array.length traces
     || off + n > Array.length symbols
  then invalid_arg "Engine.feed: bad chunk bounds";
  for k = off to off + n - 1 do
    let symbol = Array.unsafe_get symbols k in
    check_symbol eng symbol;
    let id = Array.unsafe_get traces k in
    step_trace eng ~id (get_trace eng id) symbol
  done

let set_retire_hook eng h = eng.hook <- h

let ntraces eng = eng.ntraces
let events eng = eng.events
let tripped eng = eng.tripped
let retired_admissible eng = eng.retired_ok
let live eng = eng.live_pairs

let trace_events eng id =
  if id < 0 || id >= Array.length eng.traces then 0
  else match eng.traces.(id) with Some tr -> tr.events | None -> 0

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
        { Engine.mc_live = 0; mc_tripped = 0; mc_retired = 0 }
      else
        { Engine.mc_live = live.(mi); mc_tripped = tripped.(mi);
          mc_retired = !seen - live.(mi) - tripped.(mi) })

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

let export_trace eng id =
  if id < 0 || id >= Array.length eng.traces then None
  else
    match eng.traces.(id) with
    | None -> None
    | Some tr ->
        let m = Array.length eng.plan.monitors in
        Some
          { Engine.ts_events = tr.events;
            ts_states = Array.sub tr.states 0 m;
            ts_live = Array.sub tr.live 0 tr.nlive;
            ts_tripped_at = Array.sub tr.tripped_at 0 m }

(* Overwrite trace [id]'s state, validated as the seed engine did. *)
let restore_trace eng id (ts : Engine.trace_state) =
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
  let tr = get_trace eng id in
  Array.blit ts.ts_states 0 tr.states 0 m;
  Array.blit ts.ts_tripped_at 0 tr.tripped_at 0 m;
  (* the step loop keeps the live list ascending; snapshots written
     before it did may list it in any order *)
  let live = Array.copy ts.ts_live in
  Array.sort compare live;
  Array.blit live 0 tr.live 0 (Array.length live);
  eng.live_pairs <- eng.live_pairs - tr.nlive + Array.length ts.ts_live;
  tr.nlive <- Array.length ts.ts_live;
  tr.events <- ts.ts_events

(* A fresh engine with [traces] restored (trace [id] from
   [traces.(id)] when [Some]), its counters their census: the product
   engine's [Engine.restore]. *)
let restore ~monitors traces =
  let eng = create ~monitors () in
  Array.iteri (fun id -> Option.iter (restore_trace eng id)) traces;
  let counts = monitor_counts eng in
  eng.tripped <- Array.fold_left (fun n c -> n + c.Engine.mc_tripped) 0 counts;
  eng.retired_ok <-
    Array.fold_left (fun n c -> n + c.Engine.mc_retired) 0 counts;
  eng.events <-
    Array.fold_left
      (fun n -> function Some (tr : trace) -> n + tr.events | None -> n)
      0 eng.traces;
  eng
