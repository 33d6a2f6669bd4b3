open Sl_runtime
module Obs = Sl_obs.Obs

(* Pipeline-stage timing: time spent rendering verdict records (the
   retire hook plus pre-tripped announcements) during one feed.
   Retirements are rare — at most monitors x traces over a whole run —
   so the two clock reads per firing stay off the per-event path; the
   accumulated delta is observed once per chunk. *)
let h_stage_render =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: verdict record render latency per chunk"
    "stage_verdict_render_ns"

(* {2 Connection buffer sets}

   The buffers a connection needs in proportion to its traffic live in
   one set, recycled through the daemon's free list. They are large
   enough to be allocated on the major heap, where every collection
   also walks the daemon's whole trace table, so a short connection
   must not leave them behind as garbage. *)

module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (id : int) = id
end)

type bufs = {
  chunk : Ingest.chunk;
  scratch : Buffer.t;
  mutable slab : Bytes.t;
  touched : unit Ids.t;
}

let chunk_size = 4096
let slab_size = 65536

(* A table holding more ids than this keeps a bucket array too large to
   park in the free list ([Ids.clear] keeps the array). *)
let touched_cap = 65536

let fresh_bufs () =
  {
    chunk = Ingest.create_chunk chunk_size;
    scratch = Buffer.create 4096;
    slab = Bytes.create slab_size;
    touched = Ids.create 16;
  }

type t = {
  mutable session : Session.t;
  mutable props_of_monitor : string list array;
      (* distinct monitor index -> property names riding on it, in
         property-id order *)
  mutable prop_names : string array;  (* property-id order *)
  mutable prop_monitors : int array;  (* property id -> monitor index *)
  mutable pretripped_props : string list;
  mutable announced : int;
      (* trace ids below this had their pre-tripped verdicts emitted
         (or predate the daemon and are covered by EOF dumps) *)
  mutable out : Buffer.t option;
      (* the feeding connection's scratch buffer, installed for the
         duration of a [feed] — the retire hook renders into it
         directly, so a chunk's records coalesce into one slab *)
  mutable render_us : float;  (* render time nested in the current feed *)
  pool_max : int;
  mutable pool : bufs list;  (* free buffer sets, at most [pool_max] *)
  mutable pooled : int;
}

let props_by_monitor registry =
  let buckets = Array.make (Registry.nmonitors registry) [] in
  List.iter
    (fun (p : Registry.prop) ->
      buckets.(p.monitor) <- p.name :: buckets.(p.monitor))
    (List.rev (Registry.props registry));
  buckets

let pretripped_of registry =
  let monitors = Registry.monitors registry in
  List.filter_map
    (fun (p : Registry.prop) ->
      if monitors.(p.monitor).Packed_dfa.pre_tripped then Some p.name
      else None)
    (Registry.props registry)

let install_hook d =
  Engine.set_retire_hook (Session.engine d.session)
    (Some
       (fun ~trace ~monitor ~position ~tripped ->
         match d.out with
         | None -> ()
         | Some buf ->
             let t0 = if Obs.is_enabled () then Obs.Clock.now_us () else 0. in
             let tname = Ingest.name (Session.ingest d.session) trace in
             List.iter
               (fun prop ->
                 if tripped then
                   Records.add_verdict_violation buf ~trace:tname ~prop
                     ~position ~cause:"trip"
                 else
                   Records.add_verdict_admissible buf ~trace:tname ~prop
                     ~cause:"retire")
               d.props_of_monitor.(monitor);
             if t0 > 0. then
               d.render_us <- d.render_us +. (Obs.Clock.now_us () -. t0)))

let adopt d session =
  d.session <- session;
  let registry = Session.registry session in
  d.props_of_monitor <- props_by_monitor registry;
  let props = Array.of_list (Registry.props registry) in
  d.prop_names <- Array.map (fun (p : Registry.prop) -> p.name) props;
  d.prop_monitors <- Array.map (fun (p : Registry.prop) -> p.monitor) props;
  d.pretripped_props <- pretripped_of registry;
  d.announced <- Engine.ntraces (Session.engine session);
  install_hook d

let make ?(pool = 8) session =
  let d =
    {
      session;
      props_of_monitor = [||];
      prop_names = [||];
      prop_monitors = [||];
      pretripped_props = [];
      announced = 0;
      out = None;
      render_us = 0.;
      pool_max = pool;
      pool = [];
      pooled = 0;
    }
  in
  adopt d session;
  d

let session d = d.session
let registry d = Session.registry d.session
let engine d = Session.engine d.session
let ingest d = Session.ingest d.session
let alphabet d = Registry.alphabet (registry d)
let fingerprint d = Registry.fingerprint (registry d)

let feed d ~buf (chunk : Ingest.chunk) =
  let eng = Session.engine d.session in
  d.out <- Some buf;
  d.render_us <- 0.;
  Fun.protect
    ~finally:(fun () -> d.out <- None)
    (fun () ->
      Engine.feed eng ~n:chunk.Ingest.len ~traces:chunk.Ingest.trace_ids
        ~symbols:chunk.Ingest.symbols ());
  let after = Engine.ntraces eng in
  if after > d.announced then begin
    (if d.pretripped_props <> [] then begin
       let t0 = if Obs.is_enabled () then Obs.Clock.now_us () else 0. in
       let ing = Session.ingest d.session in
       for id = d.announced to after - 1 do
         let trace = Ingest.name ing id in
         List.iter
           (fun prop ->
             Records.add_verdict_violation buf ~trace ~prop ~position:0
               ~cause:"pretripped")
           d.pretripped_props
       done;
       if t0 > 0. then
         d.render_us <- d.render_us +. (Obs.Clock.now_us () -. t0)
     end);
    d.announced <- after
  end;
  if Obs.is_enabled () && d.render_us > 0. then
    Obs.Metrics.observe h_stage_render (int_of_float (d.render_us *. 1e3))

(* An EOF verdict as an int: a violation's position (>= 0), or one of
   these two. *)
let code_vacuous = -1
let code_admissible = -2

let verdict_code eng ~trace ~monitor =
  match Engine.verdict eng ~trace ~monitor with
  | Engine.Vacuous -> code_vacuous
  | Engine.Admissible -> code_admissible
  | Engine.Violation { position } -> position

let add_eof_verdict buf ~trace ~prop code =
  if code = code_vacuous then Records.add_verdict_vacuous buf ~trace ~prop
  else if code = code_admissible then
    Records.add_verdict_admissible buf ~trace ~prop ~cause:"eof"
  else Records.add_verdict_violation buf ~trace ~prop ~position:code ~cause:"eof"

let dump d ~buf ~trace =
  let eng = Session.engine d.session in
  let tname = Ingest.name (Session.ingest d.session) trace in
  Array.iteri
    (fun j prop ->
      add_eof_verdict buf ~trace:tname ~prop
        (verdict_code eng ~trace ~monitor:d.prop_monitors.(j)))
    d.prop_names

(* The engine-global half of a summary record. *)
type counts = {
  traces : int;
  events : int;
  props : int;
  monitors : int;
  tripped : int;
  retired_admissible : int;
  live : int;
}

let counts d =
  let eng = Session.engine d.session in
  {
    traces = Engine.ntraces eng;
    events = Engine.events eng;
    props = Array.length d.prop_names;
    monitors = Engine.nmonitors eng;
    tripped = Engine.tripped eng;
    retired_admissible = Engine.retired_admissible eng;
    live = Engine.live eng;
  }

let add_counts buf c ~conn_events ~conn_errors =
  Records.add_summary buf ~traces:c.traces ~events:c.events ~props:c.props
    ~monitors:c.monitors ~tripped:c.tripped
    ~retired_admissible:c.retired_admissible ~live:c.live ~conn_events
    ~conn_errors

let add_summary d buf ~conn_events ~conn_errors =
  add_counts buf (counts d) ~conn_events ~conn_errors

type snapshot = {
  ids : int array;
  names : string array;
  codes : int array;  (* ids.(i) x names.(j) at [i * |names| + j] *)
  totals : counts;
  conn_events : int;
  conn_errors : int;
  mutable next : int;  (* next record; [|codes|] is the summary *)
}

let snapshot d ~ids ~conn_events ~conn_errors =
  let eng = Session.engine d.session in
  let np = Array.length d.prop_names in
  let codes = Array.make (Array.length ids * np) 0 in
  Array.iteri
    (fun i trace ->
      for j = 0 to np - 1 do
        codes.((i * np) + j) <-
          verdict_code eng ~trace ~monitor:d.prop_monitors.(j)
      done)
    ids;
  { ids; names = d.prop_names; codes; totals = counts d; conn_events;
    conn_errors; next = 0 }

let render_page d s buf ~limit =
  let total = Array.length s.codes in
  let np = Array.length s.names in
  let ing = Session.ingest d.session in
  while s.next < total && Buffer.length buf < limit do
    let k = s.next in
    add_eof_verdict buf
      ~trace:(Ingest.name ing s.ids.(k / np))
      ~prop:s.names.(k mod np) s.codes.(k);
    s.next <- k + 1
  done;
  if s.next = total && Buffer.length buf < limit then begin
    add_counts buf s.totals ~conn_events:s.conn_events
      ~conn_errors:s.conn_errors;
    s.next <- total + 1
  end;
  s.next > total

let take_bufs d =
  match d.pool with
  | b :: rest ->
      d.pool <- rest;
      d.pooled <- d.pooled - 1;
      b
  | [] -> fresh_bufs ()

let give_bufs d ~max_slab b =
  if
    d.pooled < d.pool_max
    && Bytes.length b.slab <= max_slab
    && Ids.length b.touched <= touched_cap
  then begin
    b.chunk.Ingest.len <- 0;
    Buffer.clear b.scratch;
    Ids.clear b.touched;
    d.pool <- b :: d.pool;
    d.pooled <- d.pooled + 1
  end

let swap_session d session =
  Engine.set_retire_hook (Session.engine d.session) None;
  adopt d session
