(* Live introspection: the daemon's /status, /monitors, /traces and
   /healthz endpoints, answered on the same one-shot HTTP path as
   /metrics (Conn's [http] handler). Each body is a Sl_json.Json value
   with fixed field order (schema sl-status/1), written in the one-line
   layout.

   Everything here is read-only over the daemon's live state: verdict
   counts come from Engine.monitor_counts / trace_summary (the trace
   table itself, not telemetry counters), so they match the offline
   report exactly, including after a --resume. *)

open Sl_runtime

let schema = "sl-status/1"

type conn_info = {
  ci_id : int;
  ci_listener : string;
  ci_mode : string;
  ci_lines : int;
  ci_events : int;
  ci_errors : int;
  ci_pending_out : int;
  ci_stalled : bool;
}

type reload_event = { re_at : float; re_ok : bool; re_detail : string }

let history_cap = 16
let traces_cap = 1000

type t = {
  daemon : Daemon.t;
  version : string;
  start_wall : float;
  resumed_from : string option;
  mutable snapshot_path : string option;
  mutable conns : unit -> conn_info list;
  mutable reloads : reload_event list;  (* newest first, capped *)
  mutable nreloads : int;
  mutable nreload_failures : int;
}

let create ?resumed_from ?snapshot_path ~version daemon =
  {
    daemon;
    version;
    start_wall = Unix.gettimeofday ();
    resumed_from;
    snapshot_path;
    conns = (fun () -> []);
    reloads = [];
    nreloads = 0;
    nreload_failures = 0;
  }

let conn_info_of_conn conn =
  {
    ci_id = Conn.id conn;
    ci_listener = Conn.listener conn;
    ci_mode = Conn.mode_name conn;
    ci_lines = Conn.lines conn;
    ci_events = Conn.events conn;
    ci_errors = Conn.errors conn;
    ci_pending_out = Conn.pending_output conn;
    ci_stalled = Conn.stalled conn;
  }

let set_conns t f = t.conns <- f

let note_reload t ~ok ~detail =
  if ok then t.nreloads <- t.nreloads + 1
  else t.nreload_failures <- t.nreload_failures + 1;
  let ev = { re_at = Unix.gettimeofday (); re_ok = ok; re_detail = detail } in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  t.reloads <- ev :: take (history_cap - 1) t.reloads

let uptime_s t = Unix.gettimeofday () -. t.start_wall

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

module Json = Sl_json.Json

let secs x = Json.fixed 3 x

let render_healthz t =
  Json.Obj
    [ ("schema", Json.Str schema); ("type", Json.Str "healthz");
      ("status", Json.Str "ok"); ("uptime_s", secs (uptime_s t)) ]

let render_status t =
  let d = t.daemon in
  let eng = Daemon.engine d in
  let registry = Daemon.registry d in
  (* connection table, id order *)
  let conns = List.sort (fun a b -> compare a.ci_id b.ci_id) (t.conns ()) in
  let conn ci =
    Json.Obj
      [ ("id", Json.int ci.ci_id); ("listener", Json.Str ci.ci_listener);
        ("mode", Json.Str ci.ci_mode); ("lines", Json.int ci.ci_lines);
        ("events", Json.int ci.ci_events); ("errors", Json.int ci.ci_errors);
        ("pending_out", Json.int ci.ci_pending_out);
        ("stalled", Json.Bool ci.ci_stalled) ]
  in
  let reload ev =
    Json.Obj
      [ ("at", secs ev.re_at); ("ok", Json.Bool ev.re_ok);
        ("detail", Json.Str ev.re_detail) ]
  in
  let str s = Json.Str s in
  Json.Obj
    [ ("schema", Json.Str schema); ("type", Json.Str "status");
      ("version", Json.Str t.version); ("uptime_s", secs (uptime_s t));
      ("fingerprint", Json.Str (Registry.fingerprint registry));
      ("props", Json.int (Registry.nprops registry));
      ("monitors", Json.int (Registry.nmonitors registry));
      ("traces", Json.int (Engine.ntraces eng));
      ("events", Json.int (Engine.events eng));
      ("live", Json.int (Engine.live eng));
      ("tripped", Json.int (Engine.tripped eng));
      ("retired_admissible", Json.int (Engine.retired_admissible eng));
      ("connections", Json.Arr (List.map conn conns));
      ( "reloads",
        Json.Obj
          [ ("count", Json.int t.nreloads);
            ("failures", Json.int t.nreload_failures);
            ("history", Json.Arr (List.rev_map reload t.reloads)) ] );
      ("resumed_from", Json.opt str t.resumed_from);
      ("snapshot_path", Json.opt str t.snapshot_path);
      ( "obs",
        Json.Obj
          [ ("enabled", Json.Bool (Sl_obs.Obs.is_enabled ()));
            ("spans_dropped", Json.int (Sl_obs.Obs.Span.dropped ())) ] ) ]

let render_monitors t =
  let d = t.daemon in
  let eng = Daemon.engine d in
  let registry = Daemon.registry d in
  let monitors = Registry.monitors registry in
  let counts = Engine.monitor_counts eng in
  (* property names per distinct monitor, property-id order *)
  let props_of = Array.make (Array.length monitors) [] in
  List.iter
    (fun (pr : Registry.prop) ->
      props_of.(pr.monitor) <- Json.Str pr.name :: props_of.(pr.monitor))
    (List.rev (Registry.props registry));
  let monitor i pd =
    let c = counts.(i) in
    Json.Obj
      [ ("index", Json.int i);
        ("key", Json.Str (Sl_core.Wire.fnv64_hex pd.Packed_dfa.key));
        ("props", Json.Arr props_of.(i));
        ("vacuous", Json.Bool pd.Packed_dfa.vacuous);
        ("pre_tripped", Json.Bool pd.Packed_dfa.pre_tripped);
        ("live", Json.int c.Engine.mc_live);
        ("tripped", Json.int c.Engine.mc_tripped);
        ("retired_admissible", Json.int c.Engine.mc_retired) ]
  in
  Json.Obj
    [ ("schema", Json.Str schema); ("type", Json.Str "monitors");
      ("fingerprint", Json.Str (Registry.fingerprint registry));
      ("traces", Json.int (Engine.ntraces eng));
      ("monitors", Json.Arr (Array.to_list (Array.mapi monitor monitors))) ]

let render_traces t =
  let d = t.daemon in
  let eng = Daemon.engine d in
  let ing = Daemon.ingest d in
  let total = Engine.ntraces eng in
  let shown = min total traces_cap in
  let trace id =
    Option.map
      (fun (events, live, tripped) ->
        Json.Obj
          [ ("id", Json.int id); ("name", Json.Str (Ingest.name ing id));
            ("events", Json.int events); ("live", Json.int live);
            ("tripped", Json.int tripped) ])
      (Engine.trace_summary eng id)
  in
  Json.Obj
    [ ("schema", Json.Str schema); ("type", Json.Str "traces");
      ("total", Json.int total); ("truncated", Json.Bool (shown < total));
      ("traces", Json.Arr (List.filter_map trace (List.init shown Fun.id))) ]

let json body = Some ("200 OK", "application/json", Json.to_string body)

let handler t path =
  match path with
  | "/status" -> json (render_status t)
  | "/monitors" -> json (render_monitors t)
  | "/traces" -> json (render_traces t)
  | "/healthz" -> json (render_healthz t)
  | _ -> None

let get addr path =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  let reply =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd addr;
        let req = "GET " ^ path ^ " HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
        let rec drain () =
          match Unix.read fd chunk 0 65536 with
          | 0 -> Buffer.contents buf
          | n -> Buffer.add_subbytes buf chunk 0 n; drain ()
          | exception Unix.Unix_error (EINTR, _, _) -> drain ()
        in
        drain ())
  in
  let n = String.length reply in
  let rec blank i =
    if i + 4 > n then failwith "malformed HTTP reply"
    else if String.sub reply i 4 = "\r\n\r\n" then i else blank (i + 1)
  in
  let i = blank 0 in
  let eol = Option.value ~default:i (String.index_opt reply '\r') in
  (String.sub reply 0 eol, String.sub reply (i + 4) (n - i - 4))
