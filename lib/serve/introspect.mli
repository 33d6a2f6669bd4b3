(** Live introspection: JSON status endpoints ([sl-status/1]) served on
    the daemon's one-shot HTTP path next to [/metrics].

    Four routes, all read-only over the shared {!Daemon}:

    - [GET /healthz] — liveness: [status] and [uptime_s].
    - [GET /status] — uptime, registry identity, engine counters, the
      connection table (buffer/back-pressure state per live
      connection), reload counts with a bounded history, resume/
      snapshot configuration, compile-cache hit ratios, and obs-kernel
      state.
    - [GET /monitors] — one row per distinct monitor: canonical-key
      hash, the property names riding on it, and its exact verdict
      census (live / tripped / retired-admissible trace counts) from
      {!Sl_runtime.Engine.monitor_counts} — the trace table itself,
      not telemetry counters, so the numbers square with the offline
      report even after a [--resume].
    - [GET /traces] — per-trace [(name, events, live, tripped)] rows,
      capped at 1000 with a [truncated] flag.

    Responses are {!Sl_json.Json} values with fixed field order, in
    the one-line layout with one trailing newline, content type
    [application/json]. *)

type t

val create :
  ?resumed_from:string -> ?snapshot_path:string -> version:string ->
  jobs:int -> Daemon.t -> t
(** Uptime starts now. [resumed_from]/[snapshot_path] surface the
    daemon's session-artifact configuration in [/status]; [jobs] is the
    process's pool width, reported as [/status] ["jobs"]. *)

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

val conn_info_of_conn : Conn.t -> conn_info

val set_conns : t -> (unit -> conn_info list) -> unit
(** Install the connection-table source (the loop closes over its live
    client list). Default: empty. *)

val note_reload : t -> ok:bool -> detail:string -> unit
(** Record a SIGHUP reload attempt (bounded history, newest first). *)

val handler : t -> string -> (string * string * string) option
(** The {!Conn.create}[ ?http] handler: [Some (status, content_type,
    body)] for the four routes above, [None] otherwise. *)

val get : Unix.sockaddr -> string -> string * string
(** The client side, for [slc top] and the CI smokes: [GET path] on a
    fresh connection to [addr], the reply read to EOF; its status line
    (["HTTP/1.0 200 OK"]) and body.
    @raise Failure on a reply with no blank line after the header.
    @raise Unix.Unix_error when the connection fails. *)
