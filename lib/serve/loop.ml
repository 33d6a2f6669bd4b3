open Sl_runtime
module Obs = Sl_obs.Obs

type config = {
  props_file : string;
  unix_socket : string option;
  tcp_port : int option;
  snapshot : string option;
  resume : string option;
  max_line : int;
  hwm : int;
  quiet : bool;
}

(* Metrics (registered eagerly; recording is Obs-gated as usual). *)
let m_conns_total = Obs.Metrics.counter "serve_connections_total"
let m_conns = Obs.Metrics.gauge "serve_connections"
let m_bytes_in = Obs.Metrics.counter "serve_bytes_in_total"
let m_bytes_out = Obs.Metrics.counter "serve_bytes_out_total"
let m_stalled = Obs.Metrics.gauge "serve_backpressure_stalled"
let m_reloads = Obs.Metrics.counter "serve_reloads_total"
let m_reload_failures = Obs.Metrics.counter "serve_reload_failures_total"
let m_conn_errors = Obs.Metrics.counter "serve_line_errors_total"
let m_accept_errors = Obs.Metrics.counter "serve_accept_errors_total"

(* Pipeline-stage timing: one observation per write pump (a connection
   draining its queue to the socket), the last stage of the serving
   pipeline. *)
let h_stage_write =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: socket write pump latency per round"
    "stage_socket_write_ns"

(* Signal flags: handlers only flip refs; the loop acts between
   rounds. *)
let hup = ref false
let term = ref false

let install_signals () =
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> hup := true));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> term := true));
  (* a vanished client must surface as EPIPE on its own write, never
     kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let note cfg fmt =
  if cfg.quiet then Printf.ifprintf stderr fmt
  else Printf.fprintf stderr fmt

let build_registry cfg =
  let registry = Registry.create () in
  match Registry.load_file registry cfg.props_file with
  | Error msg ->
      prerr_endline ("slc serve: " ^ msg);
      exit 2
  | Ok errs ->
      List.iter prerr_endline errs;
      if Registry.nprops registry = 0 then begin
        prerr_endline "slc serve: no well-formed properties; nothing to monitor";
        exit 2
      end;
      registry

let build_session cfg registry =
  match cfg.resume with
  | None -> Session.create ~registry ()
  | Some path -> (
      match Session.load ~registry ~path () with
      | Ok s ->
          note cfg "slc serve: resumed %s (%d traces, %d events)\n%!" path
            (Engine.ntraces (Session.engine s))
            (Engine.events (Session.engine s));
          s
      | Error e ->
          prerr_endline
            ("slc serve: --resume " ^ path ^ ": "
           ^ Session.restore_error_to_string e);
          exit 2)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

(* [Unix.select] takes only descriptors below FD_SETSIZE (1024 on
   Linux) and fails with EINVAL on any other, so [accept_all] refuses
   connections whose descriptor lands at or above it. On Unix a
   [file_descr] is the descriptor number itself. *)
let fd_setsize = 1024
let fd_index (fd : Unix.file_descr) : int = Obj.magic fd

let too_many =
  let buf = Buffer.create 64 in
  Records.add_error buf ~line:0 ~trace:None ~reason:"too many connections";
  Buffer.contents buf

type client = {
  fd : Unix.file_descr;
  conn : Conn.t;
  mutable dead : bool;  (* transport failed; close regardless of drain *)
}

let run cfg =
  (* The daemon exposes /metrics; a dark kernel would scrape as all
     zeros, so serving implies collection. *)
  Obs.enable ();
  let registry = build_registry cfg in
  let session = build_session cfg registry in
  let daemon = Daemon.make session in
  let introspect =
    Introspect.create ?resumed_from:cfg.resume ?snapshot_path:cfg.snapshot
      ~version:"1.0.0" daemon
  in
  let http = Introspect.handler introspect in
  install_signals ();
  hup := false;
  term := false;
  let listeners = ref [] in
  (match cfg.unix_socket with
  | Some path ->
      (try listeners := (listen_unix path, `Unix path) :: !listeners
       with Unix.Unix_error (e, _, _) ->
         prerr_endline
           (Printf.sprintf "slc serve: cannot bind %s: %s" path
              (Unix.error_message e));
         exit 2)
  | None -> ());
  (match cfg.tcp_port with
  | Some port ->
      (try listeners := (listen_tcp port, `Tcp port) :: !listeners
       with Unix.Unix_error (e, _, _) ->
         prerr_endline
           (Printf.sprintf "slc serve: cannot bind 127.0.0.1:%d: %s" port
              (Unix.error_message e));
         exit 2)
  | None -> ());
  if !listeners = [] then begin
    prerr_endline "slc serve: no listener (need --socket and/or --port)";
    exit 2
  end;
  List.iter
    (fun (_, where) ->
      match where with
      | `Unix path -> note cfg "slc serve: listening on %s\n%!" path
      | `Tcp port -> note cfg "slc serve: listening on 127.0.0.1:%d\n%!" port)
    !listeners;
  (* Live clients by descriptor: a ready fd finds its client in O(1). *)
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 64 in
  (* /status lists connections newest first *)
  Introspect.set_conns introspect (fun () ->
      Hashtbl.fold
        (fun _ cl acc ->
          if cl.dead then acc else Introspect.conn_info_of_conn cl.conn :: acc)
        clients []
      |> List.sort (fun (a : Introspect.conn_info) b -> compare b.ci_id a.ci_id));
  let rbuf = Bytes.create 65536 in
  (* Set when accept ran out of descriptors: the next round leaves the
     listeners out of the select (their backlog keeps them readable, so
     polling them would spin) and waits at most 0.1 s for clients. *)
  let accept_paused = ref false in
  let accept_all lfd ~listener =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ when fd_index fd >= fd_setsize ->
          (* [Unix.select] cannot watch this descriptor: tell the client
             why (best effort, one nonblocking write), then refuse it *)
          Unix.set_nonblock fd;
          (try
             ignore
               (Unix.write_substring fd too_many 0 (String.length too_many))
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Obs.Metrics.incr m_accept_errors
      | fd, _ ->
          Unix.set_nonblock fd;
          let conn =
            Conn.create ~max_line:cfg.max_line ~hwm:cfg.hwm ~listener ~http
              daemon
          in
          Hashtbl.replace clients fd { fd; conn; dead = false };
          Obs.Metrics.incr m_conns_total
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          continue := false
      (* a peer that reset before we got to it: skip it, keep accepting *)
      | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
      (* out of descriptors: the pending connection stays queued in the
         listen backlog; stop accepting for this round and retry after
         the next one rather than dying *)
      | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
          Obs.Metrics.incr m_accept_errors;
          accept_paused := true;
          continue := false
    done
  in
  let read_client cl =
    match Unix.read cl.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> Conn.on_eof cl.conn
    | n ->
        Obs.Metrics.add m_bytes_in n;
        let errs0 = Conn.errors cl.conn in
        (* zero-copy: the connection scans [rbuf] in place and retains
           nothing, so the next read may reuse it *)
        Conn.on_bytes_raw cl.conn rbuf 0 n;
        Obs.Metrics.add m_conn_errors (Conn.errors cl.conn - errs0)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> cl.dead <- true
  in
  let write_client cl =
    let t0 =
      if Obs.is_enabled () && Conn.pending_output cl.conn > 0 then
        Obs.Clock.now_us ()
      else 0.
    in
    let continue = ref true in
    while !continue do
      let slab, off, len = Conn.output cl.conn in
      if len = 0 then continue := false
      else
        match Unix.single_write cl.fd slab off len with
        | 0 -> continue := false
        | n ->
            Conn.consumed cl.conn n;
            Obs.Metrics.add m_bytes_out n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            continue := false
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
            cl.dead <- true;
            continue := false
    done;
    if t0 > 0. then
      Obs.Metrics.observe h_stage_write
        (int_of_float ((Obs.Clock.now_us () -. t0) *. 1e3))
  in
  let do_reload () =
    match
      Reload.from_props_file ~old_session:(Daemon.session daemon)
        ~props_file:cfg.props_file ()
    with
    | Ok (s, carried, errs) ->
        List.iter prerr_endline errs;
        Daemon.swap_session daemon s;
        Obs.Metrics.incr m_reloads;
        Introspect.note_reload introspect ~ok:true
          ~detail:
            (Printf.sprintf "%d props, %d/%d monitors carried, fingerprint %s"
               (Registry.nprops (Daemon.registry daemon))
               carried
               (Registry.nmonitors (Daemon.registry daemon))
               (Daemon.fingerprint daemon));
        note cfg
          "slc serve: reloaded %s (%d props, %d/%d monitors carried, \
           fingerprint %s)\n\
           %!"
          cfg.props_file
          (Registry.nprops (Daemon.registry daemon))
          carried
          (Registry.nmonitors (Daemon.registry daemon))
          (Daemon.fingerprint daemon)
    | Error e ->
        Obs.Metrics.incr m_reload_failures;
        Introspect.note_reload introspect ~ok:false ~detail:e;
        note cfg "slc serve: reload refused: %s\n%!" e
  in
  while not !term do
    if !hup then begin
      hup := false;
      do_reload ()
    end;
    let paused = !accept_paused in
    accept_paused := false;
    let rfds, wfds =
      Hashtbl.fold
        (fun fd cl (rfds, wfds) ->
          if cl.dead then (rfds, wfds)
          else
            ( (if Conn.wants_read cl.conn then fd :: rfds else rfds),
              if Conn.pending_output cl.conn > 0 then fd :: wfds else wfds ))
        clients
        ((if paused then [] else List.map fst !listeners), [])
    in
    let timeout = if paused then 0.1 else 0.5 in
    (match Unix.select rfds wfds [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match List.assoc_opt fd !listeners with
            | Some (`Unix _) -> accept_all fd ~listener:"unix"
            | Some (`Tcp _) -> accept_all fd ~listener:"tcp"
            | None -> Option.iter read_client (Hashtbl.find_opt clients fd))
          readable;
        List.iter
          (fun fd -> Option.iter write_client (Hashtbl.find_opt clients fd))
          writable);
    (* Close the finished and the dead; either way the connection's
       buffers go back to the daemon's pool. *)
    let closing, stalled =
      Hashtbl.fold
        (fun _ cl (closing, stalled) ->
          if cl.dead || Conn.should_close cl.conn then (cl :: closing, stalled)
          else if Conn.wants_read cl.conn then (closing, stalled)
          else (closing, stalled + 1))
        clients ([], 0)
    in
    List.iter
      (fun cl ->
        (try Unix.close cl.fd with Unix.Unix_error _ -> ());
        Conn.release cl.conn;
        Hashtbl.remove clients cl.fd)
      closing;
    Obs.Metrics.set m_conns (Hashtbl.length clients);
    Obs.Metrics.set m_stalled stalled
  done;
  (* Graceful shutdown: stop accepting, snapshot, close. *)
  List.iter
    (fun (fd, where) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match where with
      | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | `Tcp _ -> ())
    !listeners;
  Hashtbl.iter
    (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    clients;
  match cfg.snapshot with
  | None -> 0
  | Some path -> (
      try
        Session.save (Daemon.session daemon) ~path;
        note cfg "slc serve: snapshot written to %s (%d traces, %d events)\n%!"
          path
          (Engine.ntraces (Daemon.engine daemon))
          (Engine.events (Daemon.engine daemon));
        0
      with Sys_error msg ->
        prerr_endline ("slc serve: snapshot failed: " ^ msg);
        2)
