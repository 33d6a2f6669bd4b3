open Sl_runtime
module Obs = Sl_obs.Obs

(* Pipeline-stage timing (socket path): the parse stage is the time
   [on_bytes] spends splitting lines and batching events, minus the
   nested engine-feed time — observed once per [on_bytes] call, never
   per line. The same family is recorded by [Ingest] offline. *)
let h_stage_parse =
  Obs.Metrics.histogram
    ~help:"Pipeline stage: line parse/accumulate latency per chunk"
    "stage_ingest_parse_ns"

(* Per-listener labeled series. The label is the listener kind, not the
   connection id: ids are unbounded over a daemon's lifetime and would
   blow up the exposition's cardinality, so exact per-connection state
   lives in the /status connection table instead (see DESIGN.md
   par. 6.13). *)
let v_conn_events =
  Obs.Metrics.counter_vec ~help:"Events accepted from clients, per listener"
    "conn_events_total" ~labels:[ "listener" ]

let v_conn_errors =
  Obs.Metrics.counter_vec
    ~help:"Malformed or rejected client lines, per listener"
    "conn_errors_total" ~labels:[ "listener" ]

type mode =
  | Lines  (* streaming the Ingest line protocol *)
  | Http  (* one-shot GET answered, ignoring further input *)
  | Done  (* EOF seen, draining *)

(* Output path. Records rendered while processing one read accumulate in
   the scratch buffer and move into the connection's byte slab in one
   blit, per read (or per [slab_cap] bytes within a pathological read);
   the loop writes from the slab in place. The scratch is always empty
   at the public API boundary, so [pending_output]/[should_close]/
   [stalled] see every rendered byte.

   The EOF dump is the one producer not driven by reads: it is frozen
   at EOF as a {!Daemon.snapshot} and rendered a page at a time while
   the slab holds less than [hwm], so the queue stays near [hwm] even
   for a connection that touched many traces. *)
let slab_cap = 65536

(* Buffers of a released connection: never written, since a released
   connection takes no more input and renders nothing. *)
let released =
  {
    Daemon.chunk = Ingest.create_chunk 1;
    scratch = Buffer.create 1;
    slab = Bytes.empty;
    touched = Daemon.Ids.create 1;
  }

type t = {
  id : int;  (* process-unique, for the /status connection table *)
  daemon : Daemon.t;
  max_line : int;
  hwm : int;
  listener : string;  (* "unix" | "tcp" | "local" (tests) *)
  http_handler : (string -> (string * string * string) option) option;
  buf : Buffer.t;  (* at most one partial line *)
  mutable bufs : Daemon.bufs;  (* pooled; [released] once returned *)
  mutable oversized : bool;  (* discarding until the next newline *)
  mutable nlines : int;
  mutable mode : mode;
  mutable out_off : int;  (* slab bytes [out_off, out_len) are unwritten *)
  mutable out_len : int;
  mutable dump : Daemon.snapshot option;  (* EOF dump still to render *)
  mutable greeted : bool;  (* hello queued (deferred past GET detection) *)
  mutable conn_events : int;
  mutable conn_errors : int;
  mutable draining : bool;
  mutable feed_us : float;  (* engine time nested in the current on_bytes *)
  ev_child : Obs.Metrics.counter;
  err_child : Obs.Metrics.counter;
}

let pending_output c = c.out_len - c.out_off

(* The slab's default capacity: a dump page stops at [hwm] plus one
   record. A set whose slab had to grow past it is not pooled again. *)
let max_slab c = c.hwm + slab_cap

(* Make room for [n] more bytes at [out_len]: slide the unwritten bytes
   to the front, or grow the slab (doubling, but not past [max_slab]
   unless one batch needs more). *)
let reserve c n =
  let b = c.bufs in
  if c.out_len + n > Bytes.length b.slab then begin
    let pending = pending_output c in
    let want = pending + n in
    if want <= Bytes.length b.slab then
      Bytes.blit b.slab c.out_off b.slab 0 pending
    else begin
      let doubled = 2 * Bytes.length b.slab in
      let cap =
        if want <= max_slab c then min (max_slab c) (max want doubled)
        else max want doubled
      in
      let slab = Bytes.create cap in
      Bytes.blit b.slab c.out_off slab 0 pending;
      b.slab <- slab
    end;
    c.out_off <- 0;
    c.out_len <- pending
  end

let flush_slab c =
  let scratch = c.bufs.scratch in
  let n = Buffer.length scratch in
  if n > 0 then begin
    reserve c n;
    Buffer.blit scratch 0 c.bufs.slab c.out_len n;
    c.out_len <- c.out_len + n;
    Buffer.clear scratch
  end

let enqueue c s =
  let n = String.length s in
  reserve c n;
  Bytes.blit_string s 0 c.bufs.slab c.out_len n;
  c.out_len <- c.out_len + n

(* Render the EOF dump's next pages while the slab holds less than
   [hwm] (or nothing: a page always makes progress). *)
let refill c =
  match c.dump with
  | None -> ()
  | Some snap ->
      let finished = ref false in
      while
        (not !finished) && (pending_output c < c.hwm || pending_output c = 0)
      do
        let limit = max 1 (min slab_cap (c.hwm - pending_output c)) in
        finished := Daemon.render_page c.daemon snap c.bufs.scratch ~limit;
        flush_slab c
      done;
      if !finished then c.dump <- None

let next_id = ref 0

let create ?(max_line = 65536) ?(hwm = 262144) ?(listener = "local") ?http
    daemon =
  let id = !next_id in
  incr next_id;
  {
    id;
    daemon;
    max_line;
    hwm;
    listener;
    http_handler = http;
    buf = Buffer.create 256;
    bufs = Daemon.take_bufs daemon;
    oversized = false;
    nlines = 0;
    mode = Lines;
    out_off = 0;
    out_len = 0;
    dump = None;
    greeted = false;
    conn_events = 0;
    conn_errors = 0;
    draining = false;
    feed_us = 0.;
    ev_child = Obs.Metrics.counter_child v_conn_events [ listener ];
    err_child = Obs.Metrics.counter_child v_conn_errors [ listener ];
  }

let release c =
  if c.bufs != released then begin
    Daemon.give_bufs c.daemon ~max_slab:(max_slab c) c.bufs;
    c.bufs <- released;
    c.out_off <- 0;
    c.out_len <- 0;
    c.dump <- None;
    c.mode <- Done;
    c.draining <- true
  end

let should_close c =
  c.draining && pending_output c = 0 && Option.is_none c.dump

(* The greeting opens every NDJSON stream, but only once the first line
   has ruled out HTTP mode — a Prometheus scraper must see the status
   line first, not a stray JSON record. *)
let greet c =
  if not c.greeted then begin
    c.greeted <- true;
    let registry = Daemon.registry c.daemon in
    Records.add_hello c.bufs.scratch ~version:"1.0.0"
      ~props:(Registry.nprops registry)
      ~monitors:(Registry.nmonitors registry)
      ~fingerprint:(Registry.fingerprint registry)
  end

let report c ~trace reason =
  c.conn_errors <- c.conn_errors + 1;
  Obs.Metrics.incr c.err_child;
  Records.add_error c.bufs.scratch ~line:c.nlines ~trace ~reason

let flush_chunk c =
  let { Daemon.chunk; scratch; _ } = c.bufs in
  if chunk.Ingest.len > 0 then begin
    (if Obs.is_enabled () then begin
       let t0 = Obs.Clock.now_us () in
       Daemon.feed c.daemon ~buf:scratch chunk;
       c.feed_us <- c.feed_us +. (Obs.Clock.now_us () -. t0);
       Obs.Metrics.add c.ev_child chunk.Ingest.len
     end
     else Daemon.feed c.daemon ~buf:scratch chunk);
    chunk.Ingest.len <- 0
  end

let http c line =
  (* records already rendered (the EOF-path greeting) must reach the
     queue before the HTTP reply, which bypasses the scratch *)
  flush_slab c;
  c.mode <- Http;
  c.draining <- true;
  let path =
    match String.split_on_char ' ' line with
    | _ :: path :: _ -> path
    | _ -> "/"
  in
  let status, ctype, body =
    if path = "/metrics" then
      ("200 OK", "text/plain; version=0.0.4", Sl_obs.Obs.Metrics.to_prometheus ())
    else
      match Option.bind c.http_handler (fun h -> h path) with
      | Some reply -> reply
      | None -> ("404 Not Found", "text/plain", "not found\n")
  in
  enqueue c
    (Printf.sprintf
       "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n%s"
       status ctype (String.length body) body)

(* One complete protocol line as a slice of the transport block —
   scanned in place by [Ingest.scan_event] (the allocation-free fast
   path); blank/comment/malformed lines fall back to [Ingest.scan_line]
   for the exact skip/error result. *)
let process_slice c s off len =
  if
    c.nlines = 1 && len >= 4
    && String.unsafe_get s off = 'G'
    && String.unsafe_get s (off + 1) = 'E'
    && String.unsafe_get s (off + 2) = 'T'
    && String.unsafe_get s (off + 3) = ' '
  then http c (String.sub s off len)
  else begin
    greet c;
    let ingest = Daemon.ingest c.daemon in
    let alphabet = Daemon.alphabet c.daemon in
    let { Daemon.chunk; touched; scratch; _ } = c.bufs in
    let push id symbol =
      Daemon.Ids.replace touched id ();
      chunk.Ingest.trace_ids.(chunk.Ingest.len) <- id;
      chunk.Ingest.symbols.(chunk.Ingest.len) <- symbol;
      chunk.Ingest.len <- chunk.Ingest.len + 1;
      c.conn_events <- c.conn_events + 1;
      if chunk.Ingest.len = Array.length chunk.Ingest.trace_ids then begin
        flush_chunk c;
        if Buffer.length scratch >= slab_cap then flush_slab c
      end
    in
    let id = Ingest.scan_event ingest ~alphabet s off len in
    if id >= 0 then push id (Ingest.scanned_symbol ingest)
    else
      match Ingest.scan_line ingest ~alphabet s off len with
      | `Skip -> ()
      | `Error (trace, reason) -> report c ~trace reason
      | `Event (id, symbol) ->
          (* unreachable: [scan_event] accepts every event line *)
          push id symbol
  end

(* A complete line arrived: the partial buffer plus the slice. *)
let complete_slice c s off len =
  c.nlines <- c.nlines + 1;
  if c.oversized then begin
    (* tail of a line already reported over-length — resynchronize *)
    c.oversized <- false;
    Buffer.clear c.buf
  end
  else if Buffer.length c.buf + len > c.max_line then begin
    Buffer.clear c.buf;
    report c ~trace:None
      (Printf.sprintf "line exceeds %d bytes (skipped)" c.max_line)
  end
  else if Buffer.length c.buf = 0 then process_slice c s off len
  else begin
    (* line split across reads: materialize once and re-scan *)
    Buffer.add_substring c.buf s off len;
    let line = Buffer.contents c.buf in
    Buffer.clear c.buf;
    process_slice c line 0 (String.length line)
  end

(* A partial line (no newline yet): buffer, or tip over the cap. *)
let partial_slice c s off len =
  if not c.oversized then begin
    if Buffer.length c.buf + len > c.max_line then begin
      c.oversized <- true;
      Buffer.clear c.buf;
      c.nlines <- c.nlines + 1;
      report c ~trace:None
        (Printf.sprintf "line exceeds %d bytes (skipped)" c.max_line);
      (* the count stays on this line while we discard its tail *)
      c.nlines <- c.nlines - 1
    end
    else Buffer.add_substring c.buf s off len
  end

(* The core loop over one transport block [s.[off, off+len)]. The
   newline scan is [Ingest.find_newline] (C memchr) bounded by [stop] —
   the block may be a view of a reusable read buffer whose bytes beyond
   [len] are stale, where [String.index_from_opt] could find a newline
   from a previous read. *)
let on_bytes_str c s off len =
  if c.mode = Lines then begin
    let enabled = Obs.is_enabled () in
    let t0 = if enabled then Obs.Clock.now_us () else 0. in
    c.feed_us <- 0.;
    let stop = off + len in
    let i = ref off in
    while !i < stop && c.mode = Lines do
      let j = Ingest.find_newline s !i stop in
      if j >= 0 then begin
        complete_slice c s !i (j - !i);
        i := j + 1
      end
      else begin
        partial_slice c s !i (stop - !i);
        i := stop
      end
    done;
    flush_chunk c;
    if enabled && c.mode = Lines then begin
      let parse_us = Obs.Clock.now_us () -. t0 -. c.feed_us in
      if parse_us >= 0. then
        Obs.Metrics.observe h_stage_parse (int_of_float (parse_us *. 1e3))
    end;
    flush_slab c
  end

let on_bytes c s = on_bytes_str c s 0 (String.length s)

(* Reading into one reusable [Bytes.t] and scanning it in place is
   sound: nothing past this call retains a reference into the block —
   [Ingest.scan_line] copies what it keeps, and so do the partial-line
   buffer and the error records. *)
let on_bytes_raw c b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Conn.on_bytes_raw";
  on_bytes_str c (Bytes.unsafe_to_string b) off len

let touched_ids c =
  let ids = Array.make (Daemon.Ids.length c.bufs.touched) 0 in
  let n = ref 0 in
  Daemon.Ids.iter
    (fun id () ->
      ids.(!n) <- id;
      incr n)
    c.bufs.touched;
  Array.sort Int.compare ids;
  ids

let on_eof c =
  (match c.mode with
  | Lines ->
      greet c;
      flush_chunk c;
      if (not c.oversized) && Buffer.length c.buf > 0 then begin
        (* final line without a newline *)
        let line = Buffer.contents c.buf in
        Buffer.clear c.buf;
        c.nlines <- c.nlines + 1;
        process_slice c line 0 (String.length line);
        flush_chunk c
      end;
      c.dump <-
        Some
          (Daemon.snapshot c.daemon ~ids:(touched_ids c)
             ~conn_events:c.conn_events ~conn_errors:c.conn_errors)
  | Http | Done -> ());
  c.mode <- Done;
  c.draining <- true;
  flush_slab c;
  refill c

let wants_read c =
  (match c.mode with Lines -> true | Http | Done -> false)
  && (not c.draining)
  && pending_output c < c.hwm

let output c = (c.bufs.slab, c.out_off, pending_output c)

let consumed c n =
  if n < 0 || n > pending_output c then
    invalid_arg "Conn.consumed: past the pending output";
  c.out_off <- c.out_off + n;
  if c.out_off = c.out_len then begin
    c.out_off <- 0;
    c.out_len <- 0
  end;
  refill c;
  if should_close c then release c

let drain_output c =
  let out = Buffer.create (pending_output c + 16) in
  let rec drain () =
    Buffer.add_subbytes out c.bufs.slab c.out_off (pending_output c);
    c.out_off <- 0;
    c.out_len <- 0;
    refill c;
    if c.out_len > 0 then drain ()
  in
  drain ();
  if should_close c then release c;
  Buffer.contents out

let touched c = Array.to_list (touched_ids c)

let events c = c.conn_events
let errors c = c.conn_errors
let id c = c.id
let lines c = c.nlines
let listener c = c.listener

let mode_name c =
  match c.mode with Lines -> "lines" | Http -> "http" | Done -> "done"

(* Back-pressured: still streaming but over the high-water mark, so the
   loop has stopped selecting the socket for reads. *)
let stalled c = c.mode = Lines && (not c.draining) && pending_output c >= c.hwm
