open Sl_runtime
module Obs = Sl_obs.Obs

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
  | Undecided  (* the first line may still be a GET request *)
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
    Daemon.scanner =
      Ingest.scanner ~chunk_size:1 ~alphabet:1 (Ingest.create ())
        ~on_chunk:ignore ~on_error:ignore;
    scratch = Buffer.create 1;
    slab = Bytes.empty;
    touched = Sl_core.Int_table.create ();
  }

type t = {
  id : int;  (* process-unique, for the /status connection table *)
  daemon : Daemon.t;
  max_line : int;
  hwm : int;
  listener : string;  (* "unix" | "tcp" | "local" (tests) *)
  http_handler : (string -> (string * string * string) option) option;
  head : Buffer.t;  (* the first line's bytes while [Undecided] *)
  mutable bufs : Daemon.bufs;  (* pooled; [released] once returned *)
  mutable mode : mode;
  mutable requested : bool;  (* the first line was an HTTP request *)
  mutable out_off : int;  (* slab bytes [out_off, out_len) are unwritten *)
  mutable out_len : int;
  mutable dump : Daemon.snapshot option;  (* EOF dump still to render *)
  mutable greeted : bool;  (* hello queued (deferred past GET detection) *)
  mutable conn_events : int;
  mutable conn_errors : int;
  mutable draining : bool;
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

(* The scanner's callbacks. A chunk's ids join the touched set and its
   events go through the engine, their records into the scratch.

   The hello precedes every record except the errors of leading
   over-cap lines: a line over the cap decides nothing, so the greeting
   waits for the first line that fits, or for EOF. Until then every
   error rendered was an over-cap one, so [e_line = conn_errors + 1]
   says that every line before this over-cap one was over the cap
   too. *)
let on_chunk c (chunk : Ingest.chunk) =
  greet c;
  let { Daemon.touched; scratch; _ } = c.bufs in
  Sl_core.Int_table.add_all touched chunk.Ingest.trace_ids
    ~len:chunk.Ingest.len;
  c.conn_events <- c.conn_events + chunk.Ingest.len;
  Obs.Metrics.add c.ev_child chunk.Ingest.len;
  Daemon.feed c.daemon ~buf:scratch chunk;
  if Buffer.length scratch >= slab_cap then flush_slab c

let on_error c (e : Ingest.error) =
  if not (e.Ingest.e_trace = None && e.Ingest.e_line = c.conn_errors + 1)
  then greet c;
  c.conn_errors <- c.conn_errors + 1;
  Obs.Metrics.incr c.err_child;
  Records.add_error c.bufs.scratch ~line:e.Ingest.e_line ~trace:e.Ingest.e_trace
    ~reason:e.Ingest.e_reason

let next_id = ref 0

let create ?(max_line = 65536) ?(hwm = 262144) ?(listener = "local") ?http
    daemon =
  let id = !next_id in
  incr next_id;
  let c =
    {
      id;
      daemon;
      max_line;
      hwm;
      listener;
      http_handler = http;
      head = Buffer.create 16;
      bufs = Daemon.take_bufs daemon;
      mode = Undecided;
      requested = false;
      out_off = 0;
      out_len = 0;
      dump = None;
      greeted = false;
      conn_events = 0;
      conn_errors = 0;
      draining = false;
      ev_child = Obs.Metrics.counter_child v_conn_events [ listener ];
      err_child = Obs.Metrics.counter_child v_conn_errors [ listener ];
    }
  in
  Ingest.restart c.bufs.scanner ~max_line ~on_chunk:(on_chunk c)
    ~on_error:(on_error c);
  c

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

let http c line =
  (* the reply goes straight into the slab, past the scratch: whatever
     the scratch holds must reach the queue first *)
  flush_slab c;
  c.mode <- Http;
  c.requested <- true;
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

(* One block in line mode: the scanner delivers every complete line's
   events before the block returns, so no chunk straddles a reload. *)
let scan c s off len =
  let sc = c.bufs.scanner in
  Ingest.scan_string sc s off len;
  Ingest.scan_flush sc;
  flush_slab c

(* Line mode from here on; the first line's bytes held so far go to the
   scanner first. *)
let start_lines c =
  c.mode <- Lines;
  if Buffer.length c.head > 0 then begin
    Ingest.scan_string c.bufs.scanner (Buffer.contents c.head) 0
      (Buffer.length c.head);
    Buffer.reset c.head
  end

(* The protocol decision: a first line that starts with "GET " and fits
   the cap is an HTTP request; anything else starts the line protocol.
   Until the first line's bytes settle it, they wait in [head]. [byte k]
   is the stream's [k]-th byte, in [head] or in the block [s.[off ..]];
   the block may be a view of a reusable read buffer, so the newline
   search stops at its end. *)
let byte c s off k =
  let h = Buffer.length c.head in
  if k < h then Buffer.nth c.head k else String.unsafe_get s (off + k - h)

let rec agrees c s off stop k =
  k = 4
  || k = Buffer.length c.head + stop - off
  || (byte c s off k = "GET ".[k] && agrees c s off stop (k + 1))

let rec newline s i stop =
  if i = stop || s.[i] = '\n' then i else newline s (i + 1) stop

let decide c s off len =
  let h = Buffer.length c.head and stop = off + len in
  let nl = if h + len < 4 then stop else newline s (off + max 0 (4 - h)) stop in
  if (not (agrees c s off stop 0)) || h + nl - off > c.max_line then begin
    start_lines c;
    scan c s off len
  end
  else begin
    Buffer.add_substring c.head s off (nl - off);
    if nl < stop then http c (Buffer.contents c.head)
  end

let on_bytes_str c s off len =
  match c.mode with
  | Lines -> scan c s off len
  | Undecided -> decide c s off len
  | Http | Done -> ()

let on_bytes c s = on_bytes_str c s 0 (String.length s)

(* Reading into one reusable [Bytes.t] and scanning it in place is
   sound: nothing past this call retains a reference into the block —
   the scanner copies what it keeps, and so do the first-line buffer
   and the error records. *)
let on_bytes_raw c b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Conn.on_bytes_raw";
  on_bytes_str c (Bytes.unsafe_to_string b) off len

let touched_ids c =
  let ids = Sl_core.Int_table.keys c.bufs.touched in
  Array.sort Int.compare ids;
  ids

(* An unterminated first line still undecided at EOF is a request if it
   starts with "GET " (any longer line would have been decided): it
   gets the reply alone, as if its newline had arrived. *)
let on_eof c =
  (match c.mode with
  | Undecided when Buffer.length c.head >= 4 -> http c (Buffer.contents c.head)
  | Undecided | Lines ->
      greet c;
      if c.mode = Undecided then start_lines c;
      Ingest.scan_eof c.bufs.scanner;
      c.dump <-
        Some
          (Daemon.snapshot c.daemon ~ids:(touched_ids c)
             ~conn_events:c.conn_events ~conn_errors:c.conn_errors)
  | Http | Done -> ());
  c.mode <- Done;
  c.draining <- true;
  flush_slab c;
  refill c

let streaming c =
  (match c.mode with Undecided | Lines -> true | Http | Done -> false)
  && not c.draining

let wants_read c = streaming c && pending_output c < c.hwm

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
let lines c = if c.requested then 1 else Ingest.lines c.bufs.scanner
let listener c = c.listener

let mode_name c =
  match c.mode with
  | Undecided | Lines -> "lines"
  | Http -> "http"
  | Done -> "done"

(* Back-pressured: still streaming but over the high-water mark, so the
   loop has stopped selecting the socket for reads. *)
let stalled c = streaming c && pending_output c >= c.hwm
