(* The serving layer: the daemon's NDJSON stream must agree with the
   offline report, under any framing and any parallelism.

   The central pin: drive a connection's state machine with the same
   event lines the offline pipeline reads — at every byte-split of the
   input — and the set of (trace, prop, verdict, position)
   tuples served (incremental trip/retire records plus the EOF dump)
   equals the offline verdict table exactly. The adversarial half:
   garbage bytes, oversized lines and half-closed streams produce
   structured error records and never a raise, and a back-pressured
   connection stops asking for reads instead of growing its queue. *)

module Formula = Sl_ltl.Formula
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry
module Engine = Sl_runtime.Engine
module Ingest = Sl_runtime.Ingest
module Session = Sl_runtime.Session
module Records = Sl_serve.Records
module Daemon = Sl_serve.Daemon
module Conn = Sl_serve.Conn
module Reload = Sl_serve.Reload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let props_src =
  [ "G a"; "F !a"; "a & F !a"; "G (a -> F !a)"; "!a"; "G (a -> X !a)" ]

let mk_registry ?(props = props_src) () =
  let r = Registry.create ~alphabet:2 () in
  ignore
    (Registry.compile_all ~jobs:1 r
       (List.map (fun s -> (Some s, Formula.parse_exn s)) props));
  r

let mk_daemon ?props () =
  let registry = mk_registry ?props () in
  Daemon.make (Session.create ~registry ())

(* {2 Reading the stream back}

   Every NDJSON record is parsed by Sl_json, the one JSON reader. *)

module Json = Sl_json.Json

let parse_json body =
  match Json.parse body with
  | Ok v -> v
  | Error e -> Alcotest.failf "invalid JSON (%s): %s" e body

let jmem k v = Option.get (Json.member k v)
let jint k v = Option.get (Json.int_ (jmem k v))
let jstr k v = Option.get (Json.str (jmem k v))
let jbool k v = Option.get (Json.bool_ (jmem k v))
let jarr k v = Option.get (Json.arr (jmem k v))
let jopt conv k v = Option.bind (Json.member k v) conv

(* Substring search, for the non-JSON text under test (HTTP headers,
   error reasons, escaped bytes). *)
let find_sub hay pat =
  let n = String.length hay and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = pat then Some i
    else go (i + 1)
  in
  go 0

(* The NDJSON records and the verdict normal form: test/served. *)
let records = Served.records
let records_of_type = Served.records_of_type
let served_tuples = Served.served_tuples

module Tuples = Served.Tuples

(* The offline truth: a fresh engine over the same registry source fed
   the same events, every (trace, prop) verdict rendered in the same
   normal form. *)
let offline_tuples ?props events =
  let registry = mk_registry ?props () in
  let session = Session.create ~registry () in
  let ingest = Session.ingest session in
  let engine = Session.engine session in
  List.iter
    (fun (name, sym) ->
      Engine.step engine ~trace:(Ingest.intern ingest name) ~symbol:sym)
    events;
  let acc = ref Tuples.empty in
  for id = 0 to Engine.ntraces engine - 1 do
    let tname = Ingest.name ingest id in
    List.iter
      (fun (p : Registry.prop) ->
        let verdict, position =
          match Engine.verdict engine ~trace:id ~monitor:p.monitor with
          | Engine.Vacuous -> ("vacuous", -1)
          | Engine.Admissible -> ("admissible", -1)
          | Engine.Violation { position } -> ("violation", position)
        in
        acc := Tuples.add (tname, p.name, verdict, position) !acc)
      (Registry.props registry)
  done;
  !acc

let render_lines events =
  String.concat ""
    (List.map (fun (t, s) -> Printf.sprintf "%s %d\n" t s) events)

(* Feed [bytes] to a fresh connection cut at [splits] (ascending byte
   offsets), half-close, and return everything it wrote. *)
let serve_split ?props ~splits bytes =
  let daemon = mk_daemon ?props () in
  let conn = Conn.create daemon in
  let n = String.length bytes in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) splits) in
  let rec feed off = function
    | [] -> if off < n then Conn.on_bytes conn (String.sub bytes off (n - off))
    | c :: rest ->
        Conn.on_bytes conn (String.sub bytes off (c - off));
        feed c rest
  in
  feed 0 cuts;
  Conn.on_eof conn;
  (conn, Conn.drain_output conn)

(* {2 Equivalence with the offline report} *)

let test_served_equals_offline () =
  let events =
    [ ("t1", 0); ("t1", 0); ("t2", 1); ("t1", 1); ("t2", 0); ("t2", 1);
      ("t1", 0) ]
  in
  let bytes = render_lines events in
  let offline = offline_tuples events in
  (* every single-byte framing of the stream *)
  let splits = List.init (String.length bytes) (fun i -> i) in
  let _, out = serve_split ~splits bytes in
  check "byte-split serve = offline" true
    (Tuples.equal offline (served_tuples out));
  let _, out2 = serve_split ~splits:[] bytes in
  check "one-shot serve = offline" true
    (Tuples.equal offline (served_tuples out2))

let test_summary_counters () =
  let events = [ ("a", 0); ("b", 1); ("a", 1); ("b", 0) ] in
  let _, out = serve_split ~splits:[ 3; 9 ] (render_lines events) in
  match records_of_type "summary" out with
  | [ s ] ->
      check_int "traces" 2 (jint "traces" s);
      check_int "events" 4 (jint "events" s);
      check_int "conn_events" 4 (jint "conn_events" s);
      check_int "conn_errors" 0 (jint "conn_errors" s)
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

let test_hello_first () =
  let _, out = serve_split ~splits:[] "t 0\n" in
  match records out with
  | first :: _ -> check_str "hello opens the stream" "hello" (jstr "type" first)
  | [] -> Alcotest.fail "no output"

(* Pre-tripped properties (the empty property: safety part rejects the
   empty prefix) must be announced for every trace at position 0. *)
let test_pretripped_announced () =
  let props = [ "a & !a"; "G a" ] in
  let _, out =
    serve_split ~props ~splits:[] (render_lines [ ("x", 1); ("y", 0) ])
  in
  let viols =
    List.filter
      (fun r ->
        jopt Json.str "prop" r = Some "a & !a"
        && jopt Json.int_ "position" r = Some 0
        && jopt Json.str "cause" r = Some "pretripped")
      (records_of_type "verdict" out)
  in
  check_int "one pretripped announcement per trace" 2 (List.length viols);
  let offline = offline_tuples ~props [ ("x", 1); ("y", 0) ] in
  check "still equal to offline" true (Tuples.equal offline (served_tuples out))

(* {2 QCheck: equivalence at random streams and random framings} *)

let qcheck_served_equals_offline =
  let gen =
    QCheck.Gen.(
      let event = pair (oneofl [ "a"; "b"; "c"; "d" ]) (int_bound 1) in
      pair (list_size (int_bound 60) event)
        (list_size (int_bound 8) (int_bound 400)))
  in
  QCheck.Test.make ~count:60 ~name:"served NDJSON = offline report"
    (QCheck.make gen) (fun (events, rawsplits) ->
      let bytes = render_lines events in
      let splits =
        List.filter (fun c -> c < String.length bytes) rawsplits
      in
      let offline = offline_tuples events in
      let _, out = serve_split ~splits bytes in
      Tuples.equal offline (served_tuples out))

(* {2 Hostile clients} *)

let test_garbage_bytes () =
  let daemon = mk_daemon () in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "\x00\xff\x7fgarbage\n";
  Conn.on_bytes conn "t1 0\n";
  Conn.on_bytes conn "t1 not-a-symbol\nt1 7\nt1\n";
  Conn.on_bytes conn "t1 1\n";
  Conn.on_eof conn;
  let out = Conn.drain_output conn in
  let errors = records_of_type "error" out in
  check_int "four error records" 4 (List.length errors);
  check "error lines are 1,3,4,5" true
    (List.map (jint "line") errors = [ 1; 3; 4; 5 ]);
  (* the valid events still monitored *)
  check_int "valid events" 2 (Conn.events conn);
  check "offline equivalence survives the garbage" true
    (Tuples.equal
       (offline_tuples [ ("t1", 0); ("t1", 1) ])
       (served_tuples out))

let test_oversized_line () =
  let daemon = mk_daemon () in
  let conn = Conn.create ~max_line:32 daemon in
  Conn.on_bytes conn ("x " ^ String.make 100 '0');
  Conn.on_bytes conn (String.make 50 '1');
  Conn.on_bytes conn "\nt2 1\n";
  Conn.on_eof conn;
  let out = Conn.drain_output conn in
  let errors = records_of_type "error" out in
  check_int "one error for the oversized line" 1 (List.length errors);
  check "reason names the cap" true
    (match errors with
    | [ e ] -> find_sub (jstr "reason" e) "exceeds 32" <> None
    | _ -> false);
  check_int "the next line still monitors" 1 (Conn.events conn);
  check "t2 served" true
    (Tuples.equal (offline_tuples [ ("t2", 1) ]) (served_tuples out))

let test_half_close_dump () =
  (* a client that writes nothing and half-closes still gets hello,
     no verdicts, and a summary *)
  let daemon = mk_daemon () in
  let conn = Conn.create daemon in
  Conn.on_eof conn;
  let out = Conn.drain_output conn in
  check_int "hello" 1 (List.length (records_of_type "hello" out));
  check_int "no verdicts" 0 (List.length (records_of_type "verdict" out));
  check_int "summary" 1 (List.length (records_of_type "summary" out));
  check "drained conn closes" true (Conn.should_close conn)

let test_bytes_after_eof_ignored () =
  let daemon = mk_daemon () in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "t 0\n";
  Conn.on_eof conn;
  let before = Conn.events conn in
  Conn.on_bytes conn "t 1\nt 1\n";
  check_int "events frozen after eof" before (Conn.events conn)

let test_http_metrics () =
  let daemon = mk_daemon () in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "GET /metrics HTTP/1.0\r\n\r\n";
  let out = Conn.drain_output conn in
  check "status line first (no hello)" true
    (String.length out > 15 && String.sub out 0 15 = "HTTP/1.0 200 OK");
  check "prometheus content type" true
    (find_sub out "Content-Type: text/plain" <> None);
  check "closes after response" true (Conn.should_close conn);
  let conn2 = Conn.create daemon in
  Conn.on_bytes conn2 "GET /nope HTTP/1.0\r\n";
  let out2 = Conn.drain_output conn2 in
  check "404 elsewhere" true (String.sub out2 0 12 = "HTTP/1.0 404")

let test_backpressure () =
  let daemon = mk_daemon () in
  let conn = Conn.create ~hwm:256 daemon in
  check "fresh conn reads" true (Conn.wants_read conn);
  (* burst enough retirements to cross the mark in one read *)
  let events =
    List.init 40 (fun i -> (Printf.sprintf "t%d" i, 1)) |> render_lines
  in
  Conn.on_bytes conn events;
  check "over hwm: stop reading" true (not (Conn.wants_read conn));
  check "queue is bounded-ish, not runaway" true
    (Conn.pending_output conn < 256 + 65536);
  let _ = Conn.drain_output conn in
  check "drained: reads again" true (Conn.wants_read conn)

(* {2 Paged EOF dump and pooled buffers} *)

(* Write a connection's output the way the loop does — from the slab in
   place, [step] bytes per write — checking the queue bound after every
   write, until it closes or [limit] bytes are out. *)
let pump ?(limit = max_int) ~step ~bound conn =
  let out = Buffer.create 4096 in
  let rec go () =
    let slab, off, len = Conn.output conn in
    let n = min (min len step) (limit - Buffer.length out) in
    if n > 0 then begin
      Buffer.add_subbytes out slab off n;
      Conn.consumed conn n;
      if Conn.pending_output conn > bound then
        Alcotest.failf "%d bytes pending after a write, over the bound %d"
          (Conn.pending_output conn) bound;
      go ()
    end
  in
  go ();
  Buffer.contents out

(* The dump as the daemon renders it eagerly: every touched trace's
   verdicts in id order, then the summary. *)
let eager_dump daemon conn =
  let buf = Buffer.create 4096 in
  List.iter (fun trace -> Daemon.dump daemon ~buf ~trace) (Conn.touched conn);
  Daemon.add_summary daemon buf ~conn_events:(Conn.events conn)
    ~conn_errors:(Conn.errors conn);
  Buffer.contents buf

let test_eof_dump_paged () =
  let hwm = 4096 in
  let bound = hwm + 65536 in
  let daemon = mk_daemon () in
  let conn = Conn.create ~hwm daemon in
  Conn.on_bytes conn
    (render_lines (List.init 400 (fun i -> (Printf.sprintf "trace-%d" i, i mod 2))));
  ignore (Conn.drain_output conn);
  let reference = eager_dump daemon conn in
  check "the dump exceeds 4 x hwm" true (String.length reference > 4 * hwm);
  Conn.on_eof conn;
  check "pending within the bound at EOF" true
    (Conn.pending_output conn <= bound);
  check "pending actually bounded by the page size" true
    (Conn.pending_output conn < String.length reference);
  let out = pump ~step:1000 ~bound conn in
  check_str "paged dump = eager dump at EOF" reference out;
  check "drained conn closes" true (Conn.should_close conn)

(* A's dump is frozen at its EOF: events fed later by B on A's traces
   and a reload that changes the property set do not leak into it. *)
let test_eof_dump_frozen () =
  let daemon = mk_daemon () in
  let a = Conn.create ~hwm:512 daemon in
  let traces = List.init 60 (fun i -> Printf.sprintf "t%d" i) in
  Conn.on_bytes a (render_lines (List.map (fun t -> (t, 0)) traces));
  ignore (Conn.drain_output a);
  let reference = eager_dump daemon a in
  Conn.on_eof a;
  let head = pump ~limit:700 ~step:100 ~bound:(512 + 65536) a in
  let b = Conn.create daemon in
  Conn.on_bytes b (render_lines (List.map (fun t -> (t, 1)) traces));
  (match
     Reload.carry_over ~old_session:(Daemon.session daemon)
       ~registry:(mk_registry ~props:(props_src @ [ "G !a" ]) ())
       ()
   with
  | Ok (s, _) -> Daemon.swap_session daemon s
  | Error e -> Alcotest.failf "reload refused: %s" e);
  Conn.on_bytes b (render_lines (List.map (fun t -> (t, 0)) traces));
  Conn.on_eof b;
  ignore (Conn.drain_output b);
  check "B's events changed A's traces" true (eager_dump daemon a <> reference);
  let rest = pump ~step:333 ~bound:(512 + 65536) a in
  check_str "A's dump and summary = the EOF-time render" reference (head ^ rest)

(* 500 connections in sequence on one daemon, drawing buffer sets from
   its pool, against the same sequence on a twin daemon that gives every
   connection fresh buffers: each stream must be byte-identical, so no
   bytes of a previous owner survive in a recycled set. *)
let test_pool_hygiene () =
  Sl_obs.Obs.disable ();
  let rng = Random.State.make [| 13 |] in
  let pooled = mk_daemon () and fresh = Daemon.make ~pool:0
      (Session.create ~registry:(mk_registry ()) ()) in
  let slabs = ref [] and reused = ref 0 in
  for i = 0 to 499 do
    let hwm = [| 256; 4096; 262144 |].(Random.State.int rng 3) in
    let max_line = if i mod 7 = 3 then 24 else 65536 in
    let kind = Random.State.int rng 10 in
    let input =
      if kind = 0 then "GET /metrics HTTP/1.0\r\n\r\n"
      else
        String.concat ""
          (List.init (Random.State.int rng 60) (fun _ ->
               if Random.State.int rng 25 = 0 then
                 "long-" ^ String.make (Random.State.int rng 60) 'x' ^ " 0\n"
               else
                 Printf.sprintf "tr%d %d\n" (Random.State.int rng 200)
                   (Random.State.int rng 2)))
    in
    let cut = Random.State.int rng (String.length input + 1) in
    let abandon = kind = 1 in
    let limit = if abandon then Random.State.int rng 2000 else max_int in
    let step = if abandon then 97 else 1 + Random.State.int rng 5000 in
    let run daemon =
      let conn = Conn.create ~hwm ~max_line daemon in
      let slab, _, _ = Conn.output conn in
      Conn.on_bytes conn (String.sub input 0 cut);
      Conn.on_bytes conn (String.sub input cut (String.length input - cut));
      Conn.on_eof conn;
      let out = pump ~limit ~step ~bound:(hwm + 65536) conn in
      if abandon then Conn.release conn;
      check "closes once drained or released" true (Conn.should_close conn);
      (slab, out)
    in
    let slab, out = run pooled in
    let _, reference = run fresh in
    let reference =
      if abandon then String.sub reference 0 (String.length out) else reference
    in
    if List.memq slab !slabs then incr reused else slabs := slab :: !slabs;
    check_str (Printf.sprintf "connection %d stream" i) reference out
  done;
  check "the pool recycles buffer sets" true (!reused > 400)

(* {2 Hot reload} *)

(* The engine's live count is maintained, never recomputed: wherever a
   session is rebuilt (identical-registry round trip, per-monitor
   carry-over, snapshot resume) it must still equal the census taken
   from the trace table, per trace and per monitor. *)
let check_live_census what eng =
  check (what ^ ": live = trace-table census") true
    (Test_runtime.census_agrees eng)

let test_reload_identical () =
  let registry = mk_registry () in
  let session = Session.create ~registry () in
  let daemon = Daemon.make session in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "t1 0\nt1 0\n";
  (match
     Reload.carry_over ~old_session:(Daemon.session daemon)
       ~registry:(mk_registry ()) ()
   with
  | Error e -> Alcotest.failf "identical reload refused: %s" e
  | Ok (s, carried) ->
      check_int "all monitors carried" (Registry.nmonitors registry) carried;
      check_live_census "identical reload" (Session.engine s);
      check_int "identical reload keeps the live count"
        (Engine.live (Daemon.engine daemon))
        (Engine.live (Session.engine s));
      Daemon.swap_session daemon s);
  (* the in-flight trace trips at position 3 across the swap *)
  Conn.on_bytes conn "t1 1\n";
  Conn.on_eof conn;
  let out = Conn.drain_output conn in
  check "verdicts as if never reloaded" true
    (Tuples.equal
       (offline_tuples [ ("t1", 0); ("t1", 0); ("t1", 1) ])
       (served_tuples out));
  check "G a tripped at 3 across the reload" true
    (Tuples.mem ("t1", "G a", "violation", 3) (served_tuples out))

let test_reload_carry_over () =
  (* old registry [G a]; new adds [!a] and drops nothing: the G a
     monitor state must carry, !a starts fresh at the reload point *)
  let old_registry = mk_registry ~props:[ "G a" ] () in
  let session = Session.create ~registry:old_registry () in
  let daemon = Daemon.make session in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "x 0\n";
  (match
     Reload.carry_over ~old_session:(Daemon.session daemon)
       ~registry:(mk_registry ~props:[ "G a"; "!a" ] ())
       ()
   with
  | Error e -> Alcotest.failf "compatible reload refused: %s" e
  | Ok (s, carried) ->
      check_int "G a carried" 1 carried;
      check_live_census "carry-over reload" (Session.engine s);
      Daemon.swap_session daemon s);
  Conn.on_bytes conn "x 1\n";
  Conn.on_eof conn;
  let tuples = served_tuples (Conn.drain_output conn) in
  check "carried G a trips at its true position 2" true
    (Tuples.mem ("x", "G a", "violation", 2) tuples);
  (* the fresh !a monitor saw only the post-reload suffix, whose first
     event is !a: admissible forever *)
  check "fresh prop judges only the suffix" true
    (Tuples.mem ("x", "!a", "admissible", -1) tuples);
  let eng = Daemon.engine daemon in
  check_int "no live monitors left" 0 (Engine.live eng);
  check_int "one trip counted" 1 (Engine.tripped eng);
  check_int "one admissible retirement counted" 1
    (Engine.retired_admissible eng)

(* Save mid-stream, resume into a fresh session, and keep feeding: the
   live count is exact on the resumed engine before and after the
   continuation. *)
let test_resume_live_census () =
  let registry = mk_registry () in
  let daemon = Daemon.make (Session.create ~registry ()) in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "t1 0\nt2 1\nt1 0\nt3 0\n";
  let path = Filename.temp_file "slc-serve-test" ".snap" in
  Session.save (Daemon.session daemon) ~path;
  (match Session.load ~registry:(mk_registry ()) ~path () with
  | Error e ->
      Alcotest.failf "resume failed: %s" (Session.restore_error_to_string e)
  | Ok s ->
      let eng = Session.engine s in
      check_live_census "resumed" eng;
      check_int "resume keeps the live count"
        (Engine.live (Daemon.engine daemon))
        (Engine.live eng);
      let resumed = Daemon.make s in
      let conn' = Conn.create resumed in
      Conn.on_bytes conn' "t1 1\nt2 0\nt4 0\n";
      check_live_census "resumed then fed" eng);
  Sys.remove path

let test_reload_alphabet_refused () =
  let registry = mk_registry () in
  let session = Session.create ~registry () in
  let wide = Registry.create ~alphabet:3 () in
  ignore (Registry.add_formula wide (Formula.parse_exn "G a"));
  match Reload.carry_over ~old_session:session ~registry:wide () with
  | Ok _ -> Alcotest.fail "alphabet change must refuse"
  | Error e -> check "refusal names the alphabet" true
      (find_sub e "alphabet" <> None)

let test_reload_from_props_file () =
  let dir = Filename.temp_file "slc-serve-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let props = Filename.concat dir "props.txt" in
  let write s =
    let oc = open_out props in
    output_string oc s;
    close_out oc
  in
  write "G a\nF !a\n";
  let registry = Registry.create ~alphabet:2 () in
  let ic = open_in props in
  ignore (Registry.load_channel registry ~path:props ic);
  close_in ic;
  let session = Session.create ~registry () in
  let daemon = Daemon.make session in
  let conn = Conn.create daemon in
  Conn.on_bytes conn "t 0\n";
  write "G a\n!a\nnot a formula ((\n";
  (match
     Reload.from_props_file ~old_session:(Daemon.session daemon)
       ~props_file:props ()
   with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok (s, carried, errs) ->
      check_int "G a carried" 1 carried;
      check_int "the bad line reported, not fatal" 1 (List.length errs);
      Daemon.swap_session daemon s);
  Conn.on_bytes conn "t 1\n";
  Conn.on_eof conn;
  let tuples = served_tuples (Conn.drain_output conn) in
  check "carried monitor remembers the prefix" true
    (Tuples.mem ("t", "G a", "violation", 2) tuples);
  write "";
  (match
     Reload.from_props_file ~old_session:(Daemon.session daemon)
       ~props_file:props ()
   with
  | Ok _ -> Alcotest.fail "empty props file must refuse"
  | Error e -> check "refusal mentions the file" true
      (find_sub e "no well-formed" <> None));
  Sys.remove props;
  Sys.rmdir dir

(* Reload mid-stream at every split point: equivalence with the
   never-reloaded run must hold wherever the SIGHUP lands. *)
let test_reload_at_every_chunk () =
  let events =
    [ ("t1", 0); ("t2", 1); ("t1", 0); ("t2", 0); ("t1", 1); ("t2", 1) ]
  in
  let offline = offline_tuples events in
  let n = List.length events in
  for k = 0 to n do
    let registry = mk_registry () in
    let daemon = Daemon.make (Session.create ~registry ()) in
    let conn = Conn.create daemon in
    let before, after =
      (List.filteri (fun i _ -> i < k) events,
       List.filteri (fun i _ -> i >= k) events)
    in
    Conn.on_bytes conn (render_lines before);
    (match
       Reload.carry_over ~old_session:(Daemon.session daemon)
         ~registry:(mk_registry ()) ()
     with
    | Ok (s, _) -> Daemon.swap_session daemon s
    | Error e -> Alcotest.failf "reload at %d refused: %s" k e);
    Conn.on_bytes conn (render_lines after);
    Conn.on_eof conn;
    check
      (Printf.sprintf "reload after %d events = uninterrupted" k)
      true
      (Tuples.equal offline (served_tuples (Conn.drain_output conn)))
  done

(* {2 Introspection: /status, /monitors, /traces, /healthz} *)

module Introspect = Sl_serve.Introspect
module Obs = Sl_obs.Obs

(* One-shot HTTP scrape through a fresh connection wired to the
   introspection handler, returning the parsed body. *)
let scrape daemon intro path =
  let conn = Conn.create ~http:(Introspect.handler intro) daemon in
  Conn.on_bytes conn (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
  let out = Conn.drain_output conn in
  check (path ^ " answers 200") true
    (String.length out > 15 && String.sub out 0 15 = "HTTP/1.0 200 OK");
  check (path ^ " is JSON") true
    (find_sub out "Content-Type: application/json" <> None);
  match find_sub out "\r\n\r\n" with
  | None -> Alcotest.fail "no header/body separator"
  | Some i -> parse_json (String.sub out (i + 4) (String.length out - i - 4))

let test_status_schema () =
  let daemon = mk_daemon () in
  let intro = Introspect.create ~version:"test" ~jobs:3 daemon in
  let stream = Conn.create ~listener:"unix" daemon in
  Conn.on_bytes stream "t1 0\nt1 1\nt2 1\n";
  Introspect.set_conns intro (fun () ->
      [ Introspect.conn_info_of_conn stream ]);
  let eng = Daemon.engine daemon in
  (* /status *)
  let v = scrape daemon intro "/status" in
  check_str "schema" "sl-status/1" (jstr "schema" v);
  check_str "type" "status" (jstr "type" v);
  check_str "version" "test" (jstr "version" v);
  check_int "jobs is the process pool width" 3 (jint "jobs" v);
  check "uptime non-negative" true
    (Option.get (Json.num (jmem "uptime_s" v)) >= 0.);
  check_int "traces" 2 (jint "traces" v);
  check_int "events" 3 (jint "events" v);
  check_int "live" (Engine.live eng) (jint "live" v);
  check_int "tripped" (Engine.tripped eng) (jint "tripped" v);
  check_int "retired" (Engine.retired_admissible eng)
    (jint "retired_admissible" v);
  (match jarr "connections" v with
  | [ c ] ->
      check_str "conn listener" "unix" (jstr "listener" c);
      check_str "conn mode" "lines" (jstr "mode" c);
      check_int "conn events" 3 (jint "events" c);
      check "conn not stalled" false (jbool "stalled" c)
  | l -> Alcotest.failf "expected one connection row, got %d" (List.length l));
  check_int "no reloads yet" 0 (jint "count" (jmem "reloads" v));
  Introspect.note_reload intro ~ok:true ~detail:"test \"reload\"";
  let v = scrape daemon intro "/status" in
  check_int "reload counted" 1 (jint "count" (jmem "reloads" v));
  (* /healthz *)
  let h = scrape daemon intro "/healthz" in
  check_str "healthz schema" "sl-status/1" (jstr "schema" h);
  check_str "healthz ok" "ok" (jstr "status" h);
  (* /traces *)
  let t = scrape daemon intro "/traces" in
  check_int "traces total" 2 (jint "total" t);
  check "not truncated" false (jbool "truncated" t);
  (match jarr "traces" t with
  | [ t1; t2 ] ->
      check_str "first trace name" "t1" (jstr "name" t1);
      check_int "first trace events" 2 (jint "events" t1);
      check_str "second trace name" "t2" (jstr "name" t2);
      check_int "second trace events" 1 (jint "events" t2)
  | l -> Alcotest.failf "expected two trace rows, got %d" (List.length l))

(* /monitors gives the exact per-monitor verdict census: summed over
   monitors it must reproduce the engine's global counters, and every
   row carries the stable canonical-key hash. *)
let test_monitors_census () =
  let daemon = mk_daemon () in
  let intro = Introspect.create ~version:"test" ~jobs:1 daemon in
  let stream = Conn.create daemon in
  Conn.on_bytes stream "a 0\nb 1\na 1\nb 0\na 0\n";
  let eng = Daemon.engine daemon in
  let v = scrape daemon intro "/monitors" in
  check_str "schema" "sl-status/1" (jstr "schema" v);
  check_str "type" "monitors" (jstr "type" v);
  let rows = jarr "monitors" v in
  check_int "one row per distinct monitor"
    (Registry.nmonitors (Daemon.registry daemon))
    (List.length rows);
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  check_int "live sums to the engine counter" (Engine.live eng)
    (sum (jint "live"));
  check_int "tripped sums to the engine counter" (Engine.tripped eng)
    (sum (jint "tripped"));
  check_int "retired sums to the engine counter"
    (Engine.retired_admissible eng)
    (sum (jint "retired_admissible"));
  List.iter
    (fun r ->
      check "key is a 16-hex-digit hash" true
        (String.length (jstr "key" r) = 16);
      check "row names at least one prop" true (jarr "props" r <> []))
    rows;
  (* the census is the trace table, so it tracks later events *)
  Conn.on_bytes stream "c 1\n";
  let v2 = scrape daemon intro "/monitors" in
  check_int "census follows the stream" (Engine.tripped eng)
    (List.fold_left
       (fun acc r -> acc + jint "tripped" r)
       0 (jarr "monitors" v2))

(* Scraping /metrics and /status mid-stream — including against a
   back-pressured connection — must succeed and must not disturb the
   served verdicts. *)
let test_concurrent_scrape_backpressure () =
  let events =
    List.init 40 (fun i -> (Printf.sprintf "t%d" i, 1))
  in
  let daemon = mk_daemon () in
  let intro = Introspect.create ~version:"test" ~jobs:1 daemon in
  let stream = Conn.create ~hwm:256 daemon in
  Introspect.set_conns intro (fun () ->
      [ Introspect.conn_info_of_conn stream ]);
  Conn.on_bytes stream (render_lines events);
  check "stream is back-pressured" true (not (Conn.wants_read stream));
  (* both scrape paths answer while the stream is stalled *)
  let m = Conn.create ~http:(Introspect.handler intro) daemon in
  Conn.on_bytes m "GET /metrics HTTP/1.0\r\n\r\n";
  let mout = Conn.drain_output m in
  check "metrics 200 under back-pressure" true
    (String.sub mout 0 15 = "HTTP/1.0 200 OK");
  let v = scrape daemon intro "/status" in
  (match jarr "connections" v with
  | [ c ] ->
      check "status reports the stall" true (jbool "stalled" c);
      check "pending output visible" true (jint "pending_out" c > 0)
  | l -> Alcotest.failf "expected one connection row, got %d" (List.length l));
  (* drain and finish: verdicts as if nobody ever scraped *)
  ignore (Conn.drain_output stream);
  check "drained stream reads again" true (Conn.wants_read stream);
  Conn.on_eof stream;
  let out = Conn.drain_output stream in
  check "verdicts unchanged by scraping" true
    (Tuples.equal (offline_tuples events) (served_tuples out))

(* Telemetry on: the served byte stream is identical to the dark-kernel
   stream, and both equal the offline report. *)
let test_obs_enabled_serve_identical () =
  let events =
    [ ("t1", 0); ("t2", 1); ("t1", 1); ("t3", 0); ("t2", 0); ("t3", 1) ]
  in
  let bytes = render_lines events in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.disable ();
      let _, dark = serve_split ~splits:[ 7; 13 ] bytes in
      Obs.enable ();
      let _, lit = serve_split ~splits:[ 7; 13 ] bytes in
      Obs.disable ();
      check_str "obs-on output byte-identical" dark lit;
      check "and equal to offline" true
        (Tuples.equal (offline_tuples events) (served_tuples lit)))

(* {2 Json reader} *)

let test_json_reader () =
  (match Json.parse "{\"a\": [1, -2.5e1, true, null, \"x\\u00e9\\n\"], \"b\": {\"c\": \"\"}}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      (match Option.get (Json.arr (jmem "a" v)) with
      | [ one; neg; t; nul; s ] ->
          check_int "int" 1 (Option.get (Json.int_ one));
          check "exponent" true (Json.num neg = Some (-25.));
          check "bool" true (Json.bool_ t = Some true);
          check "null" true (nul = Json.Null);
          (* é is é = 0xC3 0xA9 in UTF-8 *)
          check_str "string escapes" "x\xc3\xa9\n" (Option.get (Json.str s))
      | _ -> Alcotest.fail "wrong array shape");
      check_str "nested member" ""
        (Option.get (Json.str (jmem "c" (jmem "b" v)))));
  check "trailing bytes rejected" true
    (match Json.parse "{} x" with Error _ -> true | Ok _ -> false);
  check "truncated input rejected" true
    (match Json.parse "{\"a\": [1," with Error _ -> true | Ok _ -> false);
  (* every endpoint body round-trips through the parser *)
  let daemon = mk_daemon () in
  let intro = Introspect.create ~version:"test" ~jobs:1 daemon in
  List.iter
    (fun path -> ignore (scrape daemon intro path))
    [ "/status"; "/monitors"; "/traces"; "/healthz" ]

(* {2 Records} *)

(* The per-character escaper the record renderers must match byte for
   byte, kept here as an independent reference for the fast path that
   copies clean names whole. *)
let reference_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let qcheck_add_int =
  let gen =
    QCheck.Gen.(
      oneof
        [ int; small_signed_int; oneofl [ 0; -1; max_int; min_int; min_int + 1 ] ])
  in
  QCheck.Test.make ~count:500 ~name:"Json.add_int = string_of_int"
    (QCheck.make ~print:string_of_int gen) (fun n ->
      let buf = Buffer.create 4 in
      Buffer.add_char buf '<';
      Json.add_int buf n;
      Buffer.contents buf = "<" ^ string_of_int n)

let render add =
  let buf = Buffer.create 128 in
  add buf;
  Buffer.contents buf

let test_record_escaping () =
  let r =
    render (fun b ->
        Records.add_error b ~line:1 ~trace:(Some "a\"b\\c") ~reason:"tab\there")
  in
  check "quotes and backslashes escaped" true
    (find_sub r "a\\\"b\\\\c" <> None);
  check "control bytes escaped" true (find_sub r "tab\\u0009here" <> None);
  check "one line" true
    (String.index r '\n' = String.length r - 1);
  (* names copied whole (no byte to escape) and names with a quote, a
     backslash or a control byte at the first, middle and last position
     render exactly as the per-character reference *)
  let base = "req-42" in
  let with_at pos c =
    let n = String.length base and c = String.make 1 c in
    match pos with
    | `First -> c ^ base
    | `Middle ->
        String.sub base 0 (n / 2) ^ c ^ String.sub base (n / 2) (n - (n / 2))
    | `Last -> base ^ c
  in
  let names =
    [ ""; base; "\x7f\x80\xff utf8 \xc3\xa9"; "\"\\\001" ]
    @ List.concat_map
        (fun c ->
          List.map (fun pos -> with_at pos c) [ `First; `Middle; `Last ])
        [ '"'; '\\'; '\000'; '\t'; '\n'; '\031' ]
  in
  List.iter
    (fun name ->
      let what = String.escaped name in
      check_str ("escape " ^ what) (reference_escape name)
        (render (fun b -> Json.add_escaped b name));
      check_str ("verdict record " ^ what)
        (Printf.sprintf
           "{\"type\": \"verdict\", \"trace\": \"%s\", \"prop\": \"%s\", \
            \"verdict\": \"admissible\", \"cause\": \"eof\"}\n"
           (reference_escape name) (reference_escape name))
        (render (fun b ->
             Records.add_verdict_admissible b ~trace:name ~prop:name
               ~cause:"eof")))
    names

let tests =
  [
    Alcotest.test_case "served = offline at byte splits and one-shot"
      `Quick test_served_equals_offline;
    Alcotest.test_case "summary counters" `Quick test_summary_counters;
    Alcotest.test_case "hello opens the stream" `Quick test_hello_first;
    Alcotest.test_case "pre-tripped announced per trace" `Quick
      test_pretripped_announced;
    QCheck_alcotest.to_alcotest qcheck_served_equals_offline;
    Alcotest.test_case "hostile: garbage bytes" `Quick test_garbage_bytes;
    Alcotest.test_case "hostile: oversized line" `Quick test_oversized_line;
    Alcotest.test_case "hostile: silent half-close" `Quick
      test_half_close_dump;
    Alcotest.test_case "bytes after EOF ignored" `Quick
      test_bytes_after_eof_ignored;
    Alcotest.test_case "GET /metrics on the stream socket" `Quick
      test_http_metrics;
    Alcotest.test_case "back-pressure via wants_read" `Quick test_backpressure;
    Alcotest.test_case "EOF dump paged within hwm" `Quick test_eof_dump_paged;
    Alcotest.test_case "EOF dump frozen across feeds and reload" `Quick
      test_eof_dump_frozen;
    Alcotest.test_case "buffer pool hygiene over 500 connections" `Quick
      test_pool_hygiene;
    Alcotest.test_case "reload: identical registry" `Quick
      test_reload_identical;
    Alcotest.test_case "reload: monitor carry-over" `Quick
      test_reload_carry_over;
    Alcotest.test_case "resume: live census exact" `Quick
      test_resume_live_census;
    Alcotest.test_case "reload: alphabet change refused" `Quick
      test_reload_alphabet_refused;
    Alcotest.test_case "reload: from props file" `Quick
      test_reload_from_props_file;
    Alcotest.test_case "reload at every chunk boundary" `Quick
      test_reload_at_every_chunk;
    Alcotest.test_case "/status and /healthz schema" `Quick
      test_status_schema;
    Alcotest.test_case "/monitors exact census" `Quick test_monitors_census;
    Alcotest.test_case "concurrent scrape under back-pressure" `Quick
      test_concurrent_scrape_backpressure;
    Alcotest.test_case "obs-enabled serving byte-identical" `Quick
      test_obs_enabled_serve_identical;
    Alcotest.test_case "json parser" `Quick test_json_reader;
    Alcotest.test_case "record escaping" `Quick test_record_escaping;
    QCheck_alcotest.to_alcotest qcheck_add_int;
  ]
