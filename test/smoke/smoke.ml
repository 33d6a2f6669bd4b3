(* End-to-end smokes of the built [slc], run by scripts/ci.sh from the
   repository root as [smoke.exe trace-jsonl FILE | report-size | serve
   | words120 DIR].
   The serve smokes start the real [slc serve] on a Unix socket in a
   fresh temp directory and hold it to the offline pipeline: the set of
   served (trace, prop, verdict, position) tuples must equal that of the
   [slc monitor --json] report. They hold 1100 connections at once, so
   [serve] needs [ulimit -n 4096]. All JSON is read back through
   Sl_json. A failed check, or a blocking step that outlasts its bound,
   exits 1. *)

module J = Sl_json.Json

let slc = "_build/default/bin/slc.exe"
let props = "examples/monitor.props"
let example = "examples/monitor.events"

module Tuples = Served.Tuples

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then raise (Failed s)) fmt

let say fmt = Printf.printf (fmt ^^ "\n%!")
let now = Unix.gettimeofday

(* ---- files and processes ---- *)

let dir =
  lazy
    (let d = Filename.temp_file "slc-smoke" "" in
     Sys.remove d;
     Sys.mkdir d 0o700;
     d)

let file name = Filename.concat (Lazy.force dir) name
let sock () = file "sl.sock"
let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s =
  Out_channel.with_open_bin path (Fun.flip output_string s)

(* Write the lines [line 0] .. [line (n - 1)] to [file name]; the text. *)
let events_file name n line =
  let b = Buffer.create (n * 12) in
  for i = 0 to n - 1 do Buffer.add_string b (line i) done;
  write_file (file name) (Buffer.contents b);
  Buffer.contents b

let lines_of path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.map (fun l -> l ^ "\n")

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (EINTR, _, _) -> waitpid flags pid

let exit_code pid =
  match snd (waitpid [] pid) with
  | WEXITED c -> c
  | WSIGNALED s | WSTOPPED s -> 128 + abs s

(* Run [f], failing if it takes over [secs] s: a connect, read or wait
   that never returns fails the smoke instead of hanging it. *)
let within secs what f =
  Sys.set_signal Sys.sigalrm
    (Signal_handle (fun _ -> fail "%s: no answer in %d s" what secs));
  ignore (Unix.alarm secs);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

(* Children still running, killed at exit. *)
let children = ref []

let spawn ?(out = Unix.stdout) ?(err = Unix.stderr) argv =
  let pid =
    Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin out err
  in
  children := pid :: !children;
  pid

let reap what secs pid =
  let code = within secs what (fun () -> exit_code pid) in
  children := List.filter (( <> ) pid) !children;
  code

let open_fd flags path =
  Unix.openfile path (Unix.O_WRONLY :: O_CREAT :: O_CLOEXEC :: flags) 0o600

(* Run [argv] to completion with stdout to [out]; its exit code. *)
let run ?(out = "/dev/null") argv =
  let fd = open_fd [ O_TRUNC ] out in
  let pid = spawn ~out:fd argv in
  Unix.close fd;
  reap (String.concat " " argv) 120 pid

(* ---- JSON ---- *)

let parse what s =
  match J.parse s with Ok v -> v | Error e -> fail "%s: bad JSON: %s" what e

let mem k v =
  match J.member k v with Some x -> x | None -> fail "missing field %S" k

let field conv k v =
  match conv (mem k v) with Some x -> x | None -> fail "bad field %S" k

let str = field J.str
let int = field J.int_
let arr = field J.arr

(* ---- the verdict normal form (test/served) ---- *)

let offline_tuples report =
  List.fold_left
    (fun acc tr ->
      List.fold_left
        (fun acc v -> Tuples.add (Served.tuple ~trace:(str "name" tr) v) acc)
        acc (arr "verdicts" tr))
    Tuples.empty (arr "traces" report)

let same_verdicts what ~offline replies =
  let off = offline_tuples offline
  and srv = Served.served_tuples (String.concat "\n" replies) in
  let show s =
    match Tuples.min_elt_opt s with
    | Some (t, p, v, n) ->
        Printf.sprintf "%d, first %s|%s|%s|%d" (Tuples.cardinal s) t p v n
    | None -> "none"
  in
  check (Tuples.equal off srv)
    "%s: served verdicts differ from offline (offline only: %s; served \
     only: %s)" what (show (Tuples.diff off srv)) (show (Tuples.diff srv off))

(* The offline report of [events]; its exit code must be in [codes]. *)
let offline ?(codes = [ 0; 1 ]) ?(props = props) events =
  let out = file "offline.json" in
  let code =
    run ~out
      [ slc; "monitor"; "--props"; props; "--trace"; events; "--json" ]
  in
  check (List.mem code codes) "offline monitor on %s exited %d" events code;
  parse "offline report" (read_file out)

let example_offline = lazy (offline ~codes:[ 1 ] example)

(* ---- the daemon ---- *)

(* Start [slc serve ARGS] on [sock ()] with [props] (default the
   example file; stderr to serve.log) and wait until the socket is
   bound. *)
let start ?ulimit ?(props = props) args =
  let argv =
    slc :: "serve" :: "--props" :: props :: "--socket" :: sock () :: "--quiet"
    :: args
  in
  let argv =
    match ulimit with
    | Some n ->
        let sh = Printf.sprintf "ulimit -n %d; exec \"$@\"" n in
        "/bin/sh" :: "-c" :: sh :: "sh" :: argv
    | None -> argv
  in
  let log = open_fd [ O_APPEND ] (file "serve.log") in
  let pid = spawn ~err:log argv in
  Unix.close log;
  let rec wait n =
    match Unix.stat (sock ()) with
    | { st_kind = S_SOCK; _ } -> ()
    | _ | (exception Unix.Unix_error _) ->
        check (n > 0) "daemon never bound %s" (sock ());
        check (fst (waitpid [ WNOHANG ] pid) = 0) "daemon exited at startup";
        Unix.sleepf 0.1;
        wait (n - 1)
  in
  wait 100;
  pid

(* SIGTERM must shut the daemon down with exit 0 and remove its socket. *)
let stop what pid =
  Unix.kill pid Sys.sigterm;
  let code = reap (what ^ ": SIGTERM") 30 pid in
  check (code = 0) "%s: daemon exited %d on SIGTERM" what code;
  check (not (Sys.file_exists (sock ()))) "%s: stale socket left" what

let get path =
  let status, body =
    within 30 ("GET " ^ path) (fun () ->
        Sl_serve.Introspect.get (ADDR_UNIX (sock ())) path)
  in
  check (status = "HTTP/1.0 200 OK") "GET %s: %s" path status;
  body

let metric body name =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> Some v
         | _ -> None)

(* ---- clients ---- *)

type client = {
  fd : Unix.file_descr;
  input : string;
  mutable limit : int;  (** send no further than this for now *)
  mutable sent : int;
  reply : Buffer.t;
  mutable eof : bool;
}

let client input =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  within 120 "connect" (fun () -> Unix.connect fd (ADDR_UNIX (sock ())));
  Unix.set_nonblock fd;
  let limit = String.length input and reply = Buffer.create 65536 in
  { fd; input; limit; sent = 0; reply; eof = false }

(* Send each client's input up to its [limit], half-closing a client
   once all of it is sent, and read whatever comes back in [chunk]-byte
   reads ([on_read] runs after each); with [to_eof], go on until every
   reply has ended. *)
let pump ?(to_eof = true) ?(chunk = 65536) ?(on_read = ignore) clients =
  let buf = Bytes.create chunk and last = ref (now ()) in
  let fds p = List.filter_map (fun c -> if p c then Some c.fd else None) in
  let sending c = c.sent < c.limit and reading c = not c.eof in
  let again f = try f () with Unix.Unix_error ((EAGAIN | EINTR), _, _) -> () in
  while List.exists (fun c -> sending c || (to_eof && reading c)) clients do
    let r, w, _ =
      try Unix.select (fds reading clients) (fds sending clients) [] 1.
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if r <> [] || w <> [] then last := now ()
    else check (now () -. !last < 120.) "client stalled for 120 s";
    List.iter
      (fun c ->
        if List.mem c.fd w then
          again (fun () ->
              let n = min 65536 (c.limit - c.sent) in
              c.sent <-
                c.sent + Unix.single_write_substring c.fd c.input c.sent n;
              if c.sent = String.length c.input then
                Unix.shutdown c.fd SHUTDOWN_SEND);
        if List.mem c.fd r then
          again (fun () ->
              match Unix.read c.fd buf 0 chunk with
              | 0 -> c.eof <- true
              | n -> Buffer.add_subbytes c.reply buf 0 n; on_read c))
      clients
  done

let finish clients =
  pump clients;
  List.map (fun c -> Unix.close c.fd; Buffer.contents c.reply) clients

let stream input = List.hd (finish [ client input ])

(* Open [n] connections and keep them. A full listen backlog makes the
   non-blocking connect fail with EAGAIN: retry for at most 60 s. *)
let hold sock n =
  let deadline = now () +. 60. in
  let rec one () =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    match Unix.connect fd (ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error (EAGAIN, _, _) ->
        Unix.close fd;
        check (now () < deadline) "daemon stopped accepting";
        Unix.sleepf 0.01;
        one ()
  in
  List.init n (fun _ -> one ())

(* ---- sl-status/1 shapes ---- *)

(* Each "key:t" of [spec] names a field [v] must have, of type [t]:
   s string, i integer, n number, b bool, a array, o object. *)
let expect what v spec =
  List.iter
    (fun kt ->
      let k, t =
        match String.split_on_char ':' kt with
        | [ k; t ] -> (k, t)
        | _ -> invalid_arg kt
      in
      check
        (match (t, J.member k v) with
        | "i", Some x -> J.int_ x <> None
        | "s", Some (J.Str _) | "n", Some (J.Num _) | "b", Some (J.Bool _)
        | "a", Some (J.Arr _) | "o", Some (J.Obj _) -> true
        | _ -> false)
        "%s: field %S missing or mistyped" what k)
    (String.split_on_char ' ' spec)

let status_doc ty body =
  let v = parse ("/" ^ ty) body in
  expect ty v "schema:s type:s";
  check (str "schema" v = "sl-status/1") "%s: schema %s" ty (str "schema" v);
  check (str "type" v = ty) "%s: type %s" ty (str "type" v);
  v

let check_status body =
  let v = status_doc "status" body in
  expect "status" v
    "version:s uptime_s:n fingerprint:s props:i monitors:i traces:i \
     events:i live:i tripped:i retired_admissible:i connections:a \
     reloads:o obs:o";
  List.iter
    (fun c ->
      expect "connection" c
        "id:i listener:s mode:s lines:i events:i errors:i pending_out:i \
         stalled:b")
    (arr "connections" v);
  expect "reloads" (mem "reloads" v) "count:i failures:i history:a";
  expect "obs" (mem "obs" v) "enabled:b spans_dropped:i";
  check (Option.get (J.num (mem "uptime_s" v)) >= 0.) "negative uptime";
  v

let check_healthz body =
  let v = status_doc "healthz" body in
  expect "healthz" v "status:s uptime_s:n";
  check (str "status" v = "ok") "healthz: status %s" (str "status" v)

let check_traces body =
  let v = status_doc "traces" body in
  expect "traces" v "total:i truncated:b traces:a";
  List.iter
    (fun row -> expect "trace row" row "id:i name:s events:i live:i tripped:i")
    (arr "traces" v)

(* Each monitor row's census must equal its props' verdict counts in
   the offline report: tripped = violations, live + retired =
   admissibles; a vacuous monitor counts nothing. *)
let check_monitors body ~offline =
  let v = status_doc "monitors" body in
  expect "monitors" v "fingerprint:s traces:i monitors:a";
  let verdicts = offline_tuples offline in
  let count p verdict =
    Tuples.fold
      (fun (_, p', v, _) n -> if p' = p && v = verdict then n + 1 else n)
      verdicts 0
  in
  List.iter
    (fun row ->
      expect "monitor row" row
        "index:i key:s props:a vacuous:b pre_tripped:b live:i tripped:i \
         retired_admissible:i";
      let i = int "index" row and tripped = int "tripped" row in
      let settled = int "live" row + int "retired_admissible" row in
      let names = List.map (fun p -> Option.get (J.str p)) (arr "props" row) in
      check (String.length (str "key" row) = 16) "monitor %d: key size" i;
      check (names <> []) "monitor %d names no props" i;
      if mem "vacuous" row = J.Bool true then
        check (tripped = 0 && settled = 0) "vacuous monitor %d counts" i
      else
        List.iter
          (fun p ->
            let viol = count p "violation" and adm = count p "admissible" in
            check (Tuples.exists (fun (_, p', _, _) -> p' = p) verdicts)
              "monitor %d: prop %S absent offline" i p;
            check (tripped = viol && settled = adm)
              "monitor %d (%s): tripped %d, live+retired %d; offline: %d \
               violations, %d admissibles" i p tripped settled viol adm)
          names)
    (arr "monitors" v)

(* ---- the 120-word fleet ---- *)

(* [G !w] in the nested [l0 & X (l1 & ...)] shape; [true] is [a]. *)
let word_formula w =
  let lit b = if b then "a" else "!a" in
  let rec go = function
    | [] -> "true"
    | [ b ] -> lit b
    | b :: tl -> lit b ^ " & X (" ^ go tl ^ ")"
  in
  "G !(" ^ go w ^ ")"

(* [G !w] for every word over {a, !a} of length 3..6, one per line:
   120 monitors whose product the engine splits into 3 groups. *)
let words120_props =
  List.concat_map
    (fun n ->
      List.init (1 lsl n) (fun bits ->
          word_formula
            (List.init n (fun i -> bits land (1 lsl (n - 1 - i)) <> 0))
          ^ "\n"))
    [ 3; 4; 5; 6 ]
  |> String.concat ""

(* 4000 random events over 32 traces, a holding 2 times in 3. *)
let words_events path =
  let rng = Random.State.make [| 20261018 |] in
  write_file path
    (String.concat ""
       (List.init 4000 (fun _ ->
            Printf.sprintf "w%d %d\n" (Random.State.int rng 32)
              (if Random.State.int rng 3 < 2 then 0 else 1))))

(* /status' engine counters must equal the sums of /monitors' rows:
   the counters of a resumed or carried-over session are the census of
   its trace table, like /monitors. *)
let counters_square what =
  let status = check_status (get "/status") in
  let rows = arr "monitors" (status_doc "monitors" (get "/monitors")) in
  List.iter
    (fun k ->
      let sum = List.fold_left (fun n row -> n + int k row) 0 rows in
      check (int k status = sum) "%s: /status %s %d, /monitors sum %d" what k
        (int k status) sum)
    [ "live"; "tripped"; "retired_admissible" ]

(* ---- the serve smokes ---- *)

(* Two concurrent clients split the example stream by trace; client A
   stops after two lines while the daemon gets SIGHUP, so the reload
   lands with traces in flight. *)
let served_offline () =
  let lines = lines_of example in
  let only id =
    String.concat ""
      (List.filter (String.starts_with ~prefix:(id ^ " ")) lines)
  in
  let offline = Lazy.force example_offline in
  let daemon = start [] in
  let a = client (only "req-1") and b = client (only "req-2") in
  let second = String.index a.input '\n' + 1 in
  a.limit <- 1 + String.index_from a.input second '\n';
  pump ~to_eof:false [ a; b ];
  Unix.sleepf 0.3;
  Unix.kill daemon Sys.sighup;
  Unix.sleepf 0.5;
  a.limit <- String.length a.input;
  let replies = finish [ a; b ] in
  stop "served = offline" daemon;
  same_verdicts "across a SIGHUP" ~offline replies;
  say "served = offline, two clients, mid-stream SIGHUP"

(* Served = offline over the 120-word fleet, whose plan splits into
   several product groups ([engine_product_groups] on /metrics). *)
let split_fleet () =
  let path = file "words.props" and events = file "words.events" in
  write_file path words120_props;
  words_events events;
  let offline = offline ~props:path events in
  let daemon = start ~props:path [] in
  let reply = stream (read_file events) in
  let groups = metric (get "/metrics") "engine_product_groups" in
  stop "split fleet" daemon;
  check
    (match groups with Some g -> int_of_string g >= 2 | None -> false)
    "split fleet: engine_product_groups %s"
    (Option.value groups ~default:"missing");
  same_verdicts "split fleet" ~offline [ reply ];
  say "served = offline over the 120-word fleet (%s product groups)"
    (Option.get groups)

(* The example fleet plus the empty property [G a & G !a], whose bad
   prefix is the empty word, over two clients split by trace: served =
   offline, and each trace gets exactly one "pretripped" record, on the
   client that sent it. *)
let pretripped_fleet () =
  let empty = "G a & G !a" and path = file "pretripped.props" in
  write_file path (read_file props ^ empty ^ "\n");
  let offline = offline ~props:path example in
  let lines = lines_of example in
  let only id =
    String.concat ""
      (List.filter (String.starts_with ~prefix:(id ^ " ")) lines)
  in
  let daemon = start ~props:path [] in
  let replies = finish [ client (only "req-1"); client (only "req-2") ] in
  stop "pre-tripped fleet" daemon;
  same_verdicts "pre-tripped fleet" ~offline replies;
  List.iter2
    (fun id reply ->
      let pre =
        List.filter
          (fun r -> J.member "cause" r = Some (J.Str "pretripped"))
          (Served.records_of_type "verdict" reply)
      in
      check
        (List.map (fun r -> (str "trace" r, str "prop" r, int "position" r)) pre
        = [ (id, empty, 0) ])
        "pre-tripped fleet: %s got %d pretripped records, expected one for \
         its own trace" id (List.length pre))
    [ "req-1"; "req-2" ] replies;
  say "served = offline with the empty property, one pretripped record per \
       trace"

(* A SIGHUP reload that keeps G !(a & X a) while every trace sits just
   after an [a], and adds a fresh G !(a & X !a). The fresh monitor
   starts at its start state mid-trace: a state pair the product built
   from the start state does not reach. The kept monitor must trip at
   the first [a a] of the whole trace, the fresh one at the first
   [a !a] after the reload. *)
let fresh_monitor_reload () =
  let kept = "G !(a & X a)" and fresh = "G !(a & X !a)" in
  let path = file "fresh.props" in
  write_file path (kept ^ "\n");
  let daemon = start ~props:path [] in
  (* symbol 0 is a; every trace starts with one a *)
  let suffix i = [| [ 0; 1 ]; [ 1; 0; 0 ]; [ 1; 1 ]; [ 0 ] |].(i mod 4) in
  let name i = Printf.sprintf "f%d" i and n = 8 in
  let lines i w = String.concat "" (List.map (Printf.sprintf "%s %d\n" (name i)) w) in
  let before = String.concat "" (List.init n (fun i -> lines i [ 0 ])) in
  let after = String.concat "" (List.init n (fun i -> lines i (suffix i))) in
  let c = client (before ^ after) in
  c.limit <- String.length before;
  pump ~to_eof:false [ c ];
  let until what ok =
    let deadline = now () +. 30. in
    let rec go () =
      if not (ok (check_status (get "/status"))) then begin
        check (now () < deadline) "fresh-monitor reload: %s never seen" what;
        Unix.sleepf 0.05;
        go ()
      end
    in
    go ()
  in
  until "the first events" (fun v -> int "events" v = n);
  write_file path (kept ^ "\n" ^ fresh ^ "\n");
  Unix.kill daemon Sys.sighup;
  until "the reload" (fun v ->
      let r = mem "reloads" v in
      int "count" r = 1 && int "failures" r = 0);
  counters_square "fresh-monitor reload, carried over";
  c.limit <- String.length c.input;
  let reply = List.hd (finish [ c ]) in
  counters_square "fresh-monitor reload, fed on";
  stop "fresh-monitor reload" daemon;
  (* the first k at which w[k - 2], w[k - 1] = x, y, searching from
     position [from] *)
  let first ~from x y w =
    let a = Array.of_list w in
    let rec go k =
      if k > Array.length a then None
      else if a.(k - 2) = x && a.(k - 1) = y then Some k
      else go (k + 1)
    in
    go (max 2 from)
  in
  let tuple i prop = function
    | Some k -> (name i, prop, "violation", k)
    | None -> (name i, prop, "admissible", -1)
  in
  let want =
    List.init n (fun i ->
        let w = 0 :: suffix i in
        [ tuple i kept (first ~from:2 0 0 w); tuple i fresh (first ~from:3 0 1 w) ])
    |> List.concat |> Tuples.of_list
  in
  let got = Served.served_tuples reply in
  check (Tuples.equal want got)
    "fresh-monitor reload: served %d verdicts, %d expected (first served: %s)"
    (Tuples.cardinal got) (Tuples.cardinal want)
    (match Tuples.min_elt_opt got with
    | Some (t, p, v, k) -> Printf.sprintf "%s|%s|%s|%d" t p v k
    | None -> "none");
  say "SIGHUP adds a fresh monitor mid-trace: served = the model"

(* A SIGHUP reload onto a props file with a line past the tableau's
   closure cap (G !w for a 10-letter word) skips that line: the daemon
   stays up, reports the line, and serves the good lines' offline
   verdicts. A reload onto nothing but such a line is refused. *)
let over_cap_reload () =
  let good = read_file props and path = file "reload.props" in
  let over_cap =
    "G !(a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X \
     (a))))))))))\n"
  in
  write_file path good;
  let daemon = start ~props:path [] in
  let reload text ~count ~failures =
    write_file path text;
    Unix.kill daemon Sys.sighup;
    let deadline = now () +. 30. in
    let rec noted () =
      let r = mem "reloads" (check_status (get "/status")) in
      if (int "count" r, int "failures" r) <> (count, failures) then begin
        check (now () < deadline) "reload %d/%d never noted" count failures;
        Unix.sleepf 0.05;
        noted ()
      end
    in
    noted ();
    check (fst (waitpid [ WNOHANG ] daemon) = 0) "daemon died on a reload"
  in
  reload (good ^ over_cap) ~count:1 ~failures:0;
  reload over_cap ~count:1 ~failures:1;
  let reply = stream (read_file example) in
  stop "over-cap reload" daemon;
  let log = read_file (file "serve.log") in
  let skipped = path ^ ":8: formula closure too large (line skipped)" in
  check
    (List.mem skipped (String.split_on_char '\n' log))
    "over-cap reload: no %S in the daemon's log" skipped;
  same_verdicts "over-cap reload" ~offline:(Lazy.force example_offline)
    [ reply ];
  say "SIGHUP onto an over-cap line: line skipped, served = offline"

(* Framing over a real socket, on one daemon capped at --max-line 64: a
   request written one byte per write still gets its 200 reply; a line
   past the cap gets one error record while the next line is monitored;
   and a SIGHUP onto a props path that has become a directory is refused
   with the daemon alive. *)
let framing () =
  let path = file "framing.props" in
  write_file path (read_file props);
  let daemon = start ~props:path [ "--max-line"; "64" ] in
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  within 120 "connect" (fun () -> Unix.connect fd (ADDR_UNIX (sock ())));
  (* the daemon answers once the request line is in, and closes: the
     bytes after it may meet a closed socket *)
  let request = "GET /status HTTP/1.0\r\n\r\n" in
  (try
     String.iteri
       (fun i _ ->
         ignore (Unix.write_substring fd request i 1);
         Unix.sleepf 0.002)
       request
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
  let reply =
    within 30 "byte-at-a-time GET" (fun () ->
        In_channel.input_all (Unix.in_channel_of_descr fd))
  in
  Unix.close fd;
  check
    (String.starts_with ~prefix:"HTTP/1.0 200 OK" reply)
    "a GET written byte by byte got %S" (String.sub reply 0 (min 40 (String.length reply)));
  (* a request ended by the client's EOF, not by a newline, gets the
     reply alone: the bytes of the terminated request, no JSON around *)
  let terminated = stream "GET /nope\n" in
  check
    (String.starts_with ~prefix:"HTTP/1.0 404" terminated)
    "GET /nope: %S" terminated;
  let unterminated = stream "GET /nope" in
  check (unterminated = terminated) "GET /nope then EOF: %S" unterminated;
  let health = stream "GET /healthz" in
  let record ty l =
    String.starts_with ~prefix:(Printf.sprintf "{\"type\": %S" ty) l
  in
  check
    (String.starts_with ~prefix:"HTTP/1.0 200 OK" health
    && not
         (List.exists
            (fun l -> record "hello" l || record "summary" l)
            (String.split_on_char '\n' health)))
    "GET /healthz then EOF: %S" health;
  let out = stream ("a 0\n" ^ String.make 100 'x' ^ "\nb 1\n") in
  check
    (List.map (int "line") (Served.records_of_type "error" out) = [ 2 ])
    "over-cap line: errors %s" out;
  (match Served.records_of_type "summary" out with
  | [ sm ] -> check (int "conn_events" sm = 2) "over-cap line: %s" out
  | _ -> fail "over-cap line: no single summary in %s" out);
  Sys.remove path;
  Sys.mkdir path 0o700;
  Unix.kill daemon Sys.sighup;
  let deadline = now () +. 30. in
  let rec refused () =
    let r = mem "reloads" (check_status (get "/status")) in
    if int "failures" r <> 1 then begin
      check (now () < deadline) "directory reload never refused";
      Unix.sleepf 0.05;
      refused ()
    end
  in
  refused ();
  check
    (metric (get "/metrics") "serve_reload_failures_total" = Some "1")
    "directory reload: failure not counted";
  let reply = stream (read_file example) in
  stop "framing" daemon;
  Sys.rmdir path;
  same_verdicts "directory reload" ~offline:(Lazy.force example_offline)
    [ reply ];
  say
    "byte-at-a-time GET, GETs ended by EOF, an over-cap line, a SIGHUP onto \
     a directory"

(* After a connection storm the daemon must still be up, have counted a
   refused accept, and serve a fresh client the offline verdicts. *)
let after_storm what daemon =
  (* Until the daemon has closed the storm's connections, a new one may
     land on a descriptor >= 1024 and be refused: wait for that. *)
  let deadline = now () +. 30. in
  let rec settled () =
    match List.length (arr "connections" (check_status (get "/status"))) with
    | n when n <= 1 -> ()
    | _ | (exception (Failure _ | Unix.Unix_error _)) ->
        check (now () < deadline) "%s: connections never closed" what;
        Unix.sleepf 0.05;
        settled ()
  in
  settled ();
  let reply = stream (read_file example) in
  let metrics = get "/metrics" in
  check (fst (waitpid [ WNOHANG ] daemon) = 0) "%s: daemon died" what;
  (match metric metrics "serve_accept_errors_total" with
  | Some n when int_of_string n >= 1 -> ()
  | _ -> fail "%s: no refused accept counted" what);
  stop what daemon;
  same_verdicts what ~offline:(Lazy.force example_offline) [ reply ]

(* Under ulimit -n 24 the daemon runs out of descriptors accepting 48
   held connections; the rest wait in the listen backlog. *)
let fd_exhaustion () =
  let daemon = start ~ulimit:24 [] in
  let held = hold (sock ()) 48 in
  Unix.sleepf 1.;
  List.iter Unix.close held;
  after_storm "descriptor exhaustion" daemon;
  say "descriptor exhaustion: 48 connections under ulimit -n 24"

(* Past FD_SETSIZE: a descriptor >= 1024 cannot be watched by select, so
   each such connection must get a "too many connections" error record
   and be closed, never kill the daemon. The daemon and this program both
   run under the ulimit -n 4096 that [serve] needs. *)
let many_connections () =
  let daemon = start [] and n = 1100 in
  let held = hold (sock ()) n in
  Unix.sleepf 1.;
  let buf = Bytes.create 4096 in
  let refused fd =
    match Unix.read fd buf 0 4096 with
    | exception Unix.Unix_error (EAGAIN, _, _) -> false
    | got ->
        let got = Bytes.sub_string buf 0 got in
        let whole = Option.fold ~none:0 ~some:succ (String.rindex_opt got '\n')
        in
        List.exists
          (fun r ->
            Served.has_type "error" r
            && J.member "reason" r = Some (J.Str "too many connections"))
          (Served.records (String.sub got 0 whole))
  in
  let k = List.length (List.filter refused held) in
  List.iter Unix.close held;
  check (k > 0) "no connection was refused past FD_SETSIZE";
  after_storm "1100 connections" daemon;
  say "%d connections held, %d refused past FD_SETSIZE; the daemon stayed up"
    n k

(* A client touches 20k traces, half-closes and reads its EOF dump (over
   10 MB) in 4 KiB reads with pauses. The dump is rendered page by page
   as the client drains it: /status, scraped every 64 KiB of reply after
   the half-close until the connection shows mode "done", must show it
   queueing 0 < pending_out <= hwm (262144) + 64 KiB. *)
let slow_reader () =
  let input =
    events_file "slow.events" 20_000 (fun i ->
        Printf.sprintf "slow%d %d\nslow%d %d\n" i (i mod 2) i (i / 2 mod 2))
  and events = file "slow.events" and bound = 262144 + 65536 in
  let offline = offline events in
  let daemon = start [] in
  let reads = ref 0 and next = ref max_int and status = ref None in
  let on_read c =
    incr reads;
    if !reads mod 16 = 0 then Unix.sleepf 0.002;
    let got = Buffer.length c.reply in
    if !status = None && c.sent = String.length c.input && !next = max_int
    then next := got + 65536;
    if got >= !next then begin
      let v = check_status (get "/status") in
      status := Some v;
      let modes = List.map (str "mode") (arr "connections" v) in
      next := if List.mem "done" modes then max_int else got + 65536
    end
  in
  let c = client input in
  pump ~chunk:4096 ~on_read [ c ];
  let reply = List.hd (finish [ c ]) in
  stop "slow reader" daemon;
  let v =
    match !status with Some v -> v | None -> fail "no /status mid-drain"
  in
  let draining = List.filter (fun c -> str "mode" c = "done") in
  let pending =
    List.map (int "pending_out") (draining (arr "connections" v))
  in
  let top = List.fold_left max 0 pending in
  check (pending <> []) "slow reader: no connection is draining";
  check (top > 0) "slow reader: the draining connection is drained";
  check (top <= bound) "slow reader: %d bytes queued > %d" top bound;
  same_verdicts "slow reader" ~offline [ reply ];
  say "slow reader: pending_out %d <= %d mid-drain" top bound

(* SIGTERM writes the session snapshot; a fresh daemon resumes it and
   takes the second half of the stream. Its counters and introspection
   bodies are checked against the uninterrupted run. *)
let restart () =
  let lines = lines_of example in
  let half keep = String.concat "" (List.filteri (fun i _ -> keep i) lines) in
  let mid = List.length lines / 2 and snap = file "snap" in
  let daemon = start [ "--snapshot"; snap ] in
  ignore (stream (half (fun i -> i < mid)));
  stop "snapshot" daemon;
  check (Sys.file_exists snap && (Unix.stat snap).st_size > 0) "no snapshot";
  let daemon = start [ "--resume"; snap ] in
  let h2 = stream (half (fun i -> i >= mid)) in
  let metrics = get "/metrics" in
  ignore (check_status (get "/status"));
  check_healthz (get "/healthz");
  check_traces (get "/traces");
  (* the census reads the resumed trace table: it covers both halves *)
  check_monitors (get "/monitors") ~offline:(Lazy.force example_offline);
  counters_square "resumed";
  let top = file "top.out" and top_args = [ slc; "top"; "--socket"; sock () ] in
  check (run ~out:top (top_args @ [ "--once"; "--json" ]) = 0) "slc top --json";
  ignore (check_status (read_file top));
  check (run ~out:top (top_args @ [ "--once" ]) = 0) "slc top --once failed";
  check (String.starts_with ~prefix:"slc top" (read_file top)) "top header";
  stop "resumed" daemon;
  (* engine_events_total counts this process's own events: 4 of 7 *)
  check
    (metric metrics "engine_events_total" = Some "4"
    && metric metrics "serve_connections_total" = Some "2"
    && metric metrics "serve_bytes_in_total" <> None)
    "/metrics after the resume:\n%s" metrics;
  (* the resumed summary carries the uninterrupted totals, in this order *)
  let want =
    [ ("type", J.Str "summary"); ("traces", J.Num "2"); ("events", J.Num "7");
      ("props", J.Num "5"); ("monitors", J.Num "3"); ("tripped", J.Num "2");
      ("retired_admissible", J.Num "1"); ("live", J.Num "1") ]
  in
  let summary = function
    | J.Obj ms -> List.filteri (fun i _ -> i < List.length want) ms = want
    | _ -> false
  in
  check (List.exists summary (Served.records h2)) "resumed summary differs";
  say "snapshot/restart: resumed totals; /status /healthz /traces /monitors"

(* A million events through the socket, /status and /healthz scraped
   at a quarter, half and three quarters of the stream, /monitors after
   it. *)
let soak () =
  let rng = Random.State.make [| 20260808 |] in
  let input =
    events_file "soak.events" 1_000_000 (fun _ ->
        Printf.sprintf "s%d %d\n" (Random.State.int rng 16)
          (Random.State.int rng 2))
  and events = file "soak.events" in
  let offline = offline events in
  let daemon = start [] in
  let c = client input in
  List.iter
    (fun q ->
      c.limit <- String.length input * q / 4;
      pump ~to_eof:false [ c ];
      ignore (check_status (get "/status"));
      check_healthz (get "/healthz"))
    [ 1; 2; 3 ];
  c.limit <- String.length input;
  let reply = List.hd (finish [ c ]) in
  check_monitors (get "/monitors") ~offline;
  stop "soak" daemon;
  let counted r = int "events" r = 1_000_000 in
  check
    (counted (mem "counters" offline)
    && List.exists (fun r -> Served.has_type "summary" r && counted r)
         (Served.records reply))
    "soak: not every event was counted";
  same_verdicts "soak" ~offline [ reply ];
  say "soak: 1M events = offline, mid-soak scrapes ok"

(* ---- the offline smokes ---- *)

let trace_jsonl path =
  let lines = List.filter (fun l -> String.trim l <> "") (lines_of path) in
  check (lines <> []) "trace JSONL is empty";
  List.iter
    (fun l ->
      let ev = parse "trace event" l in
      let has k = J.member k ev <> None in
      check (J.member "ph" ev = Some (J.Str "X") && has "name" && has "dur")
        "not a complete trace event: %s" l)
    lines;
  say "trace JSONL ok: %d events" (List.length lines)

(* Writing the --json report is linear in the traces, like the text. *)
let report_size () =
  let rng = Random.State.make [| 20261017 |] in
  ignore
    (events_file "big.events" 160_000 (fun i ->
         Printf.sprintf "t%d %d\n" (i mod 40_000) (Random.State.int rng 2)));
  let cmd = [ slc; "monitor"; "--props"; props; "--trace" ] in
  let cmd = cmd @ [ file "big.events" ] in
  let best args out =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let t0 = now () in
           let code = run ~out args in
           check (code <= 1) "%s exited %d" (String.concat " " args) code;
           now () -. t0))
  in
  let text_s = best cmd (file "big.txt") in
  let json_s = best (cmd @ [ "--json" ]) (file "big.json") in
  let report = parse "--json report" (read_file (file "big.json")) in
  let n = List.length (arr "traces" report) in
  check (n = 40_000) "--json report has %d traces" n;
  let ratio = json_s /. text_s in
  say "40k traces: text %.3fs, --json %.3fs (%.1fx)" text_s json_s ratio;
  check (ratio < 4.) "--json report is %.1fx the text report" ratio

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid [] pid))
        !children;
      if Lazy.is_val dir then begin
        Array.iter (fun f -> Sys.remove (file f)) (Sys.readdir (file ""));
        Sys.rmdir (file "")
      end);
  try
    match List.tl (Array.to_list Sys.argv) with
    | [ "trace-jsonl"; path ] -> trace_jsonl path
    | [ "report-size" ] -> report_size ()
    | [ "serve" ] ->
        served_offline (); split_fleet (); pretripped_fleet ();
        fresh_monitor_reload ();
        over_cap_reload (); framing (); fd_exhaustion ();
        many_connections ();
        slow_reader (); restart (); soak ()
    | [ "words120"; d ] ->
        write_file (Filename.concat d "words.props") words120_props;
        words_events (Filename.concat d "words.events")
    | _ -> prerr_endline "usage: see test/smoke/smoke.ml"; exit 2
  with e ->
    let msg = match e with Failed m -> m | e -> Printexc.to_string e in
    prerr_endline ("smoke: " ^ msg);
    if Lazy.is_val dir && Sys.file_exists (file "serve.log") then
      prerr_string (read_file (file "serve.log"));
    exit 1
