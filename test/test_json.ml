(* Byte pins of every JSON surface: the offline monitor report, the
   served NDJSON records, the sl-status/1 introspection bodies and the
   trace-event lines. Field order, number formats, escapes and the
   report's line layout are all part of the contract that scripts and
   dashboards read, so each is pinned to the exact bytes. Then the
   shared writer and reader: every pinned output parses and writes back
   to the same bytes, and random values survive write-then-parse in
   both layouts. *)

module Formula = Sl_ltl.Formula
module Registry = Sl_runtime.Registry
module Engine = Sl_runtime.Engine
module Ingest = Sl_runtime.Ingest
module Session = Sl_runtime.Session
module Verdict = Sl_runtime.Verdict
module Records = Sl_serve.Records
module Daemon = Sl_serve.Daemon
module Introspect = Sl_serve.Introspect
module Obs = Sl_obs.Obs
module Json = Sl_json.Json

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A name needing every kind of escape: quote, backslash, control byte. *)
let odd = "q\"\\\001"

(* Replace the number after each ["key": ] with [_]: wall-clock fields
   cannot be pinned. *)
let mask keys s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match
        List.find_opt
          (fun k ->
            let pat = "\"" ^ k ^ "\": " in
            let m = String.length pat in
            i + m <= n && String.sub s i m = pat)
          keys
      with
      | Some k ->
          let pat = "\"" ^ k ^ "\": " in
          Buffer.add_string buf pat;
          Buffer.add_char buf '_';
          let j = ref (i + String.length pat) in
          while
            !j < n && match s.[!j] with '0' .. '9' | '.' | '-' -> true | _ -> false
          do
            incr j
          done;
          go !j
      | None ->
          Buffer.add_char buf s.[i];
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

(* {2 The offline report} *)

let prop ~id ~name ~monitor = { Registry.id; name; formula = None; monitor }
let p_odd = prop ~id:0 ~name:odd ~monitor:0
let p_live = prop ~id:1 ~name:"G F a" ~monitor:1

let full_report =
  { Verdict.counters =
      { Verdict.traces = 2; events = 3; props = 2; distinct_monitors = 2;
        vacuous_props = 1; violations = 1; live = 1; tripped = 1;
        retired_admissible = 0; events_per_s = Some 1234.56 };
    prop_summaries =
      [ { Verdict.prop = p_odd; vacuous = false; trips = 1 };
        { Verdict.prop = p_live; vacuous = true; trips = 0 } ];
    rows =
      [ { Verdict.trace = "t\"\\\n"; trace_events = 3;
          verdicts =
            [ (p_odd, Engine.Violation { position = 2 });
              (p_live, Engine.Vacuous) ] };
        { Verdict.trace = "plain"; trace_events = 0;
          verdicts = [ (p_odd, Engine.Admissible); (p_live, Engine.Vacuous) ] }
      ];
    engine_metrics =
      Some
        { Verdict.m_events = 3; m_chunks = 2; m_retired_tripped = 1;
          m_retired_admissible = 0; m_live = 1; m_vacuous = 2;
          m_registry_props = 2; m_distinct_monitors = 2; m_hashcons_hits = 0;
          m_chunk_latency_count = 2; m_chunk_latency_sum_ns = 4096;
          m_minor_words = 77 } }

let empty_report =
  { Verdict.counters =
      { Verdict.traces = 0; events = 0; props = 0; distinct_monitors = 0;
        vacuous_props = 0; violations = 0; live = 0; tripped = 0;
        retired_admissible = 0; events_per_s = None };
    prop_summaries = [];
    rows = [];
    engine_metrics = None }

let full_report_json =
  "{\n\
  \  \"schema\": \"sl-monitor-report/1\",\n\
  \  \"counters\": {\"traces\": 2, \"events\": 3, \"props\": 2, \
   \"distinct_monitors\": 2, \"violations\": 1, \"vacuous\": 1, \"live\": 1, \
   \"tripped\": 1, \"retired_admissible\": 0, \"events_per_s\": 1234.6},\n\
  \  \"engine_metrics\": {\"events\": 3, \"chunks\": 2, \"retired_tripped\": \
   1, \"retired_admissible\": 0, \"live\": 1, \"vacuous\": 2, \
   \"registry_props\": 2, \"distinct_monitors\": 2, \"hashcons_hits\": 0, \
   \"chunk_latency_count\": 2, \"chunk_latency_sum_ns\": 4096, \
   \"minor_words_total\": 77},\n\
  \  \"props\": [\n\
  \    {\"name\": \"q\\\"\\\\\\u0001\", \"monitor\": 0, \"vacuous\": false, \
   \"trips\": 1},\n\
  \    {\"name\": \"G F a\", \"monitor\": 1, \"vacuous\": true, \"trips\": 0}\n\
  \  ],\n\
  \  \"traces\": [\n\
  \    {\"name\": \"t\\\"\\\\\\u000a\", \"events\": 3, \"verdicts\": \
   [{\"prop\": \"q\\\"\\\\\\u0001\", \"verdict\": \"violation\", \"position\": \
   2}, {\"prop\": \"G F a\", \"verdict\": \"vacuous\"}]},\n\
  \    {\"name\": \"plain\", \"events\": 0, \"verdicts\": [{\"prop\": \
   \"q\\\"\\\\\\u0001\", \"verdict\": \"admissible\"}, {\"prop\": \"G F a\", \
   \"verdict\": \"vacuous\"}]}\n\
  \  ]\n\
   }\n"

let empty_report_json =
  "{\n\
  \  \"schema\": \"sl-monitor-report/1\",\n\
  \  \"counters\": {\"traces\": 0, \"events\": 0, \"props\": 0, \
   \"distinct_monitors\": 0, \"violations\": 0, \"vacuous\": 0, \"live\": 0, \
   \"tripped\": 0, \"retired_admissible\": 0},\n\
  \  \"props\": [\n\
  \  ],\n\
  \  \"traces\": [\n\
  \  ]\n\
   }\n"

let test_report_pins () =
  check_str "full report" full_report_json (Verdict.to_json full_report);
  check_str "empty report" empty_report_json (Verdict.to_json empty_report)

(* {2 Served records} *)

let render add =
  let buf = Buffer.create 128 in
  add buf;
  Buffer.contents buf

let records =
  [ ( render (fun b ->
          Records.add_hello b ~version:"1.0.0" ~props:5 ~monitors:3
            ~fingerprint:odd),
      "{\"type\": \"hello\", \"schema\": \"sl-monitor-report/1\", \"version\": \
       \"1.0.0\", \"props\": 5, \"monitors\": 3, \"fingerprint\": \
       \"q\\\"\\\\\\u0001\"}\n" );
    ( render (fun b ->
          Records.add_verdict_violation b ~trace:odd ~prop:"G a" ~position:7
            ~cause:"trip"),
      "{\"type\": \"verdict\", \"trace\": \"q\\\"\\\\\\u0001\", \"prop\": \"G \
       a\", \"verdict\": \"violation\", \"position\": 7, \"cause\": \"trip\"}\n"
    );
    ( render (fun b ->
          Records.add_verdict_admissible b ~trace:"t" ~prop:odd
            ~cause:"retire"),
      "{\"type\": \"verdict\", \"trace\": \"t\", \"prop\": \
       \"q\\\"\\\\\\u0001\", \"verdict\": \"admissible\", \"cause\": \
       \"retire\"}\n" );
    ( render (fun b -> Records.add_verdict_vacuous b ~trace:"t" ~prop:"G F a"),
      "{\"type\": \"verdict\", \"trace\": \"t\", \"prop\": \"G F a\", \
       \"verdict\": \"vacuous\", \"cause\": \"eof\"}\n" );
    ( render (fun b ->
          Records.add_error b ~line:4 ~trace:(Some odd) ~reason:"bad\tsymbol"),
      "{\"type\": \"error\", \"line\": 4, \"trace\": \"q\\\"\\\\\\u0001\", \
       \"reason\": \"bad\\u0009symbol\"}\n" );
    ( render (fun b -> Records.add_error b ~line:0 ~trace:None ~reason:"r"),
      "{\"type\": \"error\", \"line\": 0, \"reason\": \"r\"}\n" );
    ( render (fun b ->
          Records.add_summary b ~traces:2 ~events:7 ~props:5 ~monitors:3
            ~tripped:2 ~retired_admissible:1 ~live:1 ~conn_events:7
            ~conn_errors:min_int),
      "{\"type\": \"summary\", \"traces\": 2, \"events\": 7, \"props\": 5, \
       \"monitors\": 3, \"tripped\": 2, \"retired_admissible\": 1, \"live\": 1, \
       \"conn_events\": 7, \"conn_errors\": -4611686018427387904}\n" ) ]

let test_record_pins () =
  List.iteri
    (fun i (got, want) -> check_str (Printf.sprintf "record %d" i) want got)
    records

(* {2 Introspection bodies} *)

(* Two properties (one named with every escape), 1002 traces (more
   than the 1000 /traces shows, so the body is truncated; the first is
   named with every escape), two reloads and a stalled connection row. *)
let intro_fixture () =
  let registry = Registry.create ~alphabet:2 () in
  ignore
    (Registry.compile_all registry
       [ (Some odd, Formula.parse_exn "G a");
         (Some "F !a", Formula.parse_exn "F !a") ]);
  let session = Session.create ~registry () in
  let ingest = Session.ingest session in
  let engine = Session.engine session in
  let names = "t\"\\\001" :: List.init 1001 (Printf.sprintf "t%d") in
  List.iteri
    (fun i name ->
      Engine.step engine ~trace:(Ingest.intern ingest name) ~symbol:(i mod 2))
    names;
  let daemon = Daemon.make session in
  let intro =
    Introspect.create ~resumed_from:"snap\"1" ~version:"v\\1" daemon
  in
  Introspect.set_conns intro (fun () ->
      [ { Introspect.ci_id = 9; ci_listener = "tcp"; ci_mode = "http";
          ci_lines = 1; ci_events = 0; ci_errors = 0; ci_pending_out = 0;
          ci_stalled = false };
        { Introspect.ci_id = 3; ci_listener = "unix"; ci_mode = "lines";
          ci_lines = 12; ci_events = 10; ci_errors = 2; ci_pending_out = 4096;
          ci_stalled = true } ]);
  Introspect.note_reload intro ~ok:true ~detail:"ok";
  Introspect.note_reload intro ~ok:false ~detail:"bad \"props\"\n";
  (registry, intro)

let body intro path =
  match Introspect.handler intro path with
  | Some ("200 OK", "application/json", b) -> b
  | _ -> Alcotest.failf "%s: no JSON answer" path

let monitors_json =
  "{\"schema\": \"sl-status/1\", \"type\": \"monitors\", \"fingerprint\": \
   \"FINGERPRINT\", \"traces\": 1002, \"monitors\": [{\"index\": 0, \"key\": \
   \"KEY0\", \"props\": [\"q\\\"\\\\\\u0001\"], \"vacuous\": false, \
   \"pre_tripped\": false, \"live\": 501, \"tripped\": 501, \
   \"retired_admissible\": 0}, {\"index\": 1, \"key\": \"KEY1\", \"props\": \
   [\"F !a\"], \"vacuous\": true, \"pre_tripped\": false, \"live\": 0, \
   \"tripped\": 0, \"retired_admissible\": 0}]}\n"

let traces_json =
  let row id name =
    let live, tripped = if id mod 2 = 0 then (1, 0) else (0, 1) in
    Printf.sprintf
      "{\"id\": %d, \"name\": \"%s\", \"events\": 1, \"live\": %d, \
       \"tripped\": %d}"
      id name live tripped
  in
  "{\"schema\": \"sl-status/1\", \"type\": \"traces\", \"total\": 1002, \
   \"truncated\": true, \"traces\": ["
  ^ String.concat ", "
      (row 0 "t\\\"\\\\\\u0001"
      :: List.init 999 (fun i -> row (i + 1) (Printf.sprintf "t%d" i)))
  ^ "]}\n"

let status_json () =
  Printf.sprintf
    "{\"schema\": \"sl-status/1\", \"type\": \"status\", \"version\": \
     \"v\\\\1\", \"uptime_s\": _, \"fingerprint\": \"FINGERPRINT\", \
     \"props\": 2, \"monitors\": 2, \"traces\": 1002, \"events\": \
     1002, \"live\": 501, \"tripped\": 501, \"retired_admissible\": 0, \
     \"connections\": [{\"id\": 3, \"listener\": \"unix\", \"mode\": \
     \"lines\", \"lines\": 12, \"events\": 10, \"errors\": 2, \"pending_out\": \
     4096, \"stalled\": true}, {\"id\": 9, \"listener\": \"tcp\", \"mode\": \
     \"http\", \"lines\": 1, \"events\": 0, \"errors\": 0, \"pending_out\": 0, \
     \"stalled\": false}], \"reloads\": {\"count\": 1, \"failures\": 1, \
     \"history\": [{\"at\": _, \"ok\": true, \"detail\": \"ok\"}, {\"at\": _, \
     \"ok\": false, \"detail\": \"bad \\\"props\\\"\\u000a\"}]}, \
     \"resumed_from\": \"snap\\\"1\", \"snapshot_path\": null, \"obs\": \
     {\"enabled\": %b, \"spans_dropped\": %d}}\n"
    (Obs.is_enabled ()) (Obs.Span.dropped ())

let healthz_json =
  "{\"schema\": \"sl-status/1\", \"type\": \"healthz\", \"status\": \"ok\", \
   \"uptime_s\": _}\n"

(* Every occurrence of [pat] in [s] replaced by [by]. *)
let replace ~pat ~by s =
  let m = String.length pat in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + m <= String.length s && String.sub s !i m = pat then begin
      Buffer.add_string buf by;
      i := !i + m
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* The registry fingerprint and the monitor keys are content hashes,
   pinned where they are computed; here they are substituted in from the
   live registry. *)
let with_ids registry s =
  let keys =
    List.mapi
      (fun i pd ->
        ( Printf.sprintf "KEY%d" i,
          Sl_core.Wire.fnv64_hex pd.Sl_runtime.Packed_dfa.key ))
      (Array.to_list (Registry.monitors registry))
  in
  List.fold_left
    (fun s (pat, by) -> replace ~pat ~by s)
    s
    (("FINGERPRINT", Registry.fingerprint registry) :: keys)

let test_introspect_pins () =
  let registry, intro = intro_fixture () in
  check_str "/monitors" (with_ids registry monitors_json)
    (body intro "/monitors");
  check_str "/traces (truncated)" traces_json (body intro "/traces");
  check_str "/status" (with_ids registry (status_json ()))
    (mask [ "uptime_s"; "at" ] (body intro "/status"));
  check_str "/healthz" healthz_json
    (mask [ "uptime_s" ] (body intro "/healthz"))

(* {2 Trace events} *)

let trace_event_json =
  "{\"name\": \"q\\\"\\\\\\u0001\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
   \"ts\": 250000.000, \"dur\": 125000.000, \"args\": {\"depth\": 1, \
   \"k\\\"\": -3, \"minor_words\": 0, \"major_words\": 0, \"minor_gcs\": 0, \
   \"major_gcs\": 0, \"heap_delta_words\": 0}}\n\
   {\"name\": \"outer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
   0.000, \"dur\": 500000.000, \"args\": {\"depth\": 0, \"minor_words\": 0, \
   \"major_words\": 0, \"minor_gcs\": 0, \"major_gcs\": 0, \
   \"heap_delta_words\": 0}}\n"

let trace_events () =
  let now = ref 1.0 in
  Obs.Clock.set_source (fun () -> !now);
  Obs.Span.set_gc_probe false;
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Span.set_gc_probe true;
      Obs.Clock.reset_source ();
      Obs.reset ())
    (fun () ->
      let outer = Obs.Span.enter "outer" in
      now := 1.25;
      let inner = Obs.Span.enter odd in
      Obs.Span.attr inner "k\"" (-3);
      now := 1.375;
      Obs.Span.exit inner;
      now := 1.5;
      Obs.Span.exit outer;
      Obs.Span.to_jsonl ())

let test_trace_event_pin () =
  check_str "trace events" trace_event_json (trace_events ())

(* {2 The shared writer and reader} *)

let reparse layout s =
  match Json.parse s with
  | Ok v -> Json.to_string ~layout v
  | Error e -> Alcotest.failf "pinned output does not parse (%s): %s" e s

let test_pins_round_trip () =
  List.iter
    (fun s -> check_str "report" s (reparse Json.Block s))
    [ full_report_json; empty_report_json ];
  List.iter (fun (s, _) -> check_str "record" s (reparse Json.Line s)) records;
  let _, intro = intro_fixture () in
  List.iter
    (fun path ->
      let b = body intro path in
      check_str path b (reparse Json.Line b))
    [ "/monitors"; "/traces"; "/status"; "/healthz" ];
  List.iter
    (fun line ->
      if line <> "" then
        check_str "trace event" (line ^ "\n") (reparse Json.Line line))
    (String.split_on_char '\n' trace_event_json)

let test_reader_exact () =
  let big = "9007199254740993" in
  check "int_ keeps 2^53 + 1" true
    (Json.int_ (Result.get_ok (Json.parse big)) = Some 9007199254740993);
  check "int_ refuses a fraction" true
    (Json.int_ (Result.get_ok (Json.parse "1.0")) = None);
  check "surrogate pair decodes to UTF-8" true
    (Json.parse "\"\\ud83d\\ude00\"" = Ok (Json.Str "\xf0\x9f\x98\x80"));
  check "number text kept" true
    (Json.parse " -0.250E+02 " = Ok (Json.Num "-0.250E+02"));
  List.iter
    (fun bad ->
      check ("rejects " ^ bad) true (Result.is_error (Json.parse bad)))
    [ "01"; "1."; ".5"; "+1"; "-"; "1e"; "[1,]"; "{\"a\" 1}"; "\"\\x\"";
      "\"\\udc00\""; "tru"; "" ]

let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 6) in
  let num =
    oneof
      [ map string_of_int int;
        map (Printf.sprintf "%.3f") (float_range (-1e6) 1e6);
        map2 (Printf.sprintf "%de%d") small_signed_int (-20 -- 20);
        oneofl [ "0"; "-0"; "0.5"; "-1.25E-3"; "6.02e+23" ] ]
  in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun s -> Json.Num s) num; map (fun s -> Json.Str s) bytes ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (2, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n - 1))));
               ( 2,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair bytes (self (n - 1))))) ])

let qcheck_round_trip layout name =
  QCheck.Test.make ~count:500 ~name
    (QCheck.make ~print:(Json.to_string ~layout) gen_json)
    (fun v -> Json.parse (Json.to_string ~layout v) = Ok v)

let tests =
  [ Alcotest.test_case "report bytes pinned" `Quick test_report_pins;
    Alcotest.test_case "served records pinned" `Quick test_record_pins;
    Alcotest.test_case "introspection bodies pinned" `Quick
      test_introspect_pins;
    Alcotest.test_case "trace-event lines pinned" `Quick test_trace_event_pin;
    Alcotest.test_case "pinned outputs parse and write back" `Quick
      test_pins_round_trip;
    Alcotest.test_case "reader: exact ints, strict numbers" `Quick
      test_reader_exact;
    QCheck_alcotest.to_alcotest
      (qcheck_round_trip Json.Line "parse (to_string v) = v, line layout");
    QCheck_alcotest.to_alcotest
      (qcheck_round_trip Json.Block "parse (to_string v) = v, block layout") ]
