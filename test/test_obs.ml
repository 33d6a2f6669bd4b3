(* The observability kernel: bucket arithmetic, span nesting, the
   disabled-mode no-op contract, and the pin that turning telemetry on
   cannot change what the decision pipeline or the engine computes. *)

module Obs = Sl_obs.Obs
module Buchi = Sl_buchi.Buchi
module Lexamples = Sl_ltl.Examples
module Registry = Sl_runtime.Registry
module Engine = Sl_runtime.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Every test leaves the kernel dark and on the wall clock, whatever
   happened inside. *)
let fresh f () =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Clock.reset_source ();
      Obs.reset ())
    f

(* --- Metrics --- *)

let test_histogram_buckets () =
  Obs.enable ();
  let h = Obs.Metrics.histogram "test_hist_boundaries" in
  (* Log-2 buckets: 0 -> le"0"; 1 -> le"1"; 2,3 -> le"3"; 4 -> le"7". *)
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 4 ];
  check_int "count" 5 (Obs.Metrics.histogram_count h);
  check_int "sum" 10 (Obs.Metrics.histogram_sum h);
  Alcotest.(check (list (pair (option int) int)))
    "cumulative buckets"
    [ (Some 0, 1); (Some 1, 2); (Some 3, 4); (Some 7, 5); (None, 5) ]
    (Obs.Metrics.histogram_buckets h);
  (* Power-of-two edges land in the bucket they open, not the one they
     close: 8 is the first sample of [8, 15]. *)
  Obs.Metrics.observe h 8;
  check "8 lands in le=15" true
    (List.mem (Some 15, 6) (Obs.Metrics.histogram_buckets h));
  (* Non-positive samples all fall into bucket 0 and the sum is signed. *)
  Obs.Metrics.observe h (-3);
  check "negative lands in le=0" true
    (List.mem (Some 0, 2) (Obs.Metrics.histogram_buckets h));
  check_int "signed sum" 15 (Obs.Metrics.histogram_sum h)

let test_metrics_counters_gauges () =
  Obs.enable ();
  let c = Obs.Metrics.counter "test_counter_total" in
  let g = Obs.Metrics.gauge "test_gauge" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Obs.Metrics.set g 7;
  Obs.Metrics.set g 3;
  check_int "counter accumulates" 5 (Obs.Metrics.counter_value c);
  check_int "gauge keeps last" 3 (Obs.Metrics.gauge_value g);
  (* Registration is idempotent by name: the second handle is the same
     cell... *)
  let c' = Obs.Metrics.counter "test_counter_total" in
  Obs.Metrics.incr c';
  check_int "same cell through both handles" 6 (Obs.Metrics.counter_value c);
  check "lookup by name" true (Obs.Metrics.value "test_counter_total" = Some 6);
  (* ...but re-registering under another kind is a hard error. *)
  check "kind mismatch rejected" true
    (match Obs.Metrics.gauge "test_counter_total" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_prometheus_exposition () =
  Obs.enable ();
  let c = Obs.Metrics.counter "test_expo_total" in
  let h = Obs.Metrics.histogram "test_expo_hist" in
  Obs.Metrics.add c 3;
  Obs.Metrics.observe h 2;
  let text = Obs.Metrics.to_prometheus () in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec scan i =
      i + n <= m && (String.sub text i n = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun line -> check ("exposition has " ^ line) true (has line))
    [ "# TYPE test_expo_total counter"; "# HELP test_expo_total";
      "test_expo_total 3"; "# TYPE test_expo_hist histogram";
      "test_expo_hist_bucket{le=\"3\"} 1";
      "test_expo_hist_bucket{le=\"+Inf\"} 1"; "test_expo_hist_sum 2";
      "test_expo_hist_count 1" ]

(* --- Labeled families --- *)

let has_sub text needle =
  let n = String.length needle and m = String.length text in
  let rec scan i = i + n <= m && (String.sub text i n = needle || scan (i + 1)) in
  scan 0

let test_labeled_families () =
  Obs.enable ();
  let v = Obs.Metrics.counter_vec "test_vec_total" ~labels:[ "monitor" ] in
  let a = Obs.Metrics.counter_child v [ "m0" ] in
  let b = Obs.Metrics.counter_child v [ "m1" ] in
  Obs.Metrics.add a 3;
  Obs.Metrics.incr b;
  (* Children are interned by label values: a second lookup is the same
     series, and recording through either handle hits the same cell. *)
  let a' = Obs.Metrics.counter_child v [ "m0" ] in
  Obs.Metrics.incr a';
  check_int "interned child shares the cell" 4 (Obs.Metrics.counter_value a);
  check_int "sibling isolated" 1 (Obs.Metrics.counter_value b);
  (* Arity and registration clashes are hard errors. *)
  check "value-count mismatch rejected" true
    (match Obs.Metrics.counter_child v [ "m0"; "extra" ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "label-list clash rejected" true
    (match Obs.Metrics.counter_vec "test_vec_total" ~labels:[ "other" ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "empty label list rejected" true
    (match Obs.Metrics.counter_vec "test_vec_empty_total" ~labels:[] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* One family header, one sample line per child, labels rendered. *)
  let text = Obs.Metrics.to_prometheus () in
  List.iter
    (fun line -> check ("vec exposition has " ^ line) true (has_sub text line))
    [ "# TYPE test_vec_total counter"; "test_vec_total{monitor=\"m0\"} 4";
      "test_vec_total{monitor=\"m1\"} 1" ]

let test_exposition_escaping () =
  Obs.enable ();
  let v =
    Obs.Metrics.counter_vec "test_escape_total"
      ~help:"line one\nline two \\ backslash" ~labels:[ "path" ]
  in
  let c = Obs.Metrics.counter_child v [ "a\\b\"c\nd" ] in
  Obs.Metrics.incr c;
  let text = Obs.Metrics.to_prometheus () in
  (* Per the text-format spec: labels escape backslash, double quote and
     newline; help escapes backslash and newline. *)
  check "label value escaped" true
    (has_sub text "test_escape_total{path=\"a\\\\b\\\"c\\nd\"} 1");
  check "help escaped" true
    (has_sub text
       "# HELP test_escape_total line one\\nline two \\\\ backslash")

let test_always_on_counters () =
  (* spans_dropped_total-style counters record even while dark, so the
     loss of telemetry is itself observable. *)
  Obs.disable ();
  let c = Obs.Metrics.counter "test_always_total" in
  Obs.Metrics.incr_always c;
  Obs.Metrics.add_always c 2;
  check_int "always-on records while dark" 3 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  check_int "plain incr still gated" 3 (Obs.Metrics.counter_value c)

(* --- Spans --- *)

let test_span_nesting_and_ordering () =
  (* Deterministic microsecond-resolution clock under test control. *)
  let now = ref 0. in
  let at us f =
    now := us *. 1e-6;
    f ()
  in
  Obs.Clock.set_source (fun () -> !now);
  (* The seconds->microseconds round trip is not exact in floating
     point (15e-6 *. 1e6 <> 15.), so timing checks use a tolerance. *)
  let near a b = Float.abs (a -. b) < 1e-6 in
  Obs.enable ();
  let outer = at 0. (fun () -> Obs.Span.enter "outer") in
  let inner = at 5. (fun () -> Obs.Span.enter "inner") in
  Obs.Span.attr inner "k" 42;
  at 10. (fun () -> Obs.Span.exit inner);
  at 15. (fun () -> Obs.Span.exit outer);
  (match Obs.Span.events () with
  | [ i; o ] ->
      check_str "inner completes first" "inner" i.Obs.Span.name;
      check_int "inner depth" 1 i.Obs.Span.depth;
      check "inner timing" true
        (near i.Obs.Span.ts_us 5. && near i.Obs.Span.dur_us 5.);
      check "inner attrs" true (i.Obs.Span.attrs = [ ("k", 42) ]);
      check_str "outer completes second" "outer" o.Obs.Span.name;
      check_int "outer depth" 0 o.Obs.Span.depth;
      check "outer timing" true
        (near o.Obs.Span.ts_us 0. && near o.Obs.Span.dur_us 15.)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  (* Exiting a parent closes open children innermost-first, at one
     timestamp; the children's stale tokens become no-ops. *)
  Obs.reset ();
  let a = at 20. (fun () -> Obs.Span.enter "a") in
  let b = at 21. (fun () -> Obs.Span.enter "b") in
  at 30. (fun () -> Obs.Span.exit a);
  at 40. (fun () -> Obs.Span.exit b);
  (match Obs.Span.events () with
  | [ eb; ea ] ->
      check_str "child closed first" "b" eb.Obs.Span.name;
      check "child closed at parent's exit" true (near eb.Obs.Span.dur_us 9.);
      check "parent duration" true (near ea.Obs.Span.dur_us 10.);
      check_int "stale exit recorded nothing" 2
        (List.length (Obs.Span.events ()))
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_span_ring_and_jsonl () =
  Obs.Clock.set_source (fun () -> 0.);
  Obs.enable ();
  let cap0 = Obs.Span.ring_capacity () in
  Obs.Span.set_ring_capacity 4;
  for _ = 1 to 10 do
    Obs.Span.exit (Obs.Span.enter "ringed")
  done;
  check_int "ring keeps most recent" 4 (List.length (Obs.Span.events ()));
  check_int "older spans counted as dropped" 6 (Obs.Span.dropped ());
  (* JSONL export: one object per line, one line per buffered event. *)
  let jsonl = Obs.Span.to_jsonl () in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' jsonl)
  in
  check_int "one JSONL line per buffered event" 4 (List.length lines);
  List.iter
    (fun l ->
      check "line is a trace event" true
        (String.length l >= 2
        && l.[0] = '{'
        && l.[String.length l - 1] = '}'))
    lines;
  Obs.Span.set_ring_capacity cap0

(* --- Disabled-mode no-op contract --- *)

let test_disabled_noop () =
  check "kernel starts dark" false (Obs.is_enabled ());
  let c = Obs.Metrics.counter "test_dark_total" in
  let h = Obs.Metrics.histogram "test_dark_hist" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Obs.Metrics.observe h 5;
  check_int "counter untouched" 0 (Obs.Metrics.counter_value c);
  check_int "histogram untouched" 0 (Obs.Metrics.histogram_count h);
  let tok = Obs.Span.enter "dark" in
  check "enter returns the inert token" true (tok = Obs.Span.none);
  Obs.Span.attr tok "k" 1;
  Obs.Span.exit tok;
  check_int "no events recorded" 0 (List.length (Obs.Span.events ()));
  (* Registration still works while dark: the handle records normally
     once the kernel is enabled. *)
  Obs.enable ();
  Obs.Metrics.incr c;
  check_int "handle registered while dark is live" 1
    (Obs.Metrics.counter_value c)

let test_disabled_identical_artifacts () =
  (* The Section 2.3 table rendered with the kernel dark and with it
     collecting must be byte-identical: telemetry is write-only. *)
  let render () =
    Format.asprintf "%a" (fun fmt t -> Lexamples.pp_table fmt t)
      (Lexamples.table ())
  in
  Obs.disable ();
  let dark = render () in
  Obs.enable ();
  let lit = render () in
  Obs.disable ();
  check_str "rem table identical dark vs collecting" dark lit

(* --- Registry stats --- *)

let test_registry_stats () =
  let r = Registry.create ~alphabet:2 () in
  (* p1 and p3 have language-equal safety parts (lcl p3 = p1 is the
     paper's example), so they hash-cons to one monitor; p4 is pure
     liveness and compiles to its own (vacuous) monitor. *)
  ignore (Registry.add_formula r Lexamples.p1);
  ignore (Registry.add_formula r Lexamples.p3);
  ignore (Registry.add_formula r Lexamples.p4);
  let s = Registry.stats r in
  check_int "props" 3 s.Registry.props;
  check_int "distinct monitors" 2 s.Registry.distinct_monitors;
  check_int "hash-cons hits" 1 s.Registry.hashcons_hits;
  check_int "stats agree with nprops" (Registry.nprops r) s.Registry.props;
  check_int "stats agree with nmonitors" (Registry.nmonitors r)
    s.Registry.distinct_monitors;
  check_int "stats agree with hits" (Registry.hits r) s.Registry.hashcons_hits

(* --- Telemetry cannot change results --- *)

(* Compile a random automaton plus two formulas (p1/p3 hash-cons onto
   one monitor and drive the instrumented translate/determinize/digraph
   paths), stream 200 random events, and snapshot everything observable:
   registry stats, every per-property verdict, retirement counters. *)
let run_pipeline ~enabled seed =
  if enabled then Obs.enable () else Obs.disable ();
  Fun.protect
    ~finally:(fun () -> Obs.disable ())
    (fun () ->
      let b =
        Buchi.random ~seed ~alphabet:2 ~nstates:(3 + (seed mod 6))
          ~density:0.2 ~accepting_fraction:0.4 ()
      in
      let r = Registry.create ~alphabet:2 () in
      ignore (Registry.add_buchi r ~name:"b" b);
      ignore (Registry.add_formula r Lexamples.p1);
      ignore (Registry.add_formula r Lexamples.p3);
      let eng = Engine.create ~monitors:(Registry.monitors r) () in
      let st = Random.State.make [| seed + 1 |] in
      for _ = 1 to 200 do
        Engine.step eng ~trace:0 ~symbol:(Random.State.int st 2)
      done;
      let verdicts =
        List.map
          (fun p ->
            Engine.verdict eng ~trace:0 ~monitor:(Registry.monitor_of_prop r p))
          [ 0; 1; 2 ]
      in
      (Registry.stats r, verdicts, Engine.tripped eng,
       Engine.retired_admissible eng))

let prop_obs_does_not_change_results =
  QCheck.Test.make
    ~name:"enabling metrics changes no verdict or registry stat" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      Obs.reset ();
      let dark = run_pipeline ~enabled:false seed in
      let lit = run_pipeline ~enabled:true seed in
      Obs.reset ();
      dark = lit)

let tests =
  [ Alcotest.test_case "histogram bucket boundaries" `Quick
      (fresh test_histogram_buckets);
    Alcotest.test_case "counters and gauges" `Quick
      (fresh test_metrics_counters_gauges);
    Alcotest.test_case "prometheus exposition" `Quick
      (fresh test_prometheus_exposition);
    Alcotest.test_case "labeled families" `Quick (fresh test_labeled_families);
    Alcotest.test_case "exposition escaping" `Quick
      (fresh test_exposition_escaping);
    Alcotest.test_case "always-on counters" `Quick
      (fresh test_always_on_counters);
    Alcotest.test_case "span nesting and ordering" `Quick
      (fresh test_span_nesting_and_ordering);
    Alcotest.test_case "span ring, JSONL" `Quick
      (fresh test_span_ring_and_jsonl);
    Alcotest.test_case "disabled kernel is a no-op" `Quick
      (fresh test_disabled_noop);
    Alcotest.test_case "disabled-mode artifacts identical" `Quick
      (fresh test_disabled_identical_artifacts);
    Alcotest.test_case "registry stats" `Quick (fresh test_registry_stats);
    QCheck_alcotest.to_alcotest prop_obs_does_not_change_results ]
