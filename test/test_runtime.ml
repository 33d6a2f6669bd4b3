(* The streaming runtime subsystem, pinned against the one-trace
   one-property reference monitor it industrializes: the packed engine
   must produce the same verdicts at the same positions as per-event
   Sl_buchi.Monitor.step, on random automata and seeded random traces. *)

module Buchi = Sl_buchi.Buchi
module Monitor = Sl_buchi.Monitor
module Formula = Sl_ltl.Formula
module Lexamples = Sl_ltl.Examples
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry
module Engine = Sl_runtime.Engine
module Ingest = Sl_runtime.Ingest
module Verdict = Sl_runtime.Verdict

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Engine verdicts vs the reference monitor: engine [Vacuous] means the
   reference never trips, so it reads as Admissible there. *)
let agree (reference : Monitor.verdict) (packed : Engine.verdict) =
  match (reference, packed) with
  | Monitor.Admissible, (Engine.Admissible | Engine.Vacuous) -> true
  | Monitor.Violation bad, Engine.Violation { position } ->
      List.length bad = position
  | _ -> false

(* --- Packed compilation --- *)

let test_packed_shape () =
  let pd = Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p1) in
  check_int "flat table size" (pd.Packed_dfa.nstates * pd.Packed_dfa.alphabet)
    (Array.length pd.Packed_dfa.trans);
  check "p1 not vacuous" false pd.Packed_dfa.vacuous;
  check "p1 not pre-tripped" false pd.Packed_dfa.pre_tripped;
  (* 'a' observed: admissible forever; the packed table knows it. *)
  let q = Packed_dfa.step pd Packed_dfa.start 0 in
  check "after a: cannot trip anymore" false (Packed_dfa.can_trip pd q);
  (* language-equal properties pack to identical keys (hash-consing):
     lcl p3 = p1 is the paper's Section 2.3 example *)
  let pd3 = Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p3) in
  check "safety parts of p1 and p3 share a key" true
    (String.equal (Packed_dfa.key pd) (Packed_dfa.key pd3))

let test_vacuity_rem_examples () =
  (* is_vacuous over the Rem table: exactly the pure-liveness rows (and
     p6, whose safety part is the universal property). *)
  List.iter
    (fun (name, f, expected) ->
      let m = Monitor.create (Lexamples.automaton f) in
      check ("Monitor.is_vacuous " ^ name) expected (Monitor.is_vacuous m);
      let pd = Packed_dfa.of_buchi (Lexamples.automaton f) in
      check ("packed vacuous " ^ name) expected pd.Packed_dfa.vacuous)
    [ ("p0", Lexamples.p0, false); ("p1", Lexamples.p1, false);
      ("p2", Lexamples.p2, false); ("p3", Lexamples.p3, false);
      ("p4", Lexamples.p4, true); ("p5", Lexamples.p5, true);
      ("p6", Lexamples.p6, true) ]

(* --- Monitor satellite fixes --- *)

let test_monitor_feed_short_circuit () =
  let m = Monitor.create (Lexamples.automaton Lexamples.p1) in
  (* p1 = 'a': the shortest bad prefix is [1]; feed must stop there and
     report it unchanged no matter what follows in the batch. *)
  (match Monitor.feed m [ 1; 0; 1; 0; 0 ] with
  | Monitor.Violation bad ->
      Alcotest.(check (list int)) "bad prefix unaffected by batch tail"
        [ 1 ] bad
  | Monitor.Admissible -> Alcotest.fail "expected violation");
  (* and the verdict is sticky across further feeds *)
  check "sticky" true
    (match Monitor.feed m [ 0; 0 ] with
    | Monitor.Violation [ 1 ] -> true
    | _ -> false)

let test_monitor_reset () =
  let m = Monitor.create (Lexamples.automaton Lexamples.p1) in
  check "trips" true
    (match Monitor.feed m [ 1 ] with Monitor.Violation _ -> true | _ -> false);
  Monitor.reset m;
  check "fresh after reset" true (Monitor.verdict m = Monitor.Admissible);
  check "good trace admissible after reset" true
    (Monitor.feed m [ 0; 0; 1 ] = Monitor.Admissible);
  (* the degenerate empty property stays tripped across resets *)
  let m0 = Monitor.create (Lexamples.automaton Lexamples.p0) in
  Monitor.reset m0;
  check "empty property re-trips on reset" true
    (match Monitor.verdict m0 with Monitor.Violation [] -> true | _ -> false)

(* --- Engine vs reference monitor, property-based --- *)

let prop_engine_agrees_with_monitor =
  QCheck.Test.make ~name:"packed engine = per-event Monitor.step" ~count:80
    QCheck.(pair (int_range 0 5000) (int_range 0 5000))
    (fun (s1, s2) ->
      let b =
        Buchi.random ~seed:s1 ~alphabet:2 ~nstates:(3 + (s1 mod 6))
          ~density:0.2 ~accepting_fraction:0.4 ()
      in
      let m = Monitor.create b in
      let eng = Engine.create ~monitors:[| Packed_dfa.of_buchi b |] () in
      let st = Random.State.make [| s2 |] in
      let ok = ref true in
      for _ = 1 to 32 do
        let sym = Random.State.int st 2 in
        let reference = Monitor.step m sym in
        Engine.step eng ~trace:0 ~symbol:sym;
        if not (agree reference (Engine.verdict eng ~trace:0 ~monitor:0))
        then ok := false
      done;
      !ok)

let prop_engine_batched_equals_stepwise =
  QCheck.Test.make ~name:"batched feed = stepwise feed" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let monitors =
        Array.init 4 (fun i ->
            Packed_dfa.of_buchi
              (Buchi.random ~seed:(seed + (31 * i)) ~alphabet:2
                 ~nstates:(3 + ((seed + i) mod 5)) ~density:0.2
                 ~accepting_fraction:0.4 ()))
      in
      let n = 64 in
      let traces = Array.init n (fun _ -> Random.State.int st 3) in
      let symbols = Array.init n (fun _ -> Random.State.int st 2) in
      (* the retire hook's firing sequence must match too: it pins the
         exact event order of retirements, not just the final verdicts *)
      let hooked () =
        let eng = Engine.create ~monitors () in
        let fired = ref [] in
        Engine.set_retire_hook eng
          (Some
             (fun ~trace ~monitor ~position ~tripped ->
               fired := (trace, monitor, position, tripped) :: !fired));
        (eng, fired)
      in
      let batched, fired_batched = hooked () in
      Engine.feed batched ~n ~traces ~symbols ();
      let stepwise, fired_stepwise = hooked () in
      for k = 0 to n - 1 do
        Engine.step stepwise ~trace:traces.(k) ~symbol:symbols.(k)
      done;
      let same =
        ref
          (Engine.events batched = Engine.events stepwise
          && !fired_batched = !fired_stepwise)
      in
      for tr = 0 to 2 do
        for m = 0 to Array.length monitors - 1 do
          if
            Engine.verdict batched ~trace:tr ~monitor:m
            <> Engine.verdict stepwise ~trace:tr ~monitor:m
          then same := false
        done
      done;
      !same)

let test_engine_interleaved_traces () =
  (* Positions are per trace, not global: interleave two traces and
     check each sees its own event numbering. p1 = 'a' trips on the
     first symbol 1 of the respective trace. *)
  let monitors = [| Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p1) |] in
  let eng = Engine.create ~monitors () in
  Engine.step eng ~trace:0 ~symbol:0;
  (* t0: a *)
  Engine.step eng ~trace:1 ~symbol:1;
  (* t1: !a -> trip at its event 1 *)
  Engine.step eng ~trace:0 ~symbol:0;
  Engine.step eng ~trace:1 ~symbol:0;
  check "t0 admissible" true
    (Engine.verdict eng ~trace:0 ~monitor:0 = Engine.Admissible);
  check "t1 tripped at its own position 1" true
    (Engine.verdict eng ~trace:1 ~monitor:0
    = Engine.Violation { position = 1 });
  check_int "t0 events" 2 (Engine.trace_events eng 0);
  check_int "t1 events" 2 (Engine.trace_events eng 1)

let test_engine_reset_and_retirement () =
  let reg = Registry.create () in
  ignore (Registry.add_formula reg (Formula.parse_exn "a"));
  ignore (Registry.add_formula reg (Formula.parse_exn "G F a"));
  let eng = Engine.create ~monitors:(Registry.monitors reg) () in
  Engine.step eng ~trace:0 ~symbol:0;
  (* 'a' monitor is admissible-forever after seeing a; vacuous monitor
     was never live: the trace has no live monitors left. *)
  check_int "all monitors retired" 0 (Engine.live eng);
  check_int "retired admissible" 1 (Engine.retired_admissible eng);
  Engine.reset eng;
  check_int "reset clears events" 0 (Engine.events eng);
  Engine.step eng ~trace:0 ~symbol:1;
  check "after reset the monitor trips" true
    (Engine.verdict eng ~trace:0 ~monitor:0
    = Engine.Violation { position = 1 })

(* --- Registry --- *)

let test_registry_hash_consing () =
  let reg = Registry.create () in
  ignore (Registry.add_formula reg (Formula.parse_exn "a"));
  ignore (Registry.add_formula reg (Formula.parse_exn "a & F !a"));
  ignore (Registry.add_formula reg (Formula.parse_exn "G F a"));
  ignore (Registry.add_formula reg (Formula.parse_exn "F G !a"));
  check_int "4 props" 4 (Registry.nprops reg);
  (* lcl(a & F !a) = L(a); both liveness props share the universal
     (vacuous) monitor *)
  check_int "2 distinct monitors" 2 (Registry.nmonitors reg);
  check_int "2 hash-cons hits" 2 (Registry.hits reg);
  check_int "p3 shares p1's monitor" (Registry.monitor_of_prop reg 0)
    (Registry.monitor_of_prop reg 1)

let test_registry_malformed_lines () =
  let reg = Registry.create () in
  let errors =
    Registry.load_lines reg ~path:"props.txt"
      [ "a"; ""; "# comment"; "G (a -> & X"; "G (a -> X !a)"; ")(" ]
  in
  check_int "two malformed lines" 2 (List.length errors);
  check_int "well-formed lines all loaded" 2 (Registry.nprops reg);
  check "errors cite file and line" true
    (match errors with
    | e1 :: e2 :: [] ->
        String.length e1 >= 12
        && String.sub e1 0 12 = "props.txt:4:"
        && String.sub e2 0 12 = "props.txt:6:"
    | _ -> false)

(* --- Trace-line parser and chunked ingestion --- *)

let test_parse_line () =
  check "valid" true (Ingest.parse_line "t1 3" = `Event ("t1", 3));
  check "whitespace tolerated" true
    (Ingest.parse_line "  t1 \t 0  " = `Event ("t1", 0));
  check "blank skipped" true (Ingest.parse_line "   " = `Skip);
  check "comment skipped" true (Ingest.parse_line "# hello" = `Skip);
  check "missing symbol" true
    (match Ingest.parse_line "t1" with `Malformed _ -> true | _ -> false);
  check "non-integer symbol" true
    (match Ingest.parse_line "t1 x" with `Malformed _ -> true | _ -> false);
  check "extra fields" true
    (match Ingest.parse_line "t1 1 2" with `Malformed _ -> true | _ -> false);
  check "negative symbol" true
    (match Ingest.parse_line "t1 -1" with `Malformed _ -> true | _ -> false);
  (* symbols are strict decimal: everything int_of_string_opt would
     additionally accept is a protocol error, with a structured reason *)
  check "hex radix prefix rejected" true
    (Ingest.parse_line "t1 0x10"
    = `Malformed (Some "t1", "symbol \"0x10\" is not an integer"));
  check "binary radix prefix rejected" true
    (Ingest.parse_line "t1 0b1"
    = `Malformed (Some "t1", "symbol \"0b1\" is not an integer"));
  check "underscore separator rejected" true
    (Ingest.parse_line "t1 1_000"
    = `Malformed (Some "t1", "symbol \"1_000\" is not an integer"));
  check "leading plus rejected" true
    (Ingest.parse_line "t1 +5"
    = `Malformed (Some "t1", "symbol \"+5\" is not an integer"));
  check "overflow is garbage, not wraparound" true
    (match Ingest.parse_line "t1 99999999999999999999" with
    | `Malformed (Some "t1", _) -> true
    | _ -> false);
  check "leading zeros are plain decimal" true
    (Ingest.parse_line "t1 007" = `Event ("t1", 7))

let drive_ingest ?(chunk_size = 3) ~alphabet lines =
  let ing = Ingest.create () in
  let remaining = ref lines in
  let events = ref [] in
  let errors = ref [] in
  Ingest.read ~chunk_size ~alphabet ing
    ~next_line:(fun () ->
      match !remaining with
      | [] -> None
      | l :: rest ->
          remaining := rest;
          Some l)
    ~on_chunk:(fun c ->
      for k = 0 to c.Ingest.len - 1 do
        events := (c.Ingest.trace_ids.(k), c.Ingest.symbols.(k)) :: !events
      done)
    ~on_error:(fun e ->
      errors := (e.Ingest.e_line, e.Ingest.e_trace, e.Ingest.e_reason)
                :: !errors);
  (ing, List.rev !events, List.rev !errors)

let test_ingest_chunks () =
  let ing, events, errors =
    drive_ingest ~alphabet:2
      [ "a 0"; "b 1"; "a 1"; "# note"; "b 0"; "bad"; "a 9"; "a 0" ]
  in
  (* chunk_size 3 forces mid-stream flushes plus a final partial one *)
  check_int "two trace ids interned" 2 (Ingest.ntraces ing);
  check "names in first-seen order" true
    (Ingest.name ing 0 = "a" && Ingest.name ing 1 = "b");
  Alcotest.(check (list (pair int int)))
    "events in order, ids dense"
    [ (0, 0); (1, 1); (0, 1); (1, 0); (0, 0) ]
    events;
  Alcotest.(check (list int)) "error lines" [ 6; 7 ]
    (List.map (fun (l, _, _) -> l) errors);
  (* structured records carry the trace id where one was recognizable:
     "bad" is a lone field (its token is the would-be trace id), "a 9"
     is an out-of-alphabet symbol on trace a *)
  Alcotest.(check (list (option string)))
    "error trace ids" [ Some "bad"; Some "a" ]
    (List.map (fun (_, t, _) -> t) errors)

(* --- Zero-copy scanner vs the reference parser ---

   The scanner must be byte-for-byte the reference reader: same events
   in order, same interner contents, same structured errors with the
   same 1-based line numbers — no matter where the read-block
   boundaries fall. *)

(* [input_line] semantics over a raw byte stream: segments between
   newlines, plus an unterminated final segment. *)
let lines_of_stream s =
  let n = String.length s in
  let lines = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = try String.index_from s !i '\n' with Not_found -> n in
    lines := String.sub s !i (j - !i) :: !lines;
    i := j + 1
  done;
  List.rev !lines

let drive_reference ~alphabet s =
  let ing, events, errors =
    drive_ingest ~chunk_size:3 ~alphabet (lines_of_stream s)
  in
  (Array.to_list (Ingest.names ing), events, errors)

(* Scan [s] as two blocks split at byte [k] (the straddled line, if
   any, takes the carry path). *)
let drive_scanner ~alphabet s k =
  let ing = Ingest.create () in
  let events = ref [] in
  let errors = ref [] in
  let sc =
    Ingest.scanner ~chunk_size:3 ~alphabet ing
      ~on_chunk:(fun c ->
        for j = 0 to c.Ingest.len - 1 do
          events := (c.Ingest.trace_ids.(j), c.Ingest.symbols.(j)) :: !events
        done)
      ~on_error:(fun e ->
        errors := (e.Ingest.e_line, e.Ingest.e_trace, e.Ingest.e_reason)
                  :: !errors)
  in
  Ingest.scan_string sc s 0 k;
  Ingest.scan_string sc s k (String.length s - k);
  Ingest.scan_eof sc;
  (Array.to_list (Ingest.names ing), List.rev !events, List.rev !errors)

(* A deterministic pin first (easier to debug than the QCheck shrink):
   the test_ingest_chunks fixture as one byte stream, split mid-line. *)
let test_scanner_boundaries () =
  let s = "a 0\nb 1\na 1\n# note\nb 0\nbad\na 9\na 0" in
  let reference = drive_reference ~alphabet:2 s in
  for k = 0 to String.length s do
    let scanned = drive_scanner ~alphabet:2 s k in
    check (Printf.sprintf "split at %d" k) true (scanned = reference)
  done;
  (* the pinned expectations themselves, via the scanner *)
  let names, events, errors = drive_scanner ~alphabet:2 s 5 in
  Alcotest.(check (list string)) "names first-seen" [ "a"; "b" ] names;
  Alcotest.(check (list (pair int int)))
    "events" [ (0, 0); (1, 1); (0, 1); (1, 0); (0, 0) ] events;
  Alcotest.(check (list int)) "error lines" [ 6; 7 ]
    (List.map (fun (l, _, _) -> l) errors);
  Alcotest.(check (list (option string)))
    "error traces" [ Some "bad"; Some "a" ]
    (List.map (fun (_, t, _) -> t) errors)

(* Hostile line pool: blank, comments, \r line endings, radix prefixes,
   negatives, out-of-alphabet, overflow, extra fields, long tokens. *)
let hostile_pool =
  [| "a 0"; "b 1"; "a 1"; "  b \t 0 "; ""; "   "; "\t"; "# comment";
     "#a 1"; "bad"; "t 0x10"; "t 0b1"; "t 1_000"; "t +5"; "t -1"; "t 9";
     "t 99999999999999999999"; "a 0 1"; "long-trace-id-0123456789 1";
     "a 0\r"; "c\r"; "new-trace-every-time 1" |]

let prop_scanner_equals_reference =
  QCheck.Test.make
    ~name:"zero-copy scanner = reference parser (every split)"
    ~count:30
    QCheck.(
      pair (list_of_size Gen.(0 -- 12) (int_range 0 (Array.length hostile_pool - 1)))
        bool)
    (fun (picks, trailing_nl) ->
      let lines = List.map (fun i -> hostile_pool.(i)) picks in
      let s = String.concat "\n" lines ^ if trailing_nl then "\n" else "" in
      let reference = drive_reference ~alphabet:2 s in
      let ok = ref true in
      for k = 0 to String.length s do
        if drive_scanner ~alphabet:2 s k <> reference then ok := false
      done;
      !ok)

(* --- Fused transition megatable --- *)

(* [Packed_dfa.fuse] is pure layout: every entry must decode to exactly
   the per-monitor [step]/[can_trip]/[is_accepting] triple the engine's
   inner loop previously read separately. *)
let test_fuse_megatable () =
  let monitors =
    Array.append
      (Array.map
         (fun f -> Packed_dfa.of_buchi (Lexamples.automaton f))
         [| Lexamples.p0; Lexamples.p1; Lexamples.p2; Lexamples.p4 |])
      (Array.init 4 (fun i ->
           Packed_dfa.of_buchi
             (Buchi.random ~seed:(1000 + i) ~alphabet:2 ~nstates:(3 + i)
                ~density:0.2 ~accepting_fraction:0.4 ())))
  in
  let mega, base = Packed_dfa.fuse monitors in
  let total =
    Array.fold_left (fun acc pd -> acc + Array.length pd.Packed_dfa.trans) 0
      monitors
  in
  check_int "megatable size" total (Array.length mega);
  Array.iteri
    (fun m pd ->
      let alphabet = pd.Packed_dfa.alphabet in
      for q = 0 to pd.Packed_dfa.nstates - 1 do
        for s = 0 to alphabet - 1 do
          let e = mega.(base.(m) + (q * alphabet) + s) in
          let s' = Packed_dfa.step pd q s in
          check_int (Printf.sprintf "m%d q%d s%d successor" m q s) s'
            (e lsr 2);
          check (Printf.sprintf "m%d q%d s%d can_trip bit" m q s)
            (Packed_dfa.can_trip pd s')
            (e land 2 <> 0);
          check (Printf.sprintf "m%d q%d s%d accepting bit" m q s)
            (Packed_dfa.is_accepting pd s')
            (e land 1 <> 0)
        done
      done)
    monitors;
  (* degenerate shapes: no monitors at all *)
  let mega0, base0 = Packed_dfa.fuse [||] in
  check_int "empty fuse mega" 1 (Array.length mega0);
  check_int "empty fuse base" 1 (Array.length base0)

(* --- End to end: ingestion -> engine -> verdict report --- *)

let test_end_to_end_report () =
  let reg = Registry.create () in
  let errors =
    Registry.load_lines reg [ "a"; "G (a -> X !a)"; "G F a" ]
  in
  check_int "props load clean" 0 (List.length errors);
  let eng = Engine.create ~monitors:(Registry.monitors reg) () in
  let ing, _, ingest_errors =
    let ing = Ingest.create () in
    let remaining =
      ref [ "t1 0"; "t2 1"; "t1 1"; "t2 0"; "t1 0"; "t1 0" ]
    in
    let errors = ref [] in
    Ingest.read ~chunk_size:2 ~alphabet:2 ing
      ~next_line:(fun () ->
        match !remaining with
        | [] -> None
        | l :: rest ->
            remaining := rest;
            Some l)
      ~on_chunk:(fun c ->
        Engine.feed eng ~n:c.Ingest.len ~traces:c.Ingest.trace_ids
          ~symbols:c.Ingest.symbols ())
      ~on_error:(fun e -> errors := (e.Ingest.e_line, e.Ingest.e_reason)
                                    :: !errors);
    (ing, (), !errors)
  in
  check_int "no trace errors" 0 (List.length ingest_errors);
  let report =
    Verdict.make ~registry:reg ~engine:eng ~trace_name:(Ingest.name ing) ()
  in
  let c = report.Verdict.counters in
  check_int "traces" 2 c.Verdict.traces;
  check_int "events" 6 c.Verdict.events;
  check_int "violations" 2 c.Verdict.violations;
  check_int "vacuous props" 1 c.Verdict.vacuous_props;
  (* t1 = 0 1 0 0: G (a -> X !a) trips at event 4; t2 = 1 0: 'a' trips
     at event 1 — the engine-reported positions are the shortest bad
     prefix lengths *)
  let find trace name =
    let row = List.find (fun r -> r.Verdict.trace = trace) report.Verdict.rows in
    let _, v =
      List.find (fun (p, _) -> p.Registry.name = name) row.Verdict.verdicts
    in
    v
  in
  check "t1 violates G (a -> X !a) at 4" true
    (find "t1" "G (a -> X !a)" = Engine.Violation { position = 4 });
  check "t2 violates a at 1" true
    (find "t2" "a" = Engine.Violation { position = 1 });
  check "t1 admissible for a" true (find "t1" "a" = Engine.Admissible);
  check "liveness prop vacuous" true (find "t1" "G F a" = Engine.Vacuous);
  (* the JSON rendering stays parseable by eye and carries the schema *)
  let json = Verdict.to_json report in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let found = ref false in
    for i = 0 to nh - nn do
      if (not !found) && String.sub hay i nn = needle then found := true
    done;
    !found
  in
  check "json schema tag" true (contains json "sl-monitor-report/1");
  check "json violation position" true
    (contains json {|"verdict": "violation", "position": 4|})

(* --- Live census --- *)

(* [Engine.live] is a maintained count, not a walk of the trace table:
   after every operation of a random mix — batched feeds, with and
   without a retire hook, single steps, resets, and
   snapshot restores onto fresh and already-materialized ids — it must
   equal the census recomputed from the table both per trace and per
   monitor. *)
let census_agrees eng =
  let by_trace = ref 0 in
  for id = 0 to Engine.ntraces eng - 1 do
    match Engine.trace_summary eng id with
    | Some (_, live, _) -> by_trace := !by_trace + live
    | None -> ()
  done;
  let by_monitor =
    Array.fold_left
      (fun acc c -> acc + c.Engine.mc_live)
      0 (Engine.monitor_counts eng)
  in
  Engine.live eng = !by_trace && Engine.live eng = by_monitor

let prop_live_census_exact =
  QCheck.Test.make
    ~name:"Engine.live = trace-table census after any operation mix"
    ~count:25
    QCheck.(
      pair (int_range 0 5000) (list_of_size Gen.(1 -- 16) (int_range 0 9)))
    (fun (seed, ops) ->
      (* the empty property (pre-tripped) and a pure liveness one
         (vacuous) ride along: neither ever enters a live list *)
      let monitors =
        Array.append
          [| Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p0);
             Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p4) |]
          (Array.init 4 (fun i ->
               Packed_dfa.of_buchi
                 (Buchi.random ~seed:(seed + (17 * i)) ~alphabet:2
                    ~nstates:(3 + ((seed + i) mod 5)) ~density:0.2
                    ~accepting_fraction:0.4 ())))
      in
      let run ~hooked =
        let eng = Engine.create ~monitors () in
        if hooked then
          Engine.set_retire_hook eng
            (Some (fun ~trace:_ ~monitor:_ ~position:_ ~tripped:_ -> ()));
        let st = Random.State.make [| seed |] in
        let ok = ref (census_agrees eng) in
        let restore ~fresh =
          let nt = Engine.ntraces eng in
          if nt > 0 then
            match Engine.export_trace eng (Random.State.int st nt) with
            | None -> ()
            | Some ts ->
                let dst =
                  if fresh then nt + Random.State.int st 3
                  else Random.State.int st nt
                in
                Engine.restore_trace eng dst ts
        in
        List.iter
          (fun op ->
            (match op with
            | 6 ->
                Engine.step eng ~trace:(Random.State.int st 8)
                  ~symbol:(Random.State.int st 2)
            | 7 -> Engine.reset eng
            | 8 -> restore ~fresh:true
            | 9 -> restore ~fresh:false
            | _ ->
                let n = 1 + Random.State.int st 24 in
                let traces = Array.init n (fun _ -> Random.State.int st 8) in
                let symbols = Array.init n (fun _ -> Random.State.int st 2) in
                Engine.feed eng ~n ~traces ~symbols ());
            if not (census_agrees eng) then ok := false)
          ops;
        (!ok, Engine.live eng)
      in
      let ok_dark, live_dark = run ~hooked:false in
      let ok_hooked, live_hooked = run ~hooked:true in
      (* the same operations with and without the hook *)
      ok_dark && ok_hooked && live_dark = live_hooked)

let tests =
  [ Alcotest.test_case "packed compilation" `Quick test_packed_shape;
    Alcotest.test_case "vacuity on Rem p0-p6" `Quick
      test_vacuity_rem_examples;
    Alcotest.test_case "Monitor.feed short-circuits" `Quick
      test_monitor_feed_short_circuit;
    Alcotest.test_case "Monitor.reset" `Quick test_monitor_reset;
    QCheck_alcotest.to_alcotest prop_engine_agrees_with_monitor;
    QCheck_alcotest.to_alcotest prop_engine_batched_equals_stepwise;
    Alcotest.test_case "interleaved traces" `Quick
      test_engine_interleaved_traces;
    Alcotest.test_case "reset and retirement" `Quick
      test_engine_reset_and_retirement;
    Alcotest.test_case "registry hash-consing" `Quick
      test_registry_hash_consing;
    Alcotest.test_case "registry skips malformed lines" `Quick
      test_registry_malformed_lines;
    Alcotest.test_case "trace-line parser" `Quick test_parse_line;
    Alcotest.test_case "chunked ingestion" `Quick test_ingest_chunks;
    Alcotest.test_case "zero-copy scanner boundaries" `Quick
      test_scanner_boundaries;
    QCheck_alcotest.to_alcotest prop_scanner_equals_reference;
    Alcotest.test_case "fused megatable layout" `Quick test_fuse_megatable;
    Alcotest.test_case "end-to-end report" `Quick test_end_to_end_report;
    QCheck_alcotest.to_alcotest prop_live_census_exact ]
