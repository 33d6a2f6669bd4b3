(* The streaming runtime subsystem, pinned against the one-trace
   one-property reference monitor it industrializes: the packed engine
   must produce the same verdicts at the same positions as per-event
   Monitor_ref.step (the seed's subset-DFA stepping loop), on random
   automata and seeded random traces. *)

module Buchi = Sl_buchi.Buchi
module Monitor_ref = Reference.Monitor_ref
module Formula = Sl_ltl.Formula
module Lexamples = Sl_ltl.Examples
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry
module Engine = Sl_runtime.Engine
module Ingest = Sl_runtime.Ingest
module Ingest_ref = Reference.Ingest_ref
module Obs = Sl_obs.Obs
module Translate = Sl_ltl.Translate
module Closure = Sl_buchi.Closure
module Lasso = Sl_word.Lasso
module Verdict = Sl_runtime.Verdict

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Engine verdicts vs the reference monitor: engine [Vacuous] means the
   reference never trips, so it reads as Admissible there. *)
let agree (reference : Monitor_ref.verdict) (packed : Engine.verdict) =
  match (reference, packed) with
  | Monitor_ref.Admissible, (Engine.Admissible | Engine.Vacuous) -> true
  | Monitor_ref.Violation bad, Engine.Violation { position } ->
      List.length bad = position
  | _ -> false

(* Feed [word] as the events of one trace. *)
let feed_word eng ~trace word =
  let symbols = Array.of_list word in
  let n = Array.length symbols in
  Engine.feed eng ~n ~traces:(Array.make n trace) ~symbols ()

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
  (* Vacuity over the Rem table: exactly the pure-liveness rows (and
     p6, whose safety part is the universal property) — the monitors
     with no bad prefix, which the engine reports as [Vacuous]. *)
  List.iter
    (fun (name, f, expected) ->
      let pd = Packed_dfa.of_buchi (Lexamples.automaton f) in
      check ("packed vacuous " ^ name) expected pd.Packed_dfa.vacuous;
      check ("no bad prefix " ^ name) expected
        (Packed_dfa.shortest_bad_prefix pd = None);
      let eng = Engine.create ~monitors:[| pd |] () in
      feed_word eng ~trace:0 [ 1; 0; 1 ];
      check ("engine vacuous " ^ name) expected
        (Engine.verdict eng ~trace:0 ~monitor:0 = Engine.Vacuous))
    [ ("p0", Lexamples.p0, false); ("p1", Lexamples.p1, false);
      ("p2", Lexamples.p2, false); ("p3", Lexamples.p3, false);
      ("p4", Lexamples.p4, true); ("p5", Lexamples.p5, true);
      ("p6", Lexamples.p6, true) ]

(* --- One trace through the engine, as one-shot [slc monitor] runs it --- *)

let test_trip_survives_batch_tail () =
  let pd = Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p1) in
  let eng = Engine.create ~monitors:[| pd |] () in
  (* p1 = 'a': the shortest bad prefix is [1]; the trip position stays
     there no matter what follows in the batch. *)
  feed_word eng ~trace:0 [ 1; 0; 1; 0; 0 ];
  let tripped_at_1 () =
    Engine.verdict eng ~trace:0 ~monitor:0 = Engine.Violation { position = 1 }
  in
  check "tripped at the first event" true (tripped_at_1 ());
  (* and the verdict is sticky across further feeds *)
  feed_word eng ~trace:0 [ 0; 0 ];
  check "sticky" true (tripped_at_1 ())

let test_fresh_trace_after_trip () =
  let pd = Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p1) in
  let eng = Engine.create ~monitors:[| pd |] () in
  feed_word eng ~trace:0 [ 1 ];
  check "trips" true
    (match Engine.verdict eng ~trace:0 ~monitor:0 with
    | Engine.Violation _ -> true
    | _ -> false);
  check "a fresh trace is admissible" true
    (Engine.verdict eng ~trace:1 ~monitor:0 = Engine.Admissible);
  feed_word eng ~trace:1 [ 0; 0; 1 ];
  check "good trace admissible beside a tripped one" true
    (Engine.verdict eng ~trace:1 ~monitor:0 = Engine.Admissible);
  (* the degenerate empty property is tripped on every fresh trace *)
  let pd0 = Packed_dfa.of_buchi (Lexamples.automaton Lexamples.p0) in
  let eng0 = Engine.create ~monitors:[| pd0 |] () in
  check "empty property tripped before any event" true
    (Engine.verdict eng0 ~trace:0 ~monitor:0
    = Engine.Violation { position = 0 })

(* --- Engine vs reference monitor, property-based --- *)

let random_monitor_buchi s1 =
  Buchi.random ~seed:s1 ~alphabet:2 ~nstates:(3 + (s1 mod 6)) ~density:0.2
    ~accepting_fraction:0.4 ()

let prop_engine_agrees_with_monitor =
  QCheck.Test.make ~name:"packed engine = per-event Monitor.step" ~count:80
    QCheck.(pair (int_range 0 5000) (int_range 0 5000))
    (fun (s1, s2) ->
      let b = random_monitor_buchi s1 in
      let m = Monitor_ref.create b in
      let eng = Engine.create ~monitors:[| Packed_dfa.of_buchi b |] () in
      let st = Random.State.make [| s2 |] in
      let ok = ref true in
      for _ = 1 to 32 do
        let sym = Random.State.int st 2 in
        let reference = Monitor_ref.step m sym in
        Engine.step eng ~trace:0 ~symbol:sym;
        if not (agree reference (Engine.verdict eng ~trace:0 ~monitor:0))
        then ok := false
      done;
      !ok)

(* The certificate, pinned by what the engine does with it: over every
   word [u] as long as the shortest bad prefix [w], [u] trips before
   [|w|] never, at [|w|] only if [u >= w] lexicographically, and [w]
   itself trips there. So no shorter word trips, and [w] is the least
   word of its length that does. [None] only for vacuous monitors. *)
let prop_shortest_bad_prefix_trips =
  QCheck.Test.make ~name:"shortest bad prefix trips exactly at its length"
    ~count:80 (QCheck.int_range 0 5000)
    (fun s1 ->
      let pd = Packed_dfa.of_buchi (random_monitor_buchi s1) in
      match Packed_dfa.shortest_bad_prefix pd with
      | None -> pd.Packed_dfa.vacuous
      | Some w ->
          let len = List.length w in
          let eng = Engine.create ~monitors:[| pd |] () in
          (* trace [u] carries the word whose bits, read from the most
             significant, are the binary digits of [u] *)
          let word u = List.init len (fun i -> (u lsr (len - 1 - i)) land 1) in
          let traces = List.init (1 lsl len) Fun.id in
          List.iter (fun u -> feed_word eng ~trace:u (word u)) traces;
          List.for_all
            (fun u ->
              match Engine.verdict eng ~trace:u ~monitor:0 with
              | Engine.Violation { position } ->
                  position = len && compare (word u) w >= 0
              | Engine.Admissible | Engine.Vacuous -> word u <> w)
            traces)

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

let test_engine_retirement () =
  let reg = Registry.create () in
  ignore (Registry.add_formula reg (Formula.parse_exn "a"));
  ignore (Registry.add_formula reg (Formula.parse_exn "G F a"));
  let eng = Engine.create ~monitors:(Registry.monitors reg) () in
  Engine.step eng ~trace:0 ~symbol:0;
  (* 'a' monitor is admissible-forever after seeing a; vacuous monitor
     was never live: the trace has no live monitors left. *)
  check_int "all monitors retired" 0 (Engine.live eng);
  check_int "retired admissible" 1 (Engine.retired_admissible eng);
  Engine.step eng ~trace:1 ~symbol:1;
  check "on a fresh trace the monitor trips" true
    (Engine.verdict eng ~trace:1 ~monitor:0
    = Engine.Violation { position = 1 });
  check "the retired trace stays admissible" true
    (Engine.verdict eng ~trace:0 ~monitor:0 = Engine.Admissible);
  check_int "events" 2 (Engine.events eng);
  check_int "one trip" 1 (Engine.tripped eng);
  check_int "nothing live" 0 (Engine.live eng)

(* Retirements at one event fire in ascending monitor index. On the
   trace [a a] all four monitors retire at event 2: [X a] and [a & X a]
   admissible, [X !a] and [G !(a & X a)] by violation. *)
let test_same_event_retirement_order () =
  let reg = Registry.create () in
  List.iter
    (fun s -> ignore (Registry.add_formula reg (Formula.parse_exn s)))
    [ "X a"; "X !a"; "G !(a & X a)"; "a & X a" ];
  let eng = Engine.create ~monitors:(Registry.monitors reg) () in
  let fired = ref [] in
  Engine.set_retire_hook eng
    (Some
       (fun ~trace:_ ~monitor ~position ~tripped ->
         fired := (monitor, position, tripped) :: !fired));
  Engine.feed eng ~n:2 ~traces:[| 0; 0 |] ~symbols:[| 0; 0 |] ();
  Alcotest.(check (list (triple int int bool)))
    "hook order"
    [ (0, 2, false); (1, 2, true); (2, 2, true); (3, 2, false) ]
    (List.rev !fired)

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
    | _ -> false);
  (* a path that opens but cannot be read is an [Error], and compiles
     nothing *)
  let dir = Filename.temp_file "slc-registry-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  (match Registry.load_file reg dir with
  | Ok _ -> Alcotest.fail "a directory must not load"
  | Error e ->
      check "the error names the path and the cause" true
        (e = dir ^ ": Is a directory"));
  check_int "nothing compiled from the directory" 2 (Registry.nprops reg);
  Sys.rmdir dir

(* [G !w] for the 10-letter word of a's: its tableau closure (21) is
   one past the cap, so [Translate] refuses it. *)
let over_cap_line =
  "G !(a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X (a & X \
   (a))))))))))"

let test_registry_over_cap_line () =
  let good = [ "a"; "G (a -> X !a)"; "G F a"; "F G !a"; "a & F !a" ] in
  let reference = Registry.create () in
  check "good lines load cleanly" true
    (Registry.load_lines reference good = []);
  let reg = Registry.create () in
  let errors =
    Registry.load_lines reg ~path:"props.txt"
      (List.hd good :: over_cap_line :: List.tl good)
  in
  check "over-cap line reported" true
    (errors = [ "props.txt:2: formula closure too large (line skipped)" ]);
  check_int "the good lines all loaded" 5 (Registry.nprops reg);
  check "same registry as without the line" true
    (Registry.fingerprint reg = Registry.fingerprint reference)

(* The compile memo. The reference compiles every property afresh
   through [add_buchi] (automata are never memoised), named as
   [add_formula] names it; the memoised registry must end up with the
   same stats, fingerprint and per-property monitor ids. *)
let valuation symbol p = String.equal p "a" && symbol = 0

let compile_afresh named =
  let r = Registry.create () in
  List.iter
    (fun (name, f) ->
      let name = Option.value name ~default:(Formula.to_string f) in
      ignore
        (Registry.add_buchi r ~name
           (Translate.translate ~alphabet:2 ~valuation f)))
    named;
  r

let same_registry a b =
  Registry.stats a = Registry.stats b
  && Registry.fingerprint a = Registry.fingerprint b
  && List.map (fun (p : Registry.prop) -> p.monitor) (Registry.props a)
     = List.map (fun (p : Registry.prop) -> p.monitor) (Registry.props b)

let test_registry_memo () =
  let fleet =
    [ "G (a -> X !a)"; "a"; "G (a -> X !a)"; "G F a"; "a"; "a & F !a";
      "G (a -> X !a)"; "F G !a" ]
  in
  let named = List.map (fun s -> (Some s, Formula.parse_exn s)) fleet in
  let spans name =
    List.filter (fun (e : Obs.Span.event) -> e.name = name) (Obs.Span.events ())
  in
  let traced f =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () -> Obs.disable (); Obs.reset ())
      (fun () ->
        let r = f () in
        (r, List.length (spans "ltl.translate"),
         List.map (fun (e : Obs.Span.event) -> e.attrs)
           (spans "registry.compile")))
  in
  let memo, translations, compiles =
    traced (fun () ->
        let r = Registry.create () in
        ignore (Registry.compile_all r named);
        r)
  in
  check_int "each distinct formula translated once" 5 translations;
  check_int "one registry.compile span per property" 8 (List.length compiles);
  let afresh, translations_afresh, compiles_afresh =
    traced (fun () -> compile_afresh named)
  in
  check_int "the reference translates every property" 8 translations_afresh;
  check "stats, fingerprint and monitors = compiled afresh" true
    (same_registry memo afresh);
  check "registry.compile span attributes = compiled afresh" true
    (compiles = compiles_afresh);
  let one_by_one = Registry.create () in
  List.iter
    (fun (name, f) -> ignore (Registry.add_formula one_by_one ?name f))
    named;
  check "compile_all = per-property add_formula" true
    (same_registry memo one_by_one)

(* A pool of properties with deliberate hash-cons collisions (language-
   equal safety parts) and, drawn with repetition, repeated formulas. *)
let registry_prop_pool =
  [| "a"; "a & F !a"; "G F a"; "F G !a"; "G (a -> X !a)"; "!a | X a";
     "G a"; "F a"; "a | X X a"; "G (a -> X (X !a))" |]

let prop_registry_memo_invariant =
  QCheck.Test.make
    ~name:"registry: compile_all = compiled afresh (hash-cons structure)"
    ~count:25
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nprops = 1 + Random.State.int st 24 in
      let named =
        List.init nprops (fun i ->
            let s =
              registry_prop_pool.(Random.State.int st
                                    (Array.length registry_prop_pool))
            in
            let name = if i mod 2 = 0 then Some (Printf.sprintf "p%d" i)
              else None
            in
            (name, Formula.parse_exn s))
      in
      let r = Registry.create () in
      ignore (Registry.compile_all r named);
      same_registry r (compile_afresh named))

(* --- Trace-line parser and chunked ingestion --- *)

let test_parse_line () =
  check "valid" true (Ingest_ref.parse_line "t1 3" = `Event ("t1", 3));
  check "whitespace tolerated" true
    (Ingest_ref.parse_line "  t1 \t 0  " = `Event ("t1", 0));
  check "blank skipped" true (Ingest_ref.parse_line "   " = `Skip);
  check "comment skipped" true (Ingest_ref.parse_line "# hello" = `Skip);
  check "missing symbol" true
    (match Ingest_ref.parse_line "t1" with `Malformed _ -> true | _ -> false);
  check "non-integer symbol" true
    (match Ingest_ref.parse_line "t1 x" with `Malformed _ -> true | _ -> false);
  check "extra fields" true
    (match Ingest_ref.parse_line "t1 1 2" with `Malformed _ -> true | _ -> false);
  check "negative symbol" true
    (match Ingest_ref.parse_line "t1 -1" with `Malformed _ -> true | _ -> false);
  (* symbols are strict decimal: everything int_of_string_opt would
     additionally accept is a protocol error, with a structured reason *)
  check "hex radix prefix rejected" true
    (Ingest_ref.parse_line "t1 0x10"
    = `Malformed (Some "t1", "symbol \"0x10\" is not an integer"));
  check "binary radix prefix rejected" true
    (Ingest_ref.parse_line "t1 0b1"
    = `Malformed (Some "t1", "symbol \"0b1\" is not an integer"));
  check "underscore separator rejected" true
    (Ingest_ref.parse_line "t1 1_000"
    = `Malformed (Some "t1", "symbol \"1_000\" is not an integer"));
  check "leading plus rejected" true
    (Ingest_ref.parse_line "t1 +5"
    = `Malformed (Some "t1", "symbol \"+5\" is not an integer"));
  check "overflow is garbage, not wraparound" true
    (match Ingest_ref.parse_line "t1 99999999999999999999" with
    | `Malformed (Some "t1", _) -> true
    | _ -> false);
  check "leading zeros are plain decimal" true
    (Ingest_ref.parse_line "t1 007" = `Event ("t1", 7))

let drive_ingest ?(chunk_size = 3) ?max_line ~alphabet lines =
  let ing = Ingest.create () in
  let remaining = ref lines in
  let events = ref [] in
  let errors = ref [] in
  Ingest_ref.read ~chunk_size ?max_line ~alphabet ing
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

let drive_reference ?max_line ~alphabet s =
  let ing, events, errors =
    drive_ingest ~chunk_size:3 ?max_line ~alphabet (lines_of_stream s)
  in
  (Array.to_list (Ingest.names ing), events, errors)

(* Scan [s] as two blocks split at byte [k] (the straddled line, if
   any, takes the carry path). *)
let drive_scanner ?max_line ~alphabet s k =
  let ing = Ingest.create () in
  let events = ref [] in
  let errors = ref [] in
  let sc =
    Ingest.scanner ~chunk_size:3 ?max_line ~alphabet ing
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
    (List.map (fun (_, t, _) -> t) errors);
  (* capped at 6 bytes: the 7- and 9-byte lines are reported (once,
     with their own line numbers) and skipped, the rest scan as
     before, at every split *)
  let s = "a 0\nlong 01\nb 1\nlonger 01\nc 0\nlong 01" in
  let reference = drive_reference ~max_line:6 ~alphabet:2 s in
  for k = 0 to String.length s do
    let scanned = drive_scanner ~max_line:6 ~alphabet:2 s k in
    check (Printf.sprintf "capped split at %d" k) true (scanned = reference)
  done;
  let _, events, errors = reference in
  Alcotest.(check (list (pair int int)))
    "capped events" [ (0, 0); (1, 1); (2, 0) ] events;
  Alcotest.(check (list (pair int (option string))))
    "capped errors" [ (2, None); (4, None); (6, None) ]
    (List.map (fun (l, t, _) -> (l, t)) errors)

(* Hostile line pool: blank, comments, \r line endings, radix prefixes,
   negatives, out-of-alphabet, overflow, extra fields, long tokens. *)
let hostile_pool =
  [| "a 0"; "b 1"; "a 1"; "  b \t 0 "; ""; "   "; "\t"; "# comment";
     "#a 1"; "bad"; "t 0x10"; "t 0b1"; "t 1_000"; "t +5"; "t -1"; "t 9";
     "t 99999999999999999999"; "a 0 1"; "long-trace-id-0123456789 1";
     "a 0\r"; "c\r"; "new-trace-every-time 1" |]

(* The cap is drawn too: none (the [slc monitor] path), or one that
   some pool lines pass — the longest is 26 bytes. *)
let prop_scanner_equals_reference =
  QCheck.Test.make
    ~name:"zero-copy scanner = reference parser (every split)"
    ~count:30
    QCheck.(
      triple (list_of_size Gen.(0 -- 12) (int_range 0 (Array.length hostile_pool - 1)))
        bool (option (int_range 0 24)))
    (fun (picks, trailing_nl, max_line) ->
      let lines = List.map (fun i -> hostile_pool.(i)) picks in
      let s = String.concat "\n" lines ^ if trailing_nl then "\n" else "" in
      let reference = drive_reference ?max_line ~alphabet:2 s in
      let ok = ref true in
      for k = 0 to String.length s do
        if drive_scanner ?max_line ~alphabet:2 s k <> reference then ok := false
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
    Ingest_ref.read ~chunk_size:2 ~alphabet:2 ing
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
   after every operation of a random mix (see [prop_live_census_exact]
   below) it must equal the census recomputed from the table both per
   trace and per monitor. *)
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

(* --- The shadow product against the per-monitor reference ---

   [Engine] steps the fleet as grouped product automata; [Engine_ref]
   is the seed's per-monitor live-list loop. On random fleets and
   random operation mixes they must agree on everything a caller can
   observe: hook sequences, verdicts, exports, census and counters. *)

module Engine_ref = Reference.Engine_ref

(* [G !w] in the nested [l0 & X (l1 & ...)] shape; [true] is [a]. *)
let word_formula w =
  let lit b = if b then "a" else "!a" in
  let rec go = function
    | [] -> "true"
    | [ b ] -> lit b
    | b :: tl -> lit b ^ " & X (" ^ go tl ^ ")"
  in
  "G !(" ^ go w ^ ")"

(* [G !w] for every word over {a, !a} of length 3..6: 120 monitors
   whose product from the start state passes the group cap. *)
let words120 =
  lazy
    (let words n =
       List.init (1 lsl n) (fun bits ->
           List.init n (fun i -> bits land (1 lsl (n - 1 - i)) <> 0))
     in
     let r = Registry.create () in
     List.iter
       (fun n ->
         List.iter
           (fun w ->
             ignore (Registry.add_formula r (Formula.parse_exn (word_formula w))))
           (words n))
       [ 3; 4; 5; 6 ];
     Registry.monitors r)

(* Counts [a]s mod [n] and trips on [!a] at count [n - 1]. Two counters
   with coprime moduli whose product passes the cap each get a group
   of one. *)
let counter n =
  let delta =
    Array.init (n + 1) (fun q ->
        if q = n then [| n; n |]
        else [| (q + 1) mod n; (if q = n - 1 then n else q) |])
  in
  Packed_dfa.of_dfa
    (Sl_nfa.Dfa.make ~alphabet:2 ~nstates:(n + 1) ~start:0 ~delta
       ~accepting:(Array.init (n + 1) (fun q -> q < n)))

let random_monitor ?(alphabet = 2) seed =
  Packed_dfa.of_buchi
    (Buchi.random ~seed ~alphabet ~nstates:(3 + (seed mod 6)) ~density:0.2
       ~accepting_fraction:0.4 ())

(* Fleets by shape, with their alphabet: small random ones over 2 or 3
   letters, more than 62 monitors, groups of one, and the 120-word
   fleet; each with a vacuous and a pre-tripped monitor somewhere. *)
let fleet st seed =
  let alphabet = if seed mod 8 = 4 then 3 else 2 in
  let body =
    match seed mod 4 with
    | 0 ->
        Array.init (3 + (seed mod 6)) (fun i ->
            random_monitor ~alphabet (seed + (31 * i)))
    | 1 -> Array.make (63 + (seed mod 8)) (random_monitor seed)
    | 2 -> [| counter 67; random_monitor seed; counter 71; random_monitor (seed + 1) |]
    | _ -> Lazy.force words120
  in
  let body = Array.to_list body in
  let at = Random.State.int st (List.length body + 1) in
  let pre_tripped = Packed_dfa.of_buchi (Buchi.empty_language ~alphabet)
  and vacuous = Packed_dfa.of_buchi (Buchi.universal ~alphabet) in
  assert (pre_tripped.pre_tripped && vacuous.vacuous);
  ( alphabet,
    Array.of_list
      (List.filteri (fun i _ -> i < at) body
      @ (pre_tripped :: List.filteri (fun i _ -> i >= at) body)
      @ [ vacuous ]) )

(* Everything observable about a run, over trace ids [0, n). *)
let observe ~n ~monitors ~live ~tripped ~retired ~events ~ntraces ~verdict
    ~export ~summary ~counts ~trace_events =
  ( (live, tripped, retired, events, ntraces, counts),
    List.init n (fun id ->
        ( export id, summary id, trace_events id,
          List.init monitors (fun m -> verdict id m) )) )

let observe_product eng ~n =
  observe ~n ~monitors:(Engine.nmonitors eng) ~live:(Engine.live eng)
    ~tripped:(Engine.tripped eng) ~retired:(Engine.retired_admissible eng)
    ~events:(Engine.events eng) ~ntraces:(Engine.ntraces eng)
    ~verdict:(fun trace monitor -> Engine.verdict eng ~trace ~monitor)
    ~export:(Engine.export_trace eng) ~summary:(Engine.trace_summary eng)
    ~counts:(Engine.monitor_counts eng) ~trace_events:(Engine.trace_events eng)

let observe_reference eng ~n ~monitors =
  observe ~n ~monitors ~live:(Engine_ref.live eng)
    ~tripped:(Engine_ref.tripped eng)
    ~retired:(Engine_ref.retired_admissible eng)
    ~events:(Engine_ref.events eng) ~ntraces:(Engine_ref.ntraces eng)
    ~verdict:(fun trace monitor -> Engine_ref.verdict eng ~trace ~monitor)
    ~export:(Engine_ref.export_trace eng)
    ~summary:(Engine_ref.trace_summary eng)
    ~counts:(Engine_ref.monitor_counts eng)
    ~trace_events:(Engine_ref.trace_events eng)

(* A state a run could leave a trace in, drawn at random: every
   monitor that can trip in a random state, tripped one time in four,
   else live exactly when its state can still trip. Mostly outside the
   product built from the start state. *)
let random_trace_state st (monitors : Packed_dfa.t array) ~events =
  let m = Array.length monitors in
  let states = Array.make m Packed_dfa.start
  and tripped_at = Array.make m (-1)
  and live = ref [] in
  Array.iteri
    (fun i (pd : Packed_dfa.t) ->
      if pd.pre_tripped then tripped_at.(i) <- 0
      else if not pd.vacuous then begin
        let q = Random.State.int st pd.nstates in
        states.(i) <- q;
        if Random.State.int st 4 = 0 then
          tripped_at.(i) <- Random.State.int st (events + 1)
        else if pd.can_trip.(q) then live := i :: !live
      end)
    monitors;
  { Engine.ts_events = events; ts_states = states;
    ts_live = Array.of_list (List.rev !live); ts_tripped_at = tripped_at }

(* What reload carry-over does to a fresh monitor: restart it at the
   start state, live, in the middle of the trace. *)
let restart st (monitors : Packed_dfa.t array) (ts : Engine.trace_state) =
  let states = Array.copy ts.ts_states
  and tripped_at = Array.copy ts.ts_tripped_at in
  let live = Array.make (Array.length monitors) false in
  Array.iter (fun i -> live.(i) <- true) ts.ts_live;
  Array.iteri
    (fun i (pd : Packed_dfa.t) ->
      if (not (pd.vacuous || pd.pre_tripped)) && Random.State.int st 3 = 0
      then begin
        states.(i) <- Packed_dfa.start;
        tripped_at.(i) <- -1;
        live.(i) <- true
      end)
    monitors;
  { ts with
    Engine.ts_states = states;
    ts_live =
      Array.of_list
        (List.filter (fun i -> live.(i)) (List.init (Array.length live) Fun.id));
    ts_tripped_at = tripped_at }

(* Every trace's export over ids [0, ntraces), with one trace copied
   onto an id below 10, restarted by [restart], or randomized: what a
   rebuild from an edited snapshot restores. The target id may be past
   the last trace, leaving unmaterialized ids between. *)
let edited_exports st monitors ~export ~ntraces =
  let dst = Random.State.int st 10 in
  let traces =
    Array.init (max ntraces (dst + 1)) (fun id ->
        if id < ntraces then export id else None)
  in
  let src = if ntraces = 0 then None else traces.(Random.State.int st ntraces) in
  let edit = Random.State.int st 3 in
  traces.(dst) <-
    Some
      (match src with
      | Some ts when edit = 0 -> ts
      | Some ts when edit = 1 -> restart st monitors ts
      | _ -> random_trace_state st monitors ~events:(Random.State.int st 20));
  traces

(* [Engine.live] against the census after every operation of a random
   mix: batched feeds, with and without a retire hook, single steps,
   and rebuilds by [Engine.restore] from [edited_exports]. *)
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
        let hook eng =
          if hooked then
            Engine.set_retire_hook eng
              (Some (fun ~trace:_ ~monitor:_ ~position:_ ~tripped:_ -> ()));
          eng
        in
        let eng = ref (hook (Engine.create ~monitors ())) in
        let st = Random.State.make [| seed |] in
        let ok = ref (census_agrees !eng) in
        List.iter
          (fun op ->
            (match op with
            | 6 ->
                Engine.step !eng ~trace:(Random.State.int st 8)
                  ~symbol:(Random.State.int st 2)
            | 7 | 8 | 9 ->
                let traces =
                  edited_exports st monitors ~export:(Engine.export_trace !eng)
                    ~ntraces:(Engine.ntraces !eng)
                in
                eng := hook (Engine.restore ~monitors traces)
            | _ ->
                let n = 1 + Random.State.int st 24 in
                let traces = Array.init n (fun _ -> Random.State.int st 8) in
                let symbols = Array.init n (fun _ -> Random.State.int st 2) in
                Engine.feed !eng ~n ~traces ~symbols ());
            if not (census_agrees !eng) then ok := false)
          ops;
        (!ok, Engine.live !eng)
      in
      let ok_dark, live_dark = run ~hooked:false in
      let ok_hooked, live_hooked = run ~hooked:true in
      (* the same operations with and without the hook *)
      ok_dark && ok_hooked && live_dark = live_hooked)

let prop_product_equals_reference =
  QCheck.Test.make ~name:"shadow product = per-monitor reference engine"
    ~count:40
    QCheck.(pair (int_range 0 5000) (list_of_size Gen.(1 -- 20) (int_range 0 9)))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed |] in
      let alphabet, monitors = fleet st seed in
      let nm = Array.length monitors in
      let hooked = ref [] and hooked_ref = ref [] in
      let record acc ~trace ~monitor ~position ~tripped =
        acc := (trace, monitor, position, tripped) :: !acc
      in
      let hook eng =
        Engine.set_retire_hook eng (Some (record hooked));
        eng
      and hook_ref eng =
        Engine_ref.set_retire_hook eng (Some (record hooked_ref));
        eng
      in
      let eng = ref (hook (Engine.create ~monitors ()))
      and reference = ref (hook_ref (Engine_ref.create ~monitors ())) in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | 6 ->
              let trace = Random.State.int st 8
              and symbol = Random.State.int st alphabet in
              Engine.step !eng ~trace ~symbol;
              Engine_ref.step !reference ~trace ~symbol
          | 7 | 8 | 9 ->
              (* rebuild both engines from every trace's export, one
                 trace copied, restarted or randomized *)
              let traces =
                edited_exports st monitors
                  ~export:(Engine_ref.export_trace !reference)
                  ~ntraces:(Engine_ref.ntraces !reference)
              in
              eng := hook (Engine.restore ~monitors traces);
              reference := hook_ref (Engine_ref.restore ~monitors traces)
          | _ ->
              let n = 1 + Random.State.int st 48 in
              let traces = Array.init n (fun _ -> Random.State.int st 8) in
              let symbols = Array.init n (fun _ -> Random.State.int st alphabet) in
              Engine.feed !eng ~n ~traces ~symbols ();
              Engine_ref.feed !reference ~n ~traces ~symbols ());
          if
            observe_product !eng ~n:11
            <> observe_reference !reference ~n:11 ~monitors:nm
            || !hooked <> !hooked_ref
          then ok := false)
        ops;
      !ok)

(* Tuples outside the start-reachable product: a restore from 40
   random traces closes the groups from all their state vectors, in
   one product build, and still matches the reference over the next
   4000 events. *)
let test_restore_outside_product () =
  let monitors = Lazy.force words120 in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.disable (); Obs.reset ())
    (fun () ->
      ignore (Engine.create ~monitors ());
      check_int "120 words: 3 groups" 3
        (Option.get (Obs.Metrics.value "engine_product_groups"));
      let st = Random.State.make [| 24 |] in
      let traces =
        Array.init 40 (fun _ -> Some (random_trace_state st monitors ~events:5))
      in
      let eng = Engine.restore ~monitors traces in
      let reference = Engine_ref.restore ~monitors traces in
      let plans =
        List.filter
          (fun (e : Obs.Span.event) -> e.name = "engine.plan")
          (Obs.Span.events ())
      in
      check_int "one product build per engine" 2 (List.length plans);
      let n = 4000 in
      let traces = Array.init n (fun _ -> Random.State.int st 48) in
      let symbols = Array.init n (fun _ -> Random.State.int st 2) in
      Engine.feed eng ~n ~traces ~symbols ();
      Engine_ref.feed reference ~n ~traces ~symbols ();
      check "product = reference after a restore outside the product" true
        (observe_product eng ~n:50
        = observe_reference reference ~n:50 ~monitors:(Array.length monitors)))

(* --- Semantic oracle ---

   Verdicts checked against the paper's semantics, never through a
   packed DFA: a formula's Büchi automaton, simulated on subsets, says
   whether a prefix still has an extension in L ([Buchi.live_states]).
   A monitor trips at k iff w[0..k) has none and no shorter prefix
   lacks one; and [f & g] trips no later than [f]. On infinite words,
   through lasso membership in the closure automaton [Closure.bcl]: a
   lasso never trips iff it lies in lcl(L), and an admissible
   retirement leaves only extensions in lcl(L). *)

let oracle_valuation symbol p = String.equal p "a" && symbol = 0

(* The first k at which w[0..k) has no extension in L(f), if any. *)
let oracle_trip f =
  let b = Translate.translate ~alphabet:2 ~valuation:oracle_valuation f in
  let live = Buchi.live_states b in
  let alive set = List.exists (fun q -> live.(q)) set in
  let rec go k set = function
    | _ when not (alive set) -> Some k
    | [] -> None
    | s :: rest ->
        let next =
          List.sort_uniq compare
            (List.concat_map (fun q -> b.Buchi.delta.(q).(s)) set)
        in
        go (k + 1) next rest
  in
  fun w -> go 0 [ b.Buchi.start ] w

let gen_small_formula =
  QCheck.Gen.(
    int_range 1 6
    >>= fix (fun self n ->
            if n <= 1 then
              oneofl [ Formula.True; Formula.False; Formula.Prop "a" ]
            else
              let sub = self (n / 2) in
              oneof
                [ map (fun f -> Formula.Not f) sub;
                  map (fun f -> Formula.Next f) sub;
                  map (fun f -> Formula.Eventually f) sub;
                  map (fun f -> Formula.Always f) sub;
                  map2 (fun a b -> Formula.And (a, b)) sub sub;
                  map2 (fun a b -> Formula.Or (a, b)) sub sub;
                  map2 (fun a b -> Formula.Until (a, b)) sub sub;
                  map2 (fun a b -> Formula.Release (a, b)) sub sub ]))

let gen_bits lo hi = QCheck.Gen.(list_size (int_range lo hi) (int_range 0 1))

(* Formulas whose first bad prefix can come late, all within the
   tableau's closure cap: [G !w] for a word [w] of up to 9 letters
   (symbol 0 is [a]), the response [G (a -> X^k !a)], and [X^j G !w]
   with nested [X]. *)
let word_formula w =
  let lit s = if s = 0 then Formula.Prop "a" else Formula.Not (Formula.Prop "a") in
  let rec conj = function
    | [] -> Formula.True
    | [ s ] -> lit s
    | s :: rest -> Formula.And (lit s, Formula.Next (conj rest))
  in
  Formula.Always (Formula.Not (conj w))

let rec nexts k f = if k = 0 then f else Formula.Next (nexts (k - 1) f)

let gen_late_formula =
  QCheck.Gen.(
    oneof
      [ map word_formula (gen_bits 3 9);
        map
          (fun k ->
            Formula.Always
              (Formula.Implies
                 (Formula.Prop "a", nexts k (Formula.Not (Formula.Prop "a")))))
          (int_range 2 6);
        map2 (fun j w -> nexts j (word_formula w)) (int_range 1 8) (gen_bits 2 5) ])

(* A case: random small formulas (checked with their pairwise
   conjunctions), late formulas, and words of up to 64 letters. The
   last word is [b^p · w · tail] with p >= 33 and an [a] in [w], so
   [G !w], the last formula, first trips there, after position 33. *)
let gen_oracle_case =
  QCheck.Gen.(
    let* small = list_size (int_range 2 4) gen_small_formula in
    let* late = list_size (int_range 1 3) gen_late_formula in
    let* words = list_size (int_range 1 6) (gen_bits 0 64) in
    let* p = int_range 33 48 in
    let* w = gen_bits 3 6 in
    let w = 0 :: List.tl w in
    let* tail = gen_bits 0 10 in
    return
      ( small,
        late @ [ word_formula w ],
        words @ [ List.init p (fun _ -> 1) @ w @ tail ] ))

let print_oracle_case (small, late, words) =
  Printf.sprintf "%s | %s | %s"
    (String.concat "; " (List.map Formula.to_string small))
    (String.concat "; " (List.map Formula.to_string late))
    (String.concat " "
       (List.map (fun w -> String.concat "" (List.map string_of_int w)) words))

(* The engine's trips, passed through [filter] (the identity but in the
   mutation check), against the oracle's, and [f & g] tripping no later
   than [f] for the small formulas. *)
let oracle_agrees ?(filter = Fun.id) (small, late, words) =
  let conj =
    List.concat_map
      (fun f -> List.map (fun g -> (f, g, Formula.And (f, g))) small)
      small
  in
  let all = small @ late @ List.map (fun (_, _, c) -> c) conj in
  let reg = Registry.create () in
  let ids = List.map (fun f -> Registry.add_formula reg f) all in
  let eng = Engine.create ~monitors:(Registry.monitors reg) () in
  List.iteri
    (fun trace w -> List.iter (fun symbol -> Engine.step eng ~trace ~symbol) w)
    words;
  let trip trace id =
    filter
      (match
         Engine.verdict eng ~trace ~monitor:(Registry.monitor_of_prop reg id)
       with
      | Engine.Violation { position } -> Some position
      | Engine.Admissible | Engine.Vacuous -> None)
  in
  let table = List.combine all ids in
  let oracles = List.map2 (fun f id -> (id, oracle_trip f)) all ids in
  List.for_all2
    (fun trace w ->
      List.for_all (fun (id, oracle) -> trip trace id = oracle w) oracles
      && List.for_all
           (fun (f, _, c) ->
             match (trip trace (List.assoc f table), trip trace (List.assoc c table)) with
             | Some kf, Some kc -> kc <= kf
             | Some _, None -> false
             | None, _ -> true)
           conj)
    (List.init (List.length words) Fun.id)
    words

let prop_semantic_oracle =
  QCheck.Test.make ~name:"trips = first prefix with no extension in L"
    ~count:60
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun case -> oracle_agrees case)

(* The oracle must see late trips: with every trip past position k
   dropped from the engine's verdicts, it fails for each k in
   {8, 16, 32}, on the case of every seed. *)
let test_oracle_sees_late_trips () =
  for seed = 0 to 9 do
    let case =
      QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen_oracle_case
    in
    check (Printf.sprintf "seed %d: the oracle agrees" seed) true
      (oracle_agrees case);
    List.iter
      (fun k ->
        let filter = function Some p when p > k -> None | t -> t in
        check
          (Printf.sprintf "seed %d: trips past %d dropped are caught" seed k)
          false (oracle_agrees ~filter case))
      [ 8; 16; 32 ]
  done

(* The closure side of Theorem 2: L(bcl(B_f)) = lcl(L(f)), decided by
   lasso membership in the closure of [f]'s translated automaton. *)
let closure_of f =
  Closure.bcl (Translate.translate ~alphabet:2 ~valuation:oracle_valuation f)

let print_formulas fs = String.concat "; " (List.map Formula.to_string fs)

(* A fleet of [fs] in a fresh registry: the engine over its monitors,
   and each formula with its distinct monitor. *)
let oracle_fleet fs =
  let reg = Registry.create () in
  let ids = List.map (Registry.add_formula reg) fs in
  let monitors = Registry.monitors reg in
  (monitors, List.map2 (fun f id -> (f, Registry.monitor_of_prop reg id)) fs ids)

(* A lasso u·v^ω lies in lcl(L) iff the monitor never trips on it. Its
   run repeats a state at a block boundary within n + 1 blocks of v
   (n = the monitor's packed state count), so u·v^(n+1) reaches every
   state the infinite run visits: the trip, if there is one. *)
let prop_lasso_oracle =
  QCheck.Test.make ~name:"a lasso never trips iff it lies in lcl(L)" ~count:80
    QCheck.(
      pair
        (make ~print:print_formulas
           Gen.(list_size (int_range 1 4) gen_small_formula))
        (make
           Gen.(list_size (int_range 1 8) (pair (gen_bits 0 8) (gen_bits 1 4)))))
    (fun (fs, lassos) ->
      let monitors, fleet = oracle_fleet fs in
      let n =
        Array.fold_left (fun a pd -> max a pd.Packed_dfa.nstates) 0 monitors
      in
      let eng = Engine.create ~monitors () in
      List.iteri
        (fun trace (u, v) ->
          List.iter
            (fun symbol -> Engine.step eng ~trace ~symbol)
            (u @ List.concat (List.init (n + 1) (fun _ -> v))))
        lassos;
      List.for_all
        (fun (f, monitor) ->
          let closure = closure_of f in
          List.for_all Fun.id
            (List.mapi
               (fun trace (u, v) ->
                 let tripped =
                   match Engine.verdict eng ~trace ~monitor with
                   | Engine.Violation _ -> true
                   | Engine.Admissible | Engine.Vacuous -> false
                 in
                 tripped
                 <> Buchi.accepts_lasso closure
                      (Lasso.make ~prefix:u ~cycle:v))
               lassos))
        fleet)

(* A monitor that retires admissible at k has every extension of
   w[0..k) in lcl(L): checked on sampled lasso extensions x·y^ω. *)
let prop_retirement_oracle =
  QCheck.Test.make
    ~name:"admissible retirement at k: w[0..k) extends only into lcl(L)"
    ~count:40
    QCheck.(
      triple
        (make ~print:print_formulas
           Gen.(list_size (int_range 1 4) gen_small_formula))
        (make Gen.(list_size (int_range 1 6) (gen_bits 0 12)))
        (make
           Gen.(list_size (int_range 1 6) (pair (gen_bits 0 4) (gen_bits 1 3)))))
    (fun (fs, words, extensions) ->
      let monitors, fleet = oracle_fleet fs in
      let eng = Engine.create ~monitors () in
      let retired = ref [] in
      Engine.set_retire_hook eng
        (Some
           (fun ~trace ~monitor ~position ~tripped ->
             if not tripped then retired := (trace, monitor, position) :: !retired));
      List.iteri
        (fun trace w -> List.iter (fun symbol -> Engine.step eng ~trace ~symbol) w)
        words;
      List.for_all
        (fun (trace, monitor, k) ->
          let prefix = List.filteri (fun i _ -> i < k) (List.nth words trace) in
          List.for_all
            (fun (f, _) ->
              let closure = closure_of f in
              List.for_all
                (fun (x, y) ->
                  Buchi.accepts_lasso closure
                    (Lasso.make ~prefix:(prefix @ x) ~cycle:y))
                extensions)
            (List.filter (fun (_, m) -> m = monitor) fleet))
        !retired)

(* --- The interner's word-wise probe ---

   A known id is compared with its candidate a word at a time, the last
   partial word masked, and a byte at a time only where a word load
   would pass the end of a string's block. Each case is a stream whose
   ids stress one of those paths, scanned in two blocks split at every
   byte, each block its own string of exactly its length (so a load
   near a block's end really is near the end of its heap block). The
   scan must equal the reference reader's, and both must equal the
   interning computed here by plain string equality, so a probe that
   conflated two ids would fail even though the reference interns
   through the same table. *)
let drive_blocks ~alphabet s k =
  let ing = Ingest.create () in
  let events = ref [] and errors = ref [] in
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
  let n = String.length s in
  Ingest.scan_string sc (String.sub s 0 k) 0 k;
  Ingest.scan_string sc (String.sub s k (n - k)) 0 (n - k);
  Ingest.scan_eof sc;
  (Array.to_list (Ingest.names ing), List.rev !events, List.rev !errors)

(* Names in first-seen order and the events as (name index, symbol),
   by string equality alone. *)
let first_seen events =
  let index = Hashtbl.create 16 and names = ref [] in
  let evs =
    List.map
      (fun (name, sym) ->
        match Hashtbl.find_opt index name with
        | Some i -> (i, sym)
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.add index name i;
            names := name :: !names;
            (i, sym))
      events
  in
  (List.rev !names, evs)

let check_interner_case what events ~pad =
  let s =
    String.concat ""
      (List.mapi
         (fun i (name, sym) ->
           Printf.sprintf "%s%s %d\n" (String.make (i * pad mod 8) ' ') name
             sym)
         events)
  in
  let names, evs = first_seen events in
  let reference = drive_reference ~alphabet:2 s in
  check (what ^ ": reference = string equality") true
    (reference = (names, evs, []));
  for k = 0 to String.length s do
    if drive_blocks ~alphabet:2 s k <> (names, evs, []) then
      Alcotest.failf "%s: split at %d differs from the reference" what k
  done;
  (* [intern] on whole strings is the same probe *)
  let ing = Ingest.create () in
  List.iter2
    (fun (name, _) (id, _) ->
      check_int (what ^ ": intern " ^ name) id (Ingest.intern ing name))
    events evs

(* Token bytes an id may hold: all but the separators and the newline
   ('#' only past an id's first byte, where it would start a comment). *)
let id_bytes =
  List.filter
    (fun c -> not (List.mem c [ ' '; '\t'; '\r'; '\n' ]))
    (List.init 256 Char.chr)

let test_interner_cases () =
  let base len =
    String.init len (fun i -> Char.chr (Char.code 'a' + (i mod 26)))
  in
  (* ids of length 1-24 differing only in their last byte, each seen
     twice: the most ids of one length whose home slot in a fresh
     (64-slot) table is the same — by the packed key's multiply up to 7
     bytes, by FNV-1a past that — so each probe steps past mismatched
     candidates of equal length, then two ids of other homes *)
  for len = 1 to 24 do
    let cands =
      List.filter_map
        (fun c ->
          if len = 1 && c = '#' then None
          else Some (base (len - 1) ^ String.make 1 c))
        id_bytes
    in
    let fresh = Ingest.create () in
    let by_home = Hashtbl.create 64 in
    List.iter
      (fun id -> Hashtbl.add by_home (Ingest.home_slot fresh id) id)
      (List.rev cands);
    let same =
      Hashtbl.fold
        (fun h _ best ->
          let ids = Hashtbl.find_all by_home h in
          if List.length ids > List.length best then ids else best)
        by_home []
    in
    if List.length same < 3 then
      Alcotest.failf "length %d: no three ids share a home slot" len;
    let same = List.filteri (fun i _ -> i < 4) same in
    let home = Ingest.home_slot fresh (List.hd same) in
    let others =
      List.filteri (fun i _ -> i < 2)
        (List.filter (fun id -> Ingest.home_slot fresh id <> home) cands)
    in
    let ids = same @ others in
    let events =
      List.concat_map
        (fun r -> List.mapi (fun j id -> (id, (r + j) mod 2)) ids)
        [ 0; 1 ]
    in
    check_interner_case (Printf.sprintf "same home, length %d" len) events
      ~pad:(len mod 3 + 1)
  done;
  (* [u] and [u ^ "\000"] pack to the same bytes and differ only in
     length, which the key holds, so their homes differ. Fillers homed
     on every slot from [u]'s home up to the other's push whichever of
     the two comes first onto the other's home, where the other's probe
     meets it at once. *)
  for len = 1 to 6 do
    let u = base len in
    let v = u ^ "\000" in
    let fresh = Ingest.create () in
    let home = Ingest.home_slot fresh in
    let need =
      List.init ((home v - home u) land 63) (fun k -> (home u + k) land 63)
    in
    let fillers =
      List.filter_map
        (fun j ->
          List.find_map
            (fun k ->
              let f = Printf.sprintf "F%03d" k in
              if home f = j then Some f else None)
            (List.init 1000 Fun.id))
        need
    in
    check_int (Printf.sprintf "length %d: a filler per slot" len)
      (List.length need) (List.length fillers);
    let case first second =
      List.map (fun f -> (f, 0)) fillers
      @ [ (first, 0); (second, 1); (first, 1); (second, 0) ]
    in
    check_interner_case (Printf.sprintf "NUL-extended id, length %d" len)
      (case u v) ~pad:2;
    check_interner_case (Printf.sprintf "NUL-extended id first, length %d" len)
      (case v u) ~pad:1
  done;
  (* one id a prefix of another, both ways round, across word bounds *)
  let prefixes =
    List.concat_map
      (fun (a, b) -> [ (base a, 0); (base b, 1); (base a, 1); (base b, 0) ])
      [ (1, 2); (7, 8); (8, 9); (8, 16); (15, 16); (16, 17); (3, 24) ]
  in
  check_interner_case "prefix ids" prefixes ~pad:1;
  check_interner_case "prefix ids, shifted" (List.rev prefixes) ~pad:3;
  (* short lines packed so that ids end at every offset from a block's
     end: the splits put ids on the last byte of the first block and
     complete them in the carry *)
  check_interner_case "short ids at block ends"
    (List.init 40 (fun i -> (base (1 + (i mod 5)), i mod 2)))
    ~pad:0

(* The feed's allocation gauges count the engine alone: an engine whose
   retire hook allocates reports the same [engine_minor_words_total]
   and [engine_minor_words_per_event] as the same engine, fed the same
   chunks, without a hook. *)
let test_hook_words_left_out () =
  let reg = Registry.create () in
  check "props load" true
    (Registry.load_lines reg
       [ "G a"; "F !a"; "a & F !a"; "G (a -> X !a)"; "a & !a"; "!a" ]
    = []);
  let st = Random.State.make [| 11 |] in
  let n = 3000 in
  let traces = Array.init n (fun _ -> Random.State.int st 200) in
  let symbols = Array.init n (fun _ -> Random.State.int st 2) in
  let fired = ref 0 in
  let run hook =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () -> Obs.disable (); Obs.reset ())
      (fun () ->
        let eng = Engine.create ~monitors:(Registry.monitors reg) () in
        Engine.set_retire_hook eng hook;
        let per_chunk = ref [] in
        for c = 0 to (n / 100) - 1 do
          Engine.feed eng ~off:(c * 100) ~n:100 ~traces ~symbols ();
          per_chunk :=
            Option.get (Obs.Metrics.value "engine_minor_words_per_event")
            :: !per_chunk
        done;
        (Option.get (Obs.Metrics.value "engine_minor_words_total"),
         !per_chunk))
  in
  let dark = run None in
  let lit =
    run
      (Some
         (fun ~trace ~monitor ~position ~tripped ->
           incr fired;
           ignore
             (Sys.opaque_identity
                (List.init 16 (fun i ->
                     (trace, monitor + i, position, tripped))))))
  in
  check "the hook fired" true (!fired > 100);
  check_int "engine_minor_words_total" (fst dark) (fst lit);
  Alcotest.(check (list int))
    "engine_minor_words_per_event, chunk by chunk" (snd dark) (snd lit)

(* --- The scan's word step ---

   [scan_event] starts a line with one 8-byte load and takes a line
   [ID SP D NL] with a 1-7 byte id from that word and two more bytes;
   every other line falls back to the byte walk where the word leaves
   off. The random streams below mix both: ids of every length from 1
   to 24 bytes, holding bytes >= 0x80 and token-class control bytes
   (where the word's first byte <= 0x20 is not a separator), '#' at an
   id's start (a comment) and inside one, and symbols of one digit,
   several, with leading zeros, out of the alphabet or not decimal.
   Scanned in two blocks split at every byte, each its own string, the
   lines near a split end in a block's last 8 bytes. *)
let gen_word_stream =
  let open QCheck.Gen in
  let id_byte =
    frequency
      [ (8, map Char.chr (int_range (Char.code 'a') (Char.code 'z')));
        (2, map Char.chr (int_range 0x80 0xff));
        (1, oneofl [ '\001'; '\031'; '\000'; '#' ]) ]
  in
  let id =
    int_range 1 24 >>= fun len ->
    string_size ~gen:id_byte (return len) >>= fun id ->
    frequency [ (6, return id); (1, return ("#" ^ id)) ]
  in
  let symbol =
    frequency
      [ (6, map string_of_int (int_range 0 9));
        (2, oneofl [ "10"; "00"; "007"; "11"; "99" ]);
        (1, oneofl [ "x"; "-1"; "1x"; "+1"; "99999999999999999999" ]) ]
  in
  let sep = frequency [ (8, return " "); (1, oneofl [ "\t"; "  "; " \r" ]) ] in
  let line =
    frequency
      [ (12, map3 (fun i p d -> i ^ p ^ d) id sep symbol);
        (1, map (fun i -> "  " ^ i ^ " 1") id);
        (1, map (fun i -> i ^ " 1 0") id);
        (1, id);
        (1, return "") ]
  in
  list_size (int_range 0 10) line >>= fun lines ->
  bool >|= fun nl -> String.concat "\n" lines ^ if nl then "\n" else ""

let prop_word_step_equals_reference =
  QCheck.Test.make ~name:"word step = reference parser (every split)"
    ~count:200
    (QCheck.make ~print:String.escaped gen_word_stream)
    (fun s ->
      let reference = drive_reference ~alphabet:11 s in
      let ok = ref true in
      for k = 0 to String.length s do
        if drive_blocks ~alphabet:11 s k <> reference then ok := false
      done;
      !ok)

(* Scanning a block of known ids allocates nothing per event: the word
   step's [Int64] arithmetic stays unboxed. The block holds whole lines
   only (no carry), in perfbench's shape and with 12-byte ids. *)
let test_word_step_no_alloc () =
  let ing = Ingest.create () in
  let sc =
    Ingest.scanner ~chunk_size:64 ~alphabet:2 ing ~on_chunk:ignore
      ~on_error:(fun _ -> Alcotest.fail "unexpected error")
  in
  let block =
    String.concat ""
      (List.init 2000 (fun i ->
           if i mod 3 = 0 then
             Printf.sprintf "lng%09d %d\n" (i mod 97) (i land 1)
           else Printf.sprintf "t%05d %d\n" (i mod 300) (i land 1)))
  in
  Ingest.scan_string sc block 0 (String.length block);
  let known = Ingest.ntraces ing in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let baseline = words ignore in
  let scanned =
    words (fun () ->
        for _ = 1 to 10 do
          Ingest.scan_string sc block 0 (String.length block)
        done)
  in
  check_int "no new id" known (Ingest.ntraces ing);
  check "0 minor words over 20000 events" true (scanned = baseline)

let tests =
  [ Alcotest.test_case "packed compilation" `Quick test_packed_shape;
    Alcotest.test_case "vacuity on Rem p0-p6" `Quick
      test_vacuity_rem_examples;
    Alcotest.test_case "trip survives the batch tail" `Quick
      test_trip_survives_batch_tail;
    Alcotest.test_case "fresh trace after a trip" `Quick
      test_fresh_trace_after_trip;
    QCheck_alcotest.to_alcotest prop_engine_agrees_with_monitor;
    QCheck_alcotest.to_alcotest prop_shortest_bad_prefix_trips;
    QCheck_alcotest.to_alcotest prop_engine_batched_equals_stepwise;
    Alcotest.test_case "interleaved traces" `Quick
      test_engine_interleaved_traces;
    Alcotest.test_case "retirement, then a fresh trace" `Quick
      test_engine_retirement;
    Alcotest.test_case "same-event retirements in monitor order" `Quick
      test_same_event_retirement_order;
    Alcotest.test_case "registry hash-consing" `Quick
      test_registry_hash_consing;
    Alcotest.test_case "registry skips malformed lines" `Quick
      test_registry_malformed_lines;
    Alcotest.test_case "registry skips an over-cap line" `Quick
      test_registry_over_cap_line;
    Alcotest.test_case "registry translates each distinct formula once"
      `Quick test_registry_memo;
    QCheck_alcotest.to_alcotest prop_registry_memo_invariant;
    Alcotest.test_case "trace-line parser" `Quick test_parse_line;
    Alcotest.test_case "chunked ingestion" `Quick test_ingest_chunks;
    Alcotest.test_case "zero-copy scanner boundaries" `Quick
      test_scanner_boundaries;
    QCheck_alcotest.to_alcotest prop_scanner_equals_reference;
    Alcotest.test_case "fused megatable layout" `Quick test_fuse_megatable;
    Alcotest.test_case "end-to-end report" `Quick test_end_to_end_report;
    QCheck_alcotest.to_alcotest prop_live_census_exact;
    QCheck_alcotest.to_alcotest prop_product_equals_reference;
    Alcotest.test_case "restore outside the start product"
      `Quick test_restore_outside_product;
    QCheck_alcotest.to_alcotest prop_semantic_oracle;
    Alcotest.test_case "the oracle sees late trips" `Quick
      test_oracle_sees_late_trips;
    QCheck_alcotest.to_alcotest prop_lasso_oracle;
    QCheck_alcotest.to_alcotest prop_retirement_oracle;
    Alcotest.test_case "interner: word-wise probe cases" `Quick
      test_interner_cases;
    Alcotest.test_case "allocation gauges leave the hook out" `Quick
      test_hook_words_left_out;
    QCheck_alcotest.to_alcotest prop_word_step_equals_reference;
    Alcotest.test_case "word step allocates nothing" `Quick
      test_word_step_no_alloc ]
