(* The session layer: snapshot/restore of the runtime's mutable state.

   The contract under test is byte-identical continuation — feed k
   events, snapshot, restore in a fresh session (warm or cold
   registry), feed the rest, and the verdict report is the same string
   the uninterrupted run renders, for every k. The adversarial half is
   the codec: hostile bytes against every sl-artifact decoder in the
   tree may only read as Corrupt/None/Error, never escape as an
   Invalid_argument or out-of-bounds crash, and a snapshot from a
   structurally different registry must refuse to restore. *)

module Wire = Sl_core.Wire
module Digraph = Sl_core.Digraph
module Buchi = Sl_buchi.Buchi
module Formula = Sl_ltl.Formula
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry
module Cache = Sl_runtime.Cache
module Pack = Sl_runtime.Pack
module Engine = Sl_runtime.Engine
module Ingest = Sl_runtime.Ingest
module Session = Sl_runtime.Session
module Verdict = Sl_runtime.Verdict

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_dir () =
  let f = Filename.temp_file "slc-session-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let props_src = [ "G a"; "a & F !a"; "G (a -> X !a)"; "G F a"; "G a" ]
let named = List.map (fun s -> (Some s, Formula.parse_exn s)) props_src

let mk_registry ?cache () =
  let r = Registry.create ~alphabet:2 ?cache () in
  ignore (Registry.compile_all ~jobs:1 r named);
  r

(* One registry for the whole module: it is immutable once compiled and
   every test only reads it. *)
let registry = lazy (mk_registry ())

(* Feed (trace name, symbol) events one by one through the session's
   own interner — the ingestion path minus the line protocol. *)
let feed_events session events =
  let ingest = Session.ingest session in
  let engine = Session.engine session in
  List.iter
    (fun (name, sym) ->
      Engine.step engine ~trace:(Ingest.intern ingest name) ~symbol:sym)
    events

(* The same events as one batched chunk. *)
let feed_events_chunk session events =
  let ingest = Session.ingest session in
  let engine = Session.engine session in
  let arr = Array.of_list events in
  let traces = Array.map (fun (n, _) -> Ingest.intern ingest n) arr in
  let symbols = Array.map snd arr in
  Engine.feed engine ~n:(Array.length arr) ~traces ~symbols ()

let report session = Verdict.to_json (Verdict.of_session session ())

let counters session =
  let e = Session.engine session in
  (Engine.events e, Engine.tripped e, Engine.retired_admissible e,
   Engine.ntraces e, Engine.live e)

let random_events st n =
  List.init n (fun _ ->
      (Printf.sprintf "t%d" (Random.State.int st 3), Random.State.int st 2))

let rec take k = function
  | x :: tl when k > 0 -> x :: take (k - 1) tl
  | _ -> []

let rec drop k = function
  | _ :: tl when k > 0 -> drop (k - 1) tl
  | l -> l

(* --- Registry fingerprint --- *)

let test_fingerprint_stability () =
  let fp1 = Registry.fingerprint (mk_registry ()) in
  let fp2 = Registry.fingerprint (mk_registry ()) in
  check "recompiling the same props reproduces the fingerprint" true
    (String.equal fp1 fp2);
  (* Cold-with-cache and warm-from-cache registries must agree too:
     resuming under --cache is the main production path. *)
  let dir = fresh_dir () in
  let cold = Registry.fingerprint (mk_registry ~cache:(Cache.create ~dir) ()) in
  let warm = Registry.fingerprint (mk_registry ~cache:(Cache.create ~dir) ()) in
  check "cold-cache fingerprint = uncached" true (String.equal fp1 cold);
  check "warm-cache fingerprint = cold" true (String.equal cold warm)

let test_fingerprint_sensitivity () =
  let fp_of srcs =
    let r = Registry.create ~alphabet:2 () in
    ignore
      (Registry.compile_all ~jobs:1 r
         (List.map (fun s -> (Some s, Formula.parse_exn s)) srcs));
    Registry.fingerprint r
  in
  let base = fp_of [ "G a"; "G F a" ] in
  check "dropping a property changes the fingerprint" true
    (base <> fp_of [ "G a" ]);
  check "reordering properties changes the fingerprint" true
    (base <> fp_of [ "G F a"; "G a" ]);
  check "renaming a property changes the fingerprint" true
    (base <> fp_of [ "G (a)"; "G F a" ]);
  let r3 = Registry.create ~alphabet:3 () in
  ignore
    (Registry.compile_all ~jobs:1 r3
       (List.map (fun s -> (Some s, Formula.parse_exn s)) [ "G a"; "G F a" ]));
  check "alphabet changes the fingerprint" true
    (base <> Registry.fingerprint r3)

(* --- Round trip --- *)

let test_roundtrip () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  feed_events s
    [ ("t1", 0); ("t2", 0); ("t1", 1); ("t2", 0); ("t1", 0); ("t2", 1) ];
  let blob = Session.to_artifact s in
  match Session.of_artifact ~registry blob with
  | Error e -> Alcotest.fail (Session.restore_error_to_string e)
  | Ok s' ->
      check "counters survive" true (counters s = counters s');
      check "interner survives" true
        (Ingest.names (Session.ingest s) = Ingest.names (Session.ingest s'));
      check "report identical" true (String.equal (report s) (report s'));
      (* a fresh name interns after the restored ones, densely *)
      check_int "new trace id continues the dense sequence" 2
        (Ingest.intern (Session.ingest s') "t9")

let test_empty_roundtrip () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  match Session.of_artifact ~registry (Session.to_artifact s) with
  | Error e -> Alcotest.fail (Session.restore_error_to_string e)
  | Ok s' -> check "empty session round-trips" true
      (String.equal (report s) (report s'))

let test_file_roundtrip () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  feed_events s [ ("x", 0); ("y", 1); ("x", 1) ];
  let path = Filename.concat (fresh_dir ()) "run.slsession" in
  Session.save s ~path;
  (match Session.load ~registry ~path () with
  | Error e -> Alcotest.fail (Session.restore_error_to_string e)
  | Ok s' -> check "file round trip" true (String.equal (report s) (report s')));
  (* stomped file loads as Corrupt, not an exception *)
  let oc = open_out_bin path in
  output_string oc "not an sl-artifact";
  close_out oc;
  (match Session.load ~registry ~path () with
  | Error (Session.Corrupt _) -> ()
  | Error (Session.Fingerprint_mismatch _) ->
      Alcotest.fail "garbage misread as fingerprint mismatch"
  | Ok _ -> Alcotest.fail "garbage file restored");
  (* missing file too *)
  match Session.load ~registry ~path:(path ^ ".missing") () with
  | Error (Session.Corrupt _) -> ()
  | _ -> Alcotest.fail "missing file did not load as Corrupt"

(* --- Split-feed equivalence: the PR's acceptance property --- *)

let prop_split_feed_equivalence =
  QCheck.Test.make
    ~name:
      "session: feed k, snapshot, restore (fresh engine), feed rest as \
       one chunk = uninterrupted run"
    ~count:25
    QCheck.(pair (int_range 0 5000) (int_range 0 10_000))
    (fun (seed, kpick) ->
      let registry = Lazy.force registry in
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 60 in
      let events = random_events st n in
      let k = kpick mod (n + 1) in
      let full =
        let s = Session.create ~registry () in
        feed_events s events;
        report s
      in
      let s1 = Session.create ~registry () in
      feed_events s1 (take k events);
      let blob = Session.to_artifact s1 in
      match Session.of_artifact ~registry blob with
      | Error _ -> false
      | Ok s2 ->
          feed_events_chunk s2 (drop k events);
          String.equal (report s2) full)

(* --- Refusal paths --- *)

let test_fingerprint_mismatch_refuses () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  feed_events s [ ("t1", 0); ("t1", 1) ];
  let blob = Session.to_artifact s in
  let other = Registry.create ~alphabet:2 () in
  ignore
    (Registry.compile_all ~jobs:1 other [ (Some "G a", Formula.parse_exn "G a") ]);
  match Session.of_artifact ~registry:other blob with
  | Error (Session.Fingerprint_mismatch { snapshot; registry = reg }) ->
      check "mismatch reports both fingerprints" true (snapshot <> reg);
      check "snapshot side is the saving registry's" true
        (String.equal snapshot (Registry.fingerprint registry))
  | Error (Session.Corrupt m) -> Alcotest.fail ("misread as corrupt: " ^ m)
  | Ok _ -> Alcotest.fail "restored against a different registry"

let reseal s =
  let b = Bytes.of_string s in
  let body_len = Bytes.length b - 8 in
  Bytes.set_int64_le b body_len (Wire.fnv64 (Bytes.sub_string b 0 body_len));
  Bytes.to_string b

let prop_session_corruption_refused =
  QCheck.Test.make
    ~name:"session artifact truncated/flipped: restore = Error, no crash"
    ~count:60
    QCheck.(pair (int_range 0 5000) (int_range 0 100_000))
    (fun (seed, pos) ->
      let registry = Lazy.force registry in
      let st = Random.State.make [| seed |] in
      let s = Session.create ~registry () in
      feed_events s (random_events st (1 + Random.State.int st 20));
      let blob = Session.to_artifact s in
      let cut = String.sub blob 0 (pos mod String.length blob) in
      let flipped =
        let b = Bytes.of_string blob in
        let i = pos mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x11));
        Bytes.to_string b
      in
      List.for_all
        (fun bad ->
          match Session.of_artifact ~registry bad with
          | Error _ -> true
          | Ok _ -> String.equal bad blob (* flip could be a no-op only never *)
          | exception _ -> false)
        [ cut; flipped ])

(* Flip one payload byte and re-seal the checksum, so the blob passes
   framing and exercises the interior validators — forged counts,
   out-of-range states, inconsistent counters must all surface as
   Error Corrupt, never as an escaped exception or an Ok session. *)
let prop_session_reseal_validated =
  QCheck.Test.make
    ~name:"session payload flipped under a valid checksum: Error or \
           equal-report Ok"
    ~count:120
    QCheck.(pair (int_range 0 5000) (int_range 0 100_000))
    (fun (seed, pos) ->
      let registry = Lazy.force registry in
      let st = Random.State.make [| seed |] in
      let s = Session.create ~registry () in
      feed_events s (random_events st (1 + Random.State.int st 20));
      let blob = Session.to_artifact s in
      let body_len = String.length blob - 8 in
      let b = Bytes.of_string blob in
      let i = 13 + (pos mod (body_len - 13)) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (seed mod 8))));
      let bad = reseal (Bytes.to_string b) in
      match Session.of_artifact ~registry bad with
      | Error _ -> true
      | exception _ -> false
      | Ok s' ->
          (* Some payload bytes are genuinely don't-care for the report
             (e.g. high bytes of a small state that stays valid) — but a
             flip that decodes must still decode to a *valid* session
             whose report renders without crashing. *)
          String.length (report s') > 0)

(* --- Satellite: hostile bytes against every decoder in the tree --- *)

let all_decoders registry : (string * (string -> bool)) list =
  let benign f = match f () with _ -> true | exception Wire.Corrupt _ -> true in
  [ ("packed_dfa", fun s -> benign (fun () -> Packed_dfa.of_artifact s));
    ("buchi", fun s -> benign (fun () -> Buchi.of_artifact s));
    ("digraph", fun s -> benign (fun () -> Digraph.of_artifact s));
    ("pack", fun s -> benign (fun () -> Pack.of_artifact s));
    ("session",
     fun s -> benign (fun () -> Session.of_artifact ~registry s)) ]

let prop_hostile_bytes_all_decoders =
  QCheck.Test.make
    ~name:
      "every sl-artifact decoder survives hostile bytes (random, \
       truncated, flipped, resealed) with at worst Wire.Corrupt"
    ~count:150
    QCheck.(triple (int_range 0 5000) (int_range 0 100_000) (int_range 0 3))
    (fun (seed, pos, mode) ->
      let registry = Lazy.force registry in
      let st = Random.State.make [| seed |] in
      (* a pool of valid artifacts of every kind, plus pure noise *)
      let session_blob =
        let s = Session.create ~registry () in
        feed_events s (random_events st (1 + Random.State.int st 10));
        Session.to_artifact s
      in
      let b = Buchi.random ~seed ~alphabet:2 ~nstates:(2 + (seed mod 5))
          ~density:0.3 ~accepting_fraction:0.4 () in
      let bases =
        [| session_blob; Buchi.to_artifact b;
           Packed_dfa.to_artifact (Packed_dfa.of_buchi b);
           Digraph.to_artifact (Buchi.graph b);
           Pack.to_artifact (Pack.of_registry registry) |]
      in
      let base = bases.(Random.State.int st (Array.length bases)) in
      let victim =
        match mode with
        | 0 ->
            String.init (Random.State.int st 200) (fun _ ->
                Char.chr (Random.State.int st 256))
        | 1 -> String.sub base 0 (pos mod String.length base)
        | 2 ->
            let by = Bytes.of_string base in
            let i = pos mod Bytes.length by in
            Bytes.set by i
              (Char.chr (Char.code (Bytes.get by i) lxor (1 lsl (pos mod 8))));
            Bytes.to_string by
        | _ ->
            if String.length base < 22 then base
            else begin
              let by = Bytes.of_string base in
              let body_len = Bytes.length by - 8 in
              let i = 13 + (pos mod (body_len - 13)) in
              Bytes.set by i
                (Char.chr
                   (Char.code (Bytes.get by i) lxor (1 lsl (seed mod 8))));
              reseal (Bytes.to_string by)
            end
      in
      List.for_all (fun (_, dec) -> dec victim) (all_decoders registry))

(* --- Engine externalization invariants --- *)

let test_restore_trace_validates () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  (* "G a" trips on symbol 1; t1 ends with live and tripped monitors *)
  feed_events s [ ("t1", 0); ("t1", 1); ("t1", 0) ];
  let engine = Session.engine s in
  let ts = Option.get (Engine.export_trace engine 0) in
  let target = Session.create ~registry () in
  let te = Session.engine target in
  let rejects what ts' =
    match Engine.restore_trace te 0 ts' with
    | () -> Alcotest.fail (what ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  (* the unmodified export restores fine *)
  Engine.restore_trace te 0 ts;
  check "restored trace exports back identically" true
    (Engine.export_trace te 0 = Some ts);
  rejects "short states array"
    { ts with Engine.ts_states = Array.sub ts.Engine.ts_states 0 1 };
  rejects "state out of the monitor's range"
    { ts with
      Engine.ts_states =
        Array.map (fun _ -> max_int) ts.Engine.ts_states };
  rejects "negative event count" { ts with Engine.ts_events = -1 };
  rejects "trip position beyond the event count"
    { ts with
      Engine.ts_tripped_at =
        Array.map (fun p -> if p >= 0 then ts.Engine.ts_events + 1 else p)
          ts.Engine.ts_tripped_at };
  rejects "duplicate live entry"
    (let l = ts.Engine.ts_live in
     if Array.length l = 0 then { ts with Engine.ts_events = -1 }
     else { ts with Engine.ts_live = Array.append l [| l.(0) |] });
  rejects "monitor both live and tripped"
    (let tripped_m =
       let found = ref (-1) in
       Array.iteri
         (fun m p -> if p >= 0 && !found < 0 then found := m)
         ts.Engine.ts_tripped_at;
       !found
     in
     if tripped_m < 0 then { ts with Engine.ts_events = -1 }
     else
       { ts with
         Engine.ts_live = Array.append ts.Engine.ts_live [| tripped_m |] });
  check "export of an unseen trace is None" true
    (Engine.export_trace engine 99 = None)

let test_set_counters_after_restore () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  feed_events s [ ("t1", 1); ("t2", 0) ];
  let c = counters s in
  match Session.of_artifact ~registry (Session.to_artifact s) with
  | Error e -> Alcotest.fail (Session.restore_error_to_string e)
  | Ok s' ->
      check "counters exact after restore (pre-tripped not double-counted)"
        true
        (counters s' = c)

(* --- Satellite: ingest chunk-boundary and interner pins --- *)

let test_ingest_chunk_boundary () =
  let total = 9000 in
  (* 4096 is the default chunk size; malformed lines sit exactly at the
     first chunk edge (4096, 4097) and just past the second (8193), so
     line accounting must survive flushes. *)
  let malformed = [ 4096; 4097; 8193 ] in
  let line i =
    if i = 4096 then "oops-one-field"
    else if i = 4097 then "t0 -1"
    else if i = 8193 then "t1 notanint"
    else Printf.sprintf "t%d %d" (i mod 5) (i mod 2)
  in
  let next =
    let i = ref 0 in
    fun () ->
      incr i;
      if !i > total then None else Some (line !i)
  in
  let ingest = Ingest.create () in
  let errors = ref [] in
  let chunk_sizes = ref [] in
  let events = ref 0 in
  Ingest.read ~alphabet:2 ingest ~next_line:next
    ~on_chunk:(fun c ->
      chunk_sizes := c.Ingest.len :: !chunk_sizes;
      events := !events + c.Ingest.len)
    ~on_error:(fun e -> errors := e.Ingest.e_line :: !errors);
  check "malformed lines reported with exact line numbers" true
    (List.rev !errors = malformed);
  check_int "every well-formed line became an event" (total - 3) !events;
  check "chunks flush at exactly the chunk size" true
    (List.rev !chunk_sizes = [ 4096; 4096; total - 3 - 8192 ]);
  check_int "trace ids interned densely" 5 (Ingest.ntraces ingest);
  (* first-seen order: line 1 is "t1 1", line 2 "t2 0", ... line 5 "t0 1" *)
  check "first-seen order" true
    (Ingest.names ingest = [| "t1"; "t2"; "t3"; "t4"; "t0" |])

let test_interner_roundtrip_through_codec () =
  let registry = Lazy.force registry in
  let s = Session.create ~registry () in
  let lines = [ "zeta 0"; "alpha 1"; "zeta 1"; "mid 0"; "alpha 0" ] in
  let next =
    let rest = ref lines in
    fun () ->
      match !rest with [] -> None | l :: tl -> rest := tl; Some l
  in
  Ingest.read ~alphabet:2 (Session.ingest s) ~next_line:next
    ~on_chunk:(fun c ->
      Engine.feed (Session.engine s) ~n:c.Ingest.len ~traces:c.Ingest.trace_ids
        ~symbols:c.Ingest.symbols ())
    ~on_error:(fun _ -> Alcotest.fail "unexpected ingest error");
  match Session.of_artifact ~registry (Session.to_artifact s) with
  | Error e -> Alcotest.fail (Session.restore_error_to_string e)
  | Ok s' ->
      let i' = Session.ingest s' in
      check "names survive in first-seen order" true
        (Ingest.names i' = [| "zeta"; "alpha"; "mid" |]);
      check_int "re-interning an old name keeps its id" 1
        (Ingest.intern i' "alpha");
      check_int "a new name takes the next dense id" 3
        (Ingest.intern i' "omega")

let tests =
  [ Alcotest.test_case "fingerprint is stable across recompiles and caches"
      `Quick test_fingerprint_stability;
    Alcotest.test_case "fingerprint is structure-sensitive" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "session round trip" `Quick test_roundtrip;
    Alcotest.test_case "empty session round trip" `Quick test_empty_roundtrip;
    Alcotest.test_case "session file round trip (corrupt/missing = Error)"
      `Quick test_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_split_feed_equivalence;
    Alcotest.test_case "restore refuses a different registry" `Quick
      test_fingerprint_mismatch_refuses;
    QCheck_alcotest.to_alcotest prop_session_corruption_refused;
    QCheck_alcotest.to_alcotest prop_session_reseal_validated;
    QCheck_alcotest.to_alcotest prop_hostile_bytes_all_decoders;
    Alcotest.test_case "restore_trace validates every field" `Quick
      test_restore_trace_validates;
    Alcotest.test_case "counters exact after restore" `Quick
      test_set_counters_after_restore;
    Alcotest.test_case "ingest pins: chunk-boundary lines and dense interning"
      `Quick test_ingest_chunk_boundary;
    Alcotest.test_case "interner round-trips through the session codec"
      `Quick test_interner_roundtrip_through_codec ]
