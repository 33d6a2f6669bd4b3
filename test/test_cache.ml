(* The sl-artifact/1 container, monitor packs and the atomic publish.

   Two kinds of artifact are written: monitor packs and session
   snapshots. The pack round trip is the monitor contract:
   decode(encode x) must be structurally identical to the freshly
   compiled monitors, including every *derived* field (can_trip,
   pre_tripped, vacuous), since those are recomputed on decode. The
   corruption pins are the invalidation contract, on both kinds:
   truncation, bit flips, stale format versions and kind confusion must
   all read as an [Error], never as an exception or a wrong value. *)

module Wire = Sl_core.Wire
module Buchi = Sl_buchi.Buchi
module Formula = Sl_ltl.Formula
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry
module Pack = Sl_runtime.Pack
module Session = Sl_runtime.Session
module Engine = Sl_runtime.Engine
module Ingest = Sl_runtime.Ingest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_dir () =
  let f = Filename.temp_file "slc-artifact-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let random_buchi seed =
  Buchi.random ~seed ~alphabet:2
    ~nstates:(2 + (seed mod 7))
    ~density:0.3 ~accepting_fraction:0.4 ()

(* One to four random automata: a pack of several monitors, fewer when
   two hash-cons to one. *)
let random_registry seed =
  let r = Registry.create ~alphabet:2 () in
  for i = 0 to seed mod 4 do
    ignore
      (Registry.add_buchi r ~name:(Printf.sprintf "b%d" i)
         (random_buchi (seed + (i * 5001))))
  done;
  r

let random_pack seed = Pack.of_registry (random_registry seed)

(* A session over a random registry after a few random events. *)
let random_session seed =
  let s = Session.create ~registry:(random_registry seed) () in
  let st = Random.State.make [| seed |] in
  for _ = 0 to Random.State.int st 12 do
    Engine.step (Session.engine s)
      ~trace:(Ingest.intern (Session.ingest s)
                (Printf.sprintf "t%d" (Random.State.int st 3)))
      ~symbol:(Random.State.int st 2)
  done;
  s

let packed_equal (a : Packed_dfa.t) (b : Packed_dfa.t) =
  a.Packed_dfa.alphabet = b.Packed_dfa.alphabet
  && a.Packed_dfa.nstates = b.Packed_dfa.nstates
  && a.Packed_dfa.trans = b.Packed_dfa.trans
  && a.Packed_dfa.accepting = b.Packed_dfa.accepting
  && a.Packed_dfa.can_trip = b.Packed_dfa.can_trip
  && a.Packed_dfa.pre_tripped = b.Packed_dfa.pre_tripped
  && a.Packed_dfa.vacuous = b.Packed_dfa.vacuous
  && String.equal a.Packed_dfa.key b.Packed_dfa.key

(* --- Round trip --- *)

let prop_packed_roundtrip =
  QCheck.Test.make
    ~name:"packed_dfa: decode(encode x) = x (derived fields included)"
    ~count:50
    QCheck.(int_range 0 5000)
    (fun seed ->
      let pk = random_pack seed in
      match Pack.of_artifact (Pack.to_artifact pk) with
      | Ok pk' ->
          pk.Pack.props = pk'.Pack.props
          && Array.length pk.Pack.monitors = Array.length pk'.Pack.monitors
          && Array.for_all2 packed_equal pk.Pack.monitors pk'.Pack.monitors
      | Error _ -> false)

(* --- Corruption: every defect decodes as an Error, never a crash --- *)

(* A blob of each kind for [seed], with "decodes as itself" for it. *)
let blobs seed =
  let s = random_session seed in
  let registry = Session.registry s in
  [ ( "pack",
      Pack.to_artifact (random_pack seed),
      fun b -> Result.is_ok (Pack.of_artifact b) );
    ( "session",
      Session.to_artifact s,
      fun b ->
        match Session.of_artifact ~registry b with
        | Ok _ -> true
        | Error (Session.Corrupt _) -> false
        | Error (Session.Fingerprint_mismatch _) ->
            Alcotest.fail "corruption misread as a fingerprint mismatch" ) ]

let prop_truncation_is_miss =
  QCheck.Test.make
    ~name:"artifact truncated at any byte: decode = Error" ~count:60
    QCheck.(pair (int_range 0 500) (int_range 0 10_000))
    (fun (seed, cut) ->
      List.for_all
        (fun (_, s, decodes) ->
          not (decodes (String.sub s 0 (cut mod String.length s))))
        (blobs seed))

let prop_bitflip_is_miss =
  QCheck.Test.make ~name:"artifact with one flipped byte: decode = Error"
    ~count:60
    QCheck.(pair (int_range 0 500) (int_range 0 10_000))
    (fun (seed, pos) ->
      List.for_all
        (fun (_, s, decodes) ->
          let b = Bytes.of_string s in
          let i = pos mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          (* Every FNV-1a step is a bijection of the running hash, so
             any single-byte change is guaranteed (not just likely) to
             fail the checksum — or, for a trailer byte, to disagree
             with it. *)
          not (decodes (Bytes.to_string b)))
        (blobs seed))

(* Rewrite an artifact's version byte and re-seal the checksum: the
   decoder must reject it on the version field itself, which is the
   upgrade story — a version-k pack or snapshot is refused by a
   version-k+1 build, never misread. *)
let reversion s version =
  let b = Bytes.of_string s in
  Bytes.set b 11 (Char.chr version);
  let body_len = Bytes.length b - 8 in
  let h = Wire.fnv64 (Bytes.sub_string b 0 body_len) in
  Bytes.set_int64_le b body_len h;
  Bytes.to_string b

let test_stale_version_is_miss () =
  List.iter
    (fun (kind, s, decodes) ->
      check (kind ^ " self-check: unmodified artifact decodes") true
        (decodes s);
      check (kind ^ " version+1 with a valid checksum is rejected") false
        (decodes (reversion s (Wire.format_version + 1)));
      check (kind ^ " version 0 with a valid checksum is rejected") false
        (decodes (reversion s 0)))
    (blobs 7)

let test_kind_confusion_is_miss () =
  match blobs 7 with
  | [ (_, pack, pack_decodes); (_, session, session_decodes) ] ->
      check "a pack is not a session" false (session_decodes pack);
      check "a session is not a pack" false (pack_decodes session);
      check "each still decodes as itself" true
        (pack_decodes pack && session_decodes session)
  | _ -> assert false

(* --- Monitor packs --- *)

let props_src =
  [ "a"; "a & F !a"; "G F a"; "G (a -> X !a)"; "F G !a"; "G a"; "a" ]

let named_props =
  List.map (fun s -> (Some s, Formula.parse_exn s)) props_src

let test_pack_roundtrip () =
  let r = Registry.create ~alphabet:2 () in
  ignore (Registry.compile_all r named_props);
  let pk = Pack.of_registry r in
  check_int "pack keeps every property" (Registry.nprops r)
    (Array.length pk.Pack.props);
  check_int "pack keeps the distinct monitors" (Registry.nmonitors r)
    (Array.length pk.Pack.monitors);
  (match Pack.of_artifact (Pack.to_artifact pk) with
  | Error e -> Alcotest.fail ("pack round trip: " ^ e)
  | Ok pk' ->
      check "alphabet survives" true (pk.Pack.alphabet = pk'.Pack.alphabet);
      check "props survive" true (pk.Pack.props = pk'.Pack.props);
      check "monitors survive" true
        (Array.for_all2 packed_equal pk.Pack.monitors pk'.Pack.monitors));
  (* file round trip through the atomic writer *)
  let path = Filename.concat (fresh_dir ()) "m.slpack" in
  Pack.write pk ~path;
  (match Pack.read ~path with
  | Error e -> Alcotest.fail ("pack file round trip: " ^ e)
  | Ok pk' -> check "file round trip" true (pk.Pack.props = pk'.Pack.props));
  (* corrupt pack file reads as Error, not an exception *)
  let oc = open_out_bin path in
  output_string oc "still not an sl-artifact";
  close_out oc;
  check "corrupt pack is an Error" true
    (match Pack.read ~path with Error _ -> true | Ok _ -> false)

let test_pack_rejects_dangling_monitor () =
  let r = Registry.create ~alphabet:2 () in
  ignore (Registry.compile_all r named_props);
  let pk = Pack.of_registry r in
  (* splice in a property pointing past the monitor table *)
  let w = Wire.writer () in
  Pack.encode w
    { pk with
      Pack.props =
        Array.append pk.Pack.props
          [| ("phantom", Array.length pk.Pack.monitors) |] };
  check "dangling monitor index rejected" true
    (match Pack.of_artifact (Wire.to_artifact ~kind:Wire.kind_pack w) with
    | Error _ -> true
    | Ok _ -> false)

(* A publish that fails at the rename (the target is a directory) must
   raise and leave the parent directory exactly as it was: no temp
   file, no clobbered target. [Pack.write] goes through the same path. *)
let test_failed_publish_leaves_no_temp () =
  let dir = fresh_dir () in
  let target = Filename.concat dir "d" in
  Sys.mkdir target 0o700;
  let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let before = listing () in
  check "publish onto a directory raises" true
    (match Wire.publish ~path:target "blob" with
    | () -> false
    | exception Sys_error _ -> true);
  check "listing unchanged after publish" true (listing () = before);
  let r = Registry.create ~alphabet:2 () in
  ignore (Registry.compile_all r named_props);
  check "pack write onto a directory raises" true
    (match Pack.write (Pack.of_registry r) ~path:target with
    | () -> false
    | exception Sys_error _ -> true);
  check "listing unchanged after pack write" true (listing () = before);
  check "target is still a directory" true (Sys.is_directory target)

let tests =
  [ QCheck_alcotest.to_alcotest prop_packed_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation_is_miss;
    QCheck_alcotest.to_alcotest prop_bitflip_is_miss;
    Alcotest.test_case "stale format version is a miss" `Quick
      test_stale_version_is_miss;
    Alcotest.test_case "kind confusion is a miss" `Quick
      test_kind_confusion_is_miss;
    Alcotest.test_case "monitor pack round trip" `Quick test_pack_roundtrip;
    Alcotest.test_case "pack rejects dangling monitor index" `Quick
      test_pack_rejects_dangling_monitor;
    Alcotest.test_case "failed publish leaves no temp file" `Quick
      test_failed_publish_leaves_no_temp ]
