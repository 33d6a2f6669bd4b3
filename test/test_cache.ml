(* The sl-artifact/1 codec and the warm-start compile cache.

   The QCheck pins are the PR's round-trip contract: decode(encode x)
   must be structurally identical to the freshly compiled value — for
   packed monitors including every *derived* field (can_trip,
   pre_tripped, vacuous), since those are recomputed on decode. The
   corruption pins are the invalidation contract: truncation, bit
   flips, stale format versions and kind confusion must all read as
   "absent" (a cache miss), never as an exception or a wrong value. *)

module Wire = Sl_core.Wire
module Digraph = Sl_core.Digraph
module Buchi = Sl_buchi.Buchi
module Formula = Sl_ltl.Formula
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry
module Cache = Sl_runtime.Cache
module Pack = Sl_runtime.Pack

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh_dir () =
  let f = Filename.temp_file "slc-cache-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let random_buchi seed =
  Buchi.random ~seed ~alphabet:2
    ~nstates:(2 + (seed mod 7))
    ~density:0.3 ~accepting_fraction:0.4 ()

let random_packed seed = Packed_dfa.of_buchi (random_buchi seed)

let packed_equal (a : Packed_dfa.t) (b : Packed_dfa.t) =
  a.Packed_dfa.alphabet = b.Packed_dfa.alphabet
  && a.Packed_dfa.nstates = b.Packed_dfa.nstates
  && a.Packed_dfa.trans = b.Packed_dfa.trans
  && a.Packed_dfa.accepting = b.Packed_dfa.accepting
  && a.Packed_dfa.can_trip = b.Packed_dfa.can_trip
  && a.Packed_dfa.pre_tripped = b.Packed_dfa.pre_tripped
  && a.Packed_dfa.vacuous = b.Packed_dfa.vacuous
  && String.equal a.Packed_dfa.key b.Packed_dfa.key

let digraph_equal g h =
  Digraph.nodes g = Digraph.nodes h
  && Digraph.nsyms g = Digraph.nsyms h
  && Digraph.nedges g = Digraph.nedges h
  &&
  let ok = ref true in
  for v = 0 to Digraph.nodes g - 1 do
    for s = 0 to Digraph.nsyms g - 1 do
      if Digraph.succs_sym g v s <> Digraph.succs_sym h v s then ok := false
    done
  done;
  !ok

(* --- Round trips --- *)

let prop_packed_roundtrip =
  QCheck.Test.make
    ~name:"packed_dfa: decode(encode x) = x (derived fields included)"
    ~count:50
    QCheck.(int_range 0 5000)
    (fun seed ->
      let pd = random_packed seed in
      match Packed_dfa.of_artifact (Packed_dfa.to_artifact pd) with
      | Some pd' -> packed_equal pd pd'
      | None -> false)

let prop_buchi_roundtrip =
  QCheck.Test.make ~name:"buchi: decode(encode x) = x" ~count:50
    QCheck.(int_range 0 5000)
    (fun seed ->
      let b = random_buchi seed in
      match Buchi.of_artifact (Buchi.to_artifact b) with
      | Some b' ->
          b.Buchi.alphabet = b'.Buchi.alphabet
          && b.Buchi.nstates = b'.Buchi.nstates
          && b.Buchi.start = b'.Buchi.start
          && b.Buchi.delta = b'.Buchi.delta
          && b.Buchi.accepting = b'.Buchi.accepting
      | None -> false)

let prop_digraph_roundtrip =
  QCheck.Test.make ~name:"digraph: decode(encode x) = x" ~count:50
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nodes = 1 + Random.State.int st 10 in
      let nsyms = 1 + Random.State.int st 3 in
      let delta =
        Array.init nodes (fun _ ->
            Array.init nsyms (fun _ ->
                List.init (Random.State.int st 4) (fun _ ->
                    Random.State.int st nodes)))
      in
      let g = Digraph.of_delta delta in
      match Digraph.of_artifact (Digraph.to_artifact g) with
      | Some h -> digraph_equal g h
      | None -> false)

(* --- Corruption: every defect decodes as a miss, never a crash --- *)

let prop_truncation_is_miss =
  QCheck.Test.make
    ~name:"artifact truncated at any byte: decode = None" ~count:60
    QCheck.(pair (int_range 0 500) (int_range 0 10_000))
    (fun (seed, cut) ->
      let s = Packed_dfa.to_artifact (random_packed seed) in
      let s' = String.sub s 0 (cut mod String.length s) in
      Packed_dfa.of_artifact s' = None)

let prop_bitflip_is_miss =
  QCheck.Test.make ~name:"artifact with one flipped byte: decode = None"
    ~count:60
    QCheck.(pair (int_range 0 500) (int_range 0 10_000))
    (fun (seed, pos) ->
      let s = Packed_dfa.to_artifact (random_packed seed) in
      let b = Bytes.of_string s in
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      (* Every FNV-1a step is a bijection of the running hash, so any
         single-byte change is guaranteed (not just likely) to fail the
         checksum — or, for a trailer byte, to disagree with it. *)
      Packed_dfa.of_artifact (Bytes.to_string b) = None)

(* Rewrite an artifact's version byte and re-seal the checksum: the
   decoder must reject it on the version field itself, which is the
   upgrade story — old caches full of version-k artifacts read as all
   misses under a version-k+1 build and get overwritten. *)
let reversion s version =
  let b = Bytes.of_string s in
  Bytes.set b 11 (Char.chr version);
  let body_len = Bytes.length b - 8 in
  let h = Wire.fnv64 (Bytes.sub_string b 0 body_len) in
  Bytes.set_int64_le b body_len h;
  Bytes.to_string b

let test_stale_version_is_miss () =
  let pd = random_packed 7 in
  let s = Packed_dfa.to_artifact pd in
  check "self-check: unmodified artifact decodes" true
    (Packed_dfa.of_artifact s <> None);
  check "version+1 with a valid checksum is rejected" true
    (Packed_dfa.of_artifact (reversion s (Wire.format_version + 1)) = None);
  check "version 0 with a valid checksum is rejected" true
    (Packed_dfa.of_artifact (reversion s 0) = None)

let test_kind_confusion_is_miss () =
  let g = Digraph.of_delta [| [| [ 0 ] |] |] in
  let s = Digraph.to_artifact g in
  check "digraph artifact is not a packed monitor" true
    (Packed_dfa.of_artifact s = None);
  check "digraph artifact is not a buchi automaton" true
    (Buchi.of_artifact s = None);
  check "digraph artifact still decodes as itself" true
    (Digraph.of_artifact s <> None)

(* --- The cache itself --- *)

let compile_fingerprint r ids =
  ( Registry.nprops r, Registry.nmonitors r, Registry.hits r,
    List.map (fun p -> Registry.monitor_of_prop r p) ids,
    Array.to_list (Array.map Packed_dfa.key (Registry.monitors r)) )

let props_src =
  [ "a"; "a & F !a"; "G F a"; "G (a -> X !a)"; "F G !a"; "G a"; "a" ]

let named_props =
  List.map (fun s -> (Some s, Formula.parse_exn s)) props_src

let test_cache_find_store_roundtrip () =
  let c = Cache.create ~dir:(fresh_dir ()) in
  let f = Formula.parse_exn "G (a -> X !a)" in
  let valuation s p = String.equal p "a" && s = 0 in
  let key = Cache.probe_key ~alphabet:2 ~valuation f in
  check "empty cache misses" true (Cache.find c ~key = None);
  let pd =
    Packed_dfa.of_buchi
      (Sl_ltl.Translate.translate ~alphabet:2 ~valuation f)
  in
  Cache.store c ~key pd;
  (match Cache.find c ~key with
  | None -> Alcotest.fail "stored entry not found"
  | Some pd' -> check "cached monitor identical to compiled" true
      (packed_equal pd pd'));
  check "other keys still miss" true (Cache.find c ~key:(key ^ "x") = None)

let test_cold_warm_identical () =
  let dir = fresh_dir () in
  let run () =
    let r = Registry.create ~alphabet:2 ~cache:(Cache.create ~dir) () in
    let ids = Registry.compile_all ~jobs:1 r named_props in
    compile_fingerprint r ids
  in
  let uncached =
    let r = Registry.create ~alphabet:2 () in
    let ids = Registry.compile_all ~jobs:1 r named_props in
    compile_fingerprint r ids
  in
  Cache.reset_counters ();
  let cold = run () in
  (* 7 properties, 6 distinct source texts: the cold run stores each
     distinct source once (the duplicate probe hits its twin's fresh
     entry), and the warm run hits all 7 probes. *)
  check_int "cold run stores every distinct source" 6
    (Cache.store_count ());
  let hits_before = Cache.hit_count () in
  let warm = run () in
  check "cold run = uncached run" true (cold = uncached);
  check "warm run = cold run" true (warm = cold);
  check_int "warm run hits every probe" 7
    (Cache.hit_count () - hits_before);
  (* ... and at jobs = 4 the warm cache must change nothing either. *)
  let warm_j4 =
    let r = Registry.create ~alphabet:2 ~cache:(Cache.create ~dir) () in
    let ids = Registry.compile_all ~jobs:4 ~threshold:1 r named_props in
    compile_fingerprint r ids
  in
  check "warm jobs=4 run = cold run" true (warm_j4 = cold)

let test_corrupt_entry_heals () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir in
  let f = Formula.parse_exn "G a" in
  let valuation s p = String.equal p "a" && s = 0 in
  let key = Cache.probe_key ~alphabet:2 ~valuation f in
  let pd =
    Packed_dfa.of_buchi
      (Sl_ltl.Translate.translate ~alphabet:2 ~valuation f)
  in
  Cache.store c ~key pd;
  let entry =
    match Sys.readdir dir with
    | [| e |] -> Filename.concat dir e
    | _ -> Alcotest.fail "expected exactly one cache entry"
  in
  (* Stomp the entry with garbage: find must miss, not raise. *)
  let oc = open_out_bin entry in
  output_string oc "definitely not an sl-artifact";
  close_out oc;
  check "corrupt entry is a miss" true (Cache.find c ~key = None);
  (* A store overwrites the corpse and the cache works again. *)
  Cache.store c ~key pd;
  check "store heals the corrupt entry" true
    (match Cache.find c ~key with
    | Some pd' -> packed_equal pd pd'
    | None -> false)

let test_probe_key_valuation_sensitivity () =
  let f = Formula.parse_exn "G (a -> X !a)" in
  let v1 s p = String.equal p "a" && s = 0 in
  let v2 s p = String.equal p "a" && s = 1 in
  (* differs only on a proposition the formula never mentions *)
  let v3 s p = v1 s p || (String.equal p "zz" && s = 1) in
  let k ~valuation = Cache.probe_key ~alphabet:2 ~valuation f in
  check "valuations differing on a mentioned prop get distinct keys" true
    (k ~valuation:v1 <> k ~valuation:v2);
  check "valuations differing off the formula share a key" true
    (k ~valuation:v1 = k ~valuation:v3);
  check "alphabet is part of the key" true
    (Cache.probe_key ~alphabet:2 ~valuation:v1 f
    <> Cache.probe_key ~alphabet:3 ~valuation:v1 f)

(* --- Monitor packs --- *)

let test_pack_roundtrip () =
  let r = Registry.create ~alphabet:2 () in
  ignore (Registry.compile_all ~jobs:1 r named_props);
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
  ignore (Registry.compile_all ~jobs:1 r named_props);
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
  ignore (Registry.compile_all ~jobs:1 r named_props);
  check "pack write onto a directory raises" true
    (match Pack.write (Pack.of_registry r) ~path:target with
    | () -> false
    | exception Sys_error _ -> true);
  check "listing unchanged after pack write" true (listing () = before);
  check "target is still a directory" true (Sys.is_directory target)

let tests =
  [ QCheck_alcotest.to_alcotest prop_packed_roundtrip;
    QCheck_alcotest.to_alcotest prop_buchi_roundtrip;
    QCheck_alcotest.to_alcotest prop_digraph_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation_is_miss;
    QCheck_alcotest.to_alcotest prop_bitflip_is_miss;
    Alcotest.test_case "stale format version is a miss" `Quick
      test_stale_version_is_miss;
    Alcotest.test_case "kind confusion is a miss" `Quick
      test_kind_confusion_is_miss;
    Alcotest.test_case "cache find/store round trip" `Quick
      test_cache_find_store_roundtrip;
    Alcotest.test_case "cold = warm = uncached (jobs 1 and 4)" `Quick
      test_cold_warm_identical;
    Alcotest.test_case "corrupt entry misses, store heals" `Quick
      test_corrupt_entry_heals;
    Alcotest.test_case "probe key valuation sensitivity" `Quick
      test_probe_key_valuation_sensitivity;
    Alcotest.test_case "monitor pack round trip" `Quick test_pack_roundtrip;
    Alcotest.test_case "pack rejects dangling monitor index" `Quick
      test_pack_rejects_dangling_monitor;
    Alcotest.test_case "failed publish leaves no temp file" `Quick
      test_failed_publish_leaves_no_temp ]
