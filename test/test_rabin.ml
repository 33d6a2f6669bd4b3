module Rabin = Sl_rabin.Rabin
module Rclosure = Sl_rabin.Closure
module Rdecompose = Sl_rabin.Decompose
module Rpatterns = Sl_rabin.Patterns
module Rtree = Sl_tree.Rtree
module Ftree = Sl_tree.Ftree
module Ptree = Sl_tree.Ptree
module Ctl = Sl_ctl.Ctl
module Ctlstar = Sl_ctl.Ctlstar

let check = Alcotest.(check bool)

let sample = Rpatterns.sample_trees
let prop_of_label l = if l = 0 then "a" else "b"
let to_kripke t = Rtree.to_kripke t ~prop_of_label

(* CTL/CTL* oracles on the presentation graph. *)
let oracle_af_b t = Ctl.holds (to_kripke t) (Ctl.parse_exn "AF b")
let oracle_ag_a t = Ctl.holds (to_kripke t) (Ctl.parse_exn "AG a")
let oracle_ef_b t = Ctl.holds (to_kripke t) (Ctl.parse_exn "EF b")
let oracle_eg_a t = Ctl.holds (to_kripke t) (Ctl.parse_exn "EG a")
let oracle_q3a t = Ctl.holds (to_kripke t) (Ctl.parse_exn "a & AF b")

let test_membership_vs_ctl () =
  List.iter
    (fun (automaton, oracle, name) ->
      List.iter
        (fun t ->
          check
            (Printf.sprintf "%s on tree" name)
            (oracle t)
            (Rabin.accepts automaton t))
        sample)
    [ (Rpatterns.af_b, oracle_af_b, "AF b");
      (Rpatterns.ag_a, oracle_ag_a, "AG a");
      (Rpatterns.ef_b, oracle_ef_b, "EF b");
      (Rpatterns.eg_a, oracle_eg_a, "EG a");
      (Rpatterns.q3a, oracle_q3a, "q3a") ]

let test_emptiness () =
  List.iter
    (fun (name, b) ->
      check (name ^ " nonempty") false (Rabin.is_empty b))
    Rpatterns.all;
  (* An automaton that can never read b and must read b: empty. *)
  let contradictory =
    Rabin.make ~alphabet:2 ~k:2 ~nstates:1 ~start:0
      ~delta:[| [| []; [] |] |]
      ~pairs:(Rabin.buchi_condition ~nstates:1 ~accepting:[ 0 ])
  in
  check "no transitions = empty" true (Rabin.is_empty contradictory);
  (* Accepting states unreachable through cycles: waiting state only. *)
  let no_accept =
    Rabin.make ~alphabet:2 ~k:2 ~nstates:1 ~start:0
      ~delta:[| [| [ [| 0; 0 |] ]; [ [| 0; 0 |] ] |] |]
      ~pairs:(Rabin.buchi_condition ~nstates:1 ~accepting:[])
  in
  check "no accepting = empty" true (Rabin.is_empty no_accept)

let test_nonempty_witness () =
  (* Every nonempty pattern yields a witness tree that it accepts, and
     the witness satisfies the property's defining CTL/CTL* oracle. *)
  List.iter
    (fun (name, b) ->
      match Rabin.nonempty_witness b with
      | None -> Alcotest.failf "%s should have a witness" name
      | Some t ->
          check (name ^ ": witness accepted") true (Rabin.accepts b t))
    Rpatterns.all;
  (* The AG a witness is the constant-a tree (semantically). *)
  (match Rabin.nonempty_witness Rpatterns.ag_a with
  | Some t -> check "AG a witness all-a" true (oracle_ag_a t)
  | None -> Alcotest.fail "AG a nonempty");
  (* No witness for an empty automaton. *)
  let empty =
    Rabin.make ~alphabet:2 ~k:2 ~nstates:1 ~start:0
      ~delta:[| [| []; [] |] |]
      ~pairs:(Rabin.buchi_condition ~nstates:1 ~accepting:[ 0 ])
  in
  check "empty has no witness" true (Rabin.nonempty_witness empty = None)

let test_extends () =
  let leaf_a = Ftree.singleton 0 and leaf_b = Ftree.singleton 1 in
  let a_aa = Ftree.of_children 0 [ leaf_a; leaf_a ] in
  let a_ab = Ftree.of_children 0 [ leaf_a; leaf_b ] in
  check "AG a extends all-a prefix" true (Rabin.extends Rpatterns.ag_a a_aa);
  check "AG a rejects b" false (Rabin.extends Rpatterns.ag_a a_ab);
  check "AF b extends anything" true (Rabin.extends Rpatterns.af_b a_aa);
  check "q3a needs a root" false (Rabin.extends Rpatterns.q3a leaf_b);
  check "q3a extends a root" true (Rabin.extends Rpatterns.q3a leaf_a);
  check "EG a extends prefix with a path" true
    (Rabin.extends Rpatterns.eg_a a_ab);
  check "EG a rejects b root" false (Rabin.extends Rpatterns.eg_a leaf_b)

let test_rfcl_q3a_is_q1 () =
  (* The branching-time analogue of "the closure of p3 is p1": rfcl of the
     q3a automaton accepts exactly the trees with an a-labeled root. *)
  let closed = Rclosure.rfcl Rpatterns.q3a in
  check "closure shaped" true (Rclosure.is_closure_shaped closed);
  List.iter
    (fun t ->
      check "rfcl q3a = root is a"
        (t.Rtree.label.(t.Rtree.root) = 0)
        (Rabin.accepts closed t))
    sample

let test_rfcl_af_b_universal () =
  let closed = Rclosure.rfcl Rpatterns.af_b in
  List.iter
    (fun t -> check "rfcl (AF b) accepts everything" true
        (Rabin.accepts closed t))
    sample

let test_rfcl_safety_fixpoint () =
  (* AG a is already closed: rfcl preserves its language. *)
  let closed = Rclosure.rfcl Rpatterns.ag_a in
  List.iter
    (fun t ->
      check "rfcl (AG a) = AG a"
        (Rabin.accepts Rpatterns.ag_a t)
        (Rabin.accepts closed t))
    sample

let test_general_rabin_condition () =
  (* A genuine Rabin pair: "every path sees b only finitely often".
     States record the letter just read; pair (green = just-read-a,
     red = just-read-b). Deterministic, so the strategy enumeration is
     trivial; the oracle is the CTL* limit modality AFG a. *)
  let delta =
    [| [| [ [| 0; 0 |] ]; [ [| 1; 1 |] ] |];
       [| [ [| 0; 0 |] ]; [ [| 1; 1 |] ] |] |]
  in
  let pairs = [ ([| true; false |], [| false; true |]) ] in
  let fin_b =
    Rabin.make ~alphabet:2 ~k:2 ~nstates:2 ~start:0 ~delta ~pairs
  in
  check "not Büchi shaped" false (Rabin.is_buchi_shaped fin_b);
  List.iter
    (fun t ->
      let k = to_kripke t in
      let expected =
        (Ctlstar.a_fg k ~pred:(fun q -> Sl_kripke.Kripke.holds k q "a")).(
          t.Rtree.root)
      in
      check "AFG a via Rabin pair" expected (Rabin.accepts fin_b t))
    sample

let test_general_condition_dead_ends () =
  (* AG a and EF b with their Büchi pair listed twice: no longer
     Büchi-shaped, so membership enumerates strategies, and a reachable
     position with no move (AG a reading b) must reject. *)
  let twice (b : Rabin.t) =
    Rabin.make ~alphabet:b.alphabet ~k:b.k ~nstates:b.nstates ~start:b.start
      ~delta:b.delta ~pairs:(b.pairs @ b.pairs)
  in
  List.iter
    (fun (name, b, oracle) ->
      let b = twice b in
      check (name ^ ": not Büchi shaped") false (Rabin.is_buchi_shaped b);
      List.iter (fun t -> check name (oracle t) (Rabin.accepts b t)) sample)
    [ ("AG a", Rpatterns.ag_a, oracle_ag_a);
      ("EF b", Rpatterns.ef_b, oracle_ef_b) ]

let test_union () =
  let u = Rabin.union Rpatterns.ag_a Rpatterns.ef_b in
  List.iter
    (fun t ->
      check "union semantics"
        (Rabin.accepts Rpatterns.ag_a t || Rabin.accepts Rpatterns.ef_b t)
        (Rabin.accepts u t))
    sample

let test_safe_live_classification () =
  let safe b = Rdecompose.is_safe_language ~trees:sample b in
  let live b = Rdecompose.is_live_language ~max_depth:2 b in
  check "AG a safe" true (safe Rpatterns.ag_a);
  check "AG a not live" false (live Rpatterns.ag_a);
  check "AF b live" true (live Rpatterns.af_b);
  check "AF b not safe" false (safe Rpatterns.af_b);
  check "EF b live" true (live Rpatterns.ef_b);
  check "EF b not safe" false (safe Rpatterns.ef_b);
  (* König: over finitely-branching trees EG a is fcl-closed. *)
  check "EG a safe" true (safe Rpatterns.eg_a);
  check "q3a not safe" false (safe Rpatterns.q3a);
  check "q3a not live" false (live Rpatterns.q3a)

let test_theorem9_decompositions () =
  List.iter
    (fun (name, b) ->
      let d = Rdecompose.decompose b in
      Alcotest.(check (list (pair string string)))
        (name ^ " decomposition verifies")
        []
        (Rdecompose.verify_sampled ~max_depth:2 ~trees:sample d))
    Rpatterns.all

let test_decomposition_pieces () =
  (* The safety part of q3a is live-free and safe; the liveness predicate
     is weaker than the original language. *)
  let d = Rdecompose.decompose Rpatterns.q3a in
  check "safe part safe" true
    (Rdecompose.is_safe_language ~trees:sample d.Rdecompose.safe);
  List.iter
    (fun t ->
      if Rabin.accepts Rpatterns.q3a t then
        check "original inside liveness part" true (d.Rdecompose.live_mem t))
    sample

let test_truncation_unfold_consistency () =
  (* extends on the unfolded prefix agrees with extends on the
     Ptree-truncation unfolding — ties the Rabin oracle to the sl_tree
     machinery. *)
  List.iter
    (fun t ->
      List.iter
        (fun d ->
          let via_rtree = Rtree.unfold t ~depth:d in
          let via_ptree =
            Ptree.unfold (Ptree.truncation (Ptree.of_rtree t) ~depth:d)
              ~depth:(d + 2)
          in
          check "same prefix" true (Ftree.equal via_rtree via_ptree))
        [ 0; 1; 2 ])
    (List.filteri (fun i _ -> i < 10) sample)

let tests =
  [ Alcotest.test_case "membership vs CTL oracles" `Slow
      test_membership_vs_ctl;
    Alcotest.test_case "emptiness" `Quick test_emptiness;
    Alcotest.test_case "nonempty witnesses" `Quick test_nonempty_witness;
    Alcotest.test_case "prefix extendability" `Quick test_extends;
    Alcotest.test_case "rfcl q3a = q1" `Quick test_rfcl_q3a_is_q1;
    Alcotest.test_case "rfcl AF b universal" `Quick
      test_rfcl_af_b_universal;
    Alcotest.test_case "rfcl fixes safety" `Quick
      test_rfcl_safety_fixpoint;
    Alcotest.test_case "general Rabin pair" `Slow
      test_general_rabin_condition;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "safe/live classification" `Quick
      test_safe_live_classification;
    Alcotest.test_case "Theorem 9 decompositions" `Slow
      test_theorem9_decompositions;
    Alcotest.test_case "decomposition pieces" `Quick
      test_decomposition_pieces;
    Alcotest.test_case "truncation consistency" `Quick
      test_truncation_unfold_consistency;
    Alcotest.test_case "general condition: dead ends reject" `Quick
      test_general_condition_dead_ends ]
