module Buchi = Sl_buchi.Buchi
module Closure = Sl_buchi.Closure
module Ops = Sl_buchi.Ops
module Complement = Sl_buchi.Complement
module Lang = Sl_buchi.Lang
module Decompose = Sl_buchi.Decompose
module Patterns = Sl_buchi.Patterns
module Lasso = Sl_word.Lasso

let check = Alcotest.(check bool)

let lassos = Lasso.enumerate ~alphabet:2 ~max_prefix:3 ~max_cycle:3
let small_lassos = Lasso.enumerate ~alphabet:2 ~max_prefix:2 ~max_cycle:2

(* Semantic oracles for Rem's examples on lasso words. *)
let sem_p1 w = Lasso.at w 0 = 0
let sem_p2 w = Lasso.at w 0 <> 0
let sem_p3 w = sem_p1 w && Lasso.count_letter w 1 <> `Finitely 0
let sem_p4 w = match Lasso.count_letter w 0 with
  | `Finitely _ -> true
  | `Infinitely -> false
let sem_p5 w = Lasso.count_letter w 0 = `Infinitely

let test_membership_against_oracles () =
  let cases =
    [ ("p0", Patterns.p0, fun _ -> false);
      ("p1", Patterns.p1, sem_p1);
      ("p2", Patterns.p2, sem_p2);
      ("p3", Patterns.p3, sem_p3);
      ("p4", Patterns.p4, sem_p4);
      ("p5", Patterns.p5, sem_p5);
      ("p6", Patterns.p6, fun _ -> true) ]
  in
  List.iter
    (fun (name, automaton, oracle) ->
      List.iter
        (fun w ->
          check
            (Printf.sprintf "%s on %s" name (Lasso.to_string w))
            (oracle w)
            (Buchi.accepts_lasso automaton w))
        lassos)
    cases

let test_rename_start_and_prefix_nfa () =
  (* B(q) semantics (Section 4.4's notation, word case): moving the start
     of p3 to its "waiting" state drops the root-letter requirement. *)
  let b1 = Buchi.rename_start Patterns.p3 1 in
  List.iter
    (fun w ->
      (* From state 1, acceptance = eventually a b. *)
      check "B(q) semantics"
        (Lasso.count_letter w 1 <> `Finitely 0)
        (Buchi.accepts_lasso b1 w))
    lassos;
  (* The prefix NFA of p5 accepts every finite word (all states useful). *)
  let nfa = Buchi.to_prefix_nfa Patterns.p5 in
  check "prefix nfa total here" true
    (Sl_nfa.Dfa.is_total_language (Sl_nfa.Nfa.determinize nfa));
  check "size info mentions states" true
    (String.length (Buchi.size_info Patterns.p5) > 0)

let test_emptiness () =
  check "p0 empty" true (Buchi.is_empty Patterns.p0);
  check "p5 nonempty" false (Buchi.is_empty Patterns.p5);
  (* Accepting state not on a cycle: language empty. *)
  let dead_end =
    Buchi.of_edges ~alphabet:2 ~nstates:2 ~start:0 ~edges:[ (0, 0, 1) ]
      ~accepting:[ 1 ]
  in
  check "accepting dead-end is empty" true (Buchi.is_empty dead_end)

let test_witness () =
  (match Buchi.nonempty_witness Patterns.p5 with
  | None -> Alcotest.fail "p5 nonempty"
  | Some w ->
      check "witness accepted" true (Buchi.accepts_lasso Patterns.p5 w);
      check "witness satisfies GF a" true (sem_p5 w));
  check "p0 has no witness" true (Buchi.nonempty_witness Patterns.p0 = None);
  (* Every pattern's witness is in its language. *)
  List.iter
    (fun (_, _, b) ->
      match Buchi.nonempty_witness b with
      | None -> check "only p0 empty" true (Buchi.is_empty b)
      | Some w -> check "witness accepted" true (Buchi.accepts_lasso b w))
    Patterns.rem_examples

(* lcl on lassos, computed directly from the oracle semantics: w is in
   lcl(P) iff every finite prefix of w extends to some word in P. For a
   sampled check we use: w in lcl(P) iff for each prefix length k there is
   a lasso in the sample extending prefix_k(w). This under-approximates
   extension, so we only use it on the specific examples below where the
   paper tells us the closure exactly. *)

let test_closure_rem_examples () =
  (* The paper, Section 2.3: closure of p3 is p1; closures of p4, p5 are
     Sigma^omega; p0, p1, p2, p6 are closed. *)
  let bcl = Closure.bcl in
  check "bcl p3 = p1 (exact)" true (Lang.equal (bcl Patterns.p3) Patterns.p1);
  check "bcl p4 universal" true (Lang.is_universal (bcl Patterns.p4));
  check "bcl p5 universal" true (Lang.is_universal (bcl Patterns.p5));
  List.iter
    (fun (name, p) ->
      check (name ^ " closed") true (Lang.equal (bcl p) p))
    [ ("p0", Patterns.p0); ("p1", Patterns.p1); ("p2", Patterns.p2);
      ("p6", Patterns.p6) ]

let test_closure_is_lattice_closure () =
  (* Extensive, idempotent, monotone (sampled on lassos; exact where
     cheap). *)
  List.iter
    (fun (name, _, b) ->
      let c = Closure.bcl b in
      check (name ^ ": extensive") true
        (List.for_all
           (fun w ->
             (not (Buchi.accepts_lasso b w)) || Buchi.accepts_lasso c w)
           lassos);
      check (name ^ ": idempotent") true (Lang.equal (Closure.bcl c) c))
    Patterns.rem_examples;
  (* Monotone via Lemma 3 shape: bcl(A cap B) included in bcl A. *)
  let inter = Ops.intersect Patterns.p3 Patterns.p5 in
  check "monotone on intersection" true
    (Lang.subset (Closure.bcl inter) (Closure.bcl Patterns.p3))

let test_closure_shape () =
  check "bcl closure-shaped" true
    (Sl_buchi.Closure.is_closure_shaped (Closure.bcl Patterns.p3));
  check "p3 itself not closure-shaped" false
    (Sl_buchi.Closure.is_closure_shaped Patterns.p3)

let test_naive_prune_ablation () =
  (* An accepting dead-end branch makes the naive pruning (keep states that
     reach any accepting state) wrong: state 1 loops on a and can exit to
     an accepting dead-end 3, so naive keeps it, although no accepting run
     ever visits it. *)
  let b =
    Buchi.of_edges ~alphabet:2 ~nstates:4 ~start:0
      ~edges:[ (0, 0, 1); (1, 0, 1); (1, 1, 3); (0, 1, 2); (2, 1, 2) ]
      ~accepting:[ 2; 3 ]
  in
  let correct = Closure.bcl b in
  let naive = Closure.naive_prune b in
  let a_omega = Lasso.constant 0 in
  check "correct closure rejects a^w" false
    (Buchi.accepts_lasso correct a_omega);
  check "naive closure wrongly accepts a^w" true
    (Buchi.accepts_lasso naive a_omega);
  (* And a^w is indeed outside lcl L(B): L(B) = b^w only, whose prefixes
     are b^n. *)
  check "L(B) = {b^w}" true
    (List.for_all
       (fun w -> Buchi.accepts_lasso b w = Lasso.equal w (Lasso.constant 1))
       lassos)

let test_intersect_union_semantics () =
  let pairs =
    [ (Patterns.p1, Patterns.p5); (Patterns.p3, Patterns.p4);
      (Patterns.p2, Patterns.p5); (Patterns.p4, Patterns.p5) ]
  in
  List.iter
    (fun (x, y) ->
      let i = Ops.intersect x y and u = Ops.union x y in
      List.iter
        (fun w ->
          check "intersection semantics"
            (Buchi.accepts_lasso x w && Buchi.accepts_lasso y w)
            (Buchi.accepts_lasso i w);
          check "union semantics"
            (Buchi.accepts_lasso x w || Buchi.accepts_lasso y w)
            (Buchi.accepts_lasso u w))
        lassos)
    pairs

let test_complement_closed () =
  let closed = Closure.bcl Patterns.p3 in
  let comp = Complement.complement_closed closed in
  List.iter
    (fun w ->
      check "complement flips membership"
        (not (Buchi.accepts_lasso closed w))
        (Buchi.accepts_lasso comp w))
    lassos;
  (* Complement of the empty language is universal. *)
  check "comp of empty" true
    (Lang.is_universal (Complement.complement_closed Patterns.p0))

let test_rank_based_complement () =
  List.iter
    (fun (name, _, b) ->
      let comp = Complement.rank_based b in
      List.iter
        (fun w ->
          check
            (Printf.sprintf "rank complement %s on %s" name
               (Lasso.to_string w))
            (not (Buchi.accepts_lasso b w))
            (Buchi.accepts_lasso comp w))
        small_lassos)
    Patterns.rem_examples

let test_negate_complements () =
  (* The one dispatch: empty language, closure-shaped, rank-based. The
     empty-language automaton has an accepting dead end, so it is not
     closure-shaped. *)
  let dead_end =
    Buchi.of_edges ~alphabet:2 ~nstates:2 ~start:0 ~edges:[ (0, 0, 1) ]
      ~accepting:[ 1 ]
  in
  let protocols =
    [ ("request_response", Patterns.request_response);
      ("no_grant_without_request", Patterns.no_grant_without_request);
      ("always_eventually_grant", Patterns.always_eventually_grant) ]
  in
  let cases =
    List.map (fun (name, _, b) -> (name, b)) Patterns.rem_examples
    @ protocols @ [ ("dead end", dead_end) ]
  in
  let branches = Array.make 3 0 in
  List.iter
    (fun (name, b) ->
      let branch =
        if Buchi.is_empty b then 0
        else if Closure.is_closure_shaped b then 1
        else 2
      in
      branches.(branch) <- branches.(branch) + 1;
      let neg = Complement.negate b in
      List.iter
        (fun w ->
          check
            (Printf.sprintf "negate %s on %s" name (Lasso.to_string w))
            (not (Buchi.accepts_lasso b w))
            (Buchi.accepts_lasso neg w))
        (Lasso.enumerate ~alphabet:b.Buchi.alphabet ~max_prefix:3
           ~max_cycle:3))
    cases;
  Array.iteri
    (fun i n -> check (Printf.sprintf "branch %d taken" i) true (n > 0))
    branches

let test_subset_equal () =
  check "p3 subset p1" true (Lang.subset Patterns.p3 Patterns.p1);
  check "p1 not subset p3" false (Lang.subset Patterns.p1 Patterns.p3);
  check "p0 subset everything" true (Lang.subset Patterns.p0 Patterns.p4);
  check "everything subset p6" true (Lang.subset Patterns.p5 Patterns.p6);
  check "p4 and p5 disjoint... as subset" false
    (Lang.subset Patterns.p4 Patterns.p5);
  check "p5 equal p5" true (Lang.equal Patterns.p5 Patterns.p5);
  check "sampled agrees" true
    (Lang.sampled_subset ~max_prefix:3 ~max_cycle:3 Patterns.p3 Patterns.p1)

let test_classification_rem_table () =
  (* The table of Section 2.3. *)
  let expected =
    [ ("p0", Decompose.Safety); ("p1", Decompose.Safety);
      ("p2", Decompose.Safety); ("p3", Decompose.Neither);
      ("p4", Decompose.Liveness); ("p5", Decompose.Liveness);
      ("p6", Decompose.Both) ]
  in
  List.iter2
    (fun (name, _, b) (name', expected_class) ->
      assert (name = name');
      Alcotest.(check string)
        (name ^ " classification")
        (Decompose.classification_to_string expected_class)
        (Decompose.classification_to_string (Decompose.classify b)))
    Patterns.rem_examples expected

let test_decomposition_rem_examples () =
  List.iter
    (fun (name, _, b) ->
      let d = Decompose.decompose b in
      Alcotest.(check (list (pair string string)))
        (name ^ " decomposition verifies")
        []
        (Decompose.verify_exact d))
    Patterns.rem_examples

let test_decomposition_protocol () =
  List.iter
    (fun (name, b) ->
      let d = Decompose.decompose b in
      Alcotest.(check (list (pair string string)))
        (name ^ " decomposition verifies") []
        (Decompose.verify_sampled ~max_prefix:2 ~max_cycle:2 d))
    [ ("request_response", Patterns.request_response);
      ("no_grant_without_request", Patterns.no_grant_without_request);
      ("always_eventually_grant", Patterns.always_eventually_grant) ];
  (* Protocol classifications. *)
  check "no_grant_without_request is safety" true
    (Decompose.is_safety Patterns.no_grant_without_request);
  check "always_eventually_grant is liveness" true
    (Decompose.is_liveness Patterns.always_eventually_grant);
  (* The classic fact: "every request is eventually granted" is a pure
     liveness property — any finite prefix extends to a satisfying word. *)
  Alcotest.(check string) "request_response is liveness" "liveness"
    (Decompose.classification_to_string
       (Decompose.classify Patterns.request_response))

let test_decomposition_extremal () =
  (* Theorem 6: the safety part bcl B is the strongest possible: any
     closed set S with L(B) = S cap Z satisfies bcl B subset S. Sampled
     check with S drawn from our pattern automata. *)
  let b = Patterns.p3 in
  let d = Decompose.decompose b in
  (* p1 is closed and p3 = p1 cap (p3 union complement p1)... simply check
     bcl p3 = p1 is a subset of p1 (trivially) and that the liveness part
     is the weakest: any liveness L with B = bcl B cap L contains B union
     not bcl B. *)
  check "safety part subset p1" true (Lang.subset d.Decompose.safety Patterns.p1);
  check "liveness part contains B" true
    (Lang.sampled_subset ~max_prefix:3 ~max_cycle:3 b d.Decompose.liveness)

let random_buchi seed n =
  Buchi.random ~seed ~alphabet:2 ~nstates:n ~density:0.3
    ~accepting_fraction:0.4 ()

let prop_decomposition_random =
  QCheck.Test.make ~name:"random decomposition: meet recovers language"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, n) ->
      let b = random_buchi seed n in
      let d = Decompose.decompose b in
      Decompose.verify_sampled ~max_prefix:2 ~max_cycle:3 d = [])

let prop_closure_extensive_idempotent =
  QCheck.Test.make ~name:"random bcl: extensive and idempotent" ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, n) ->
      let b = random_buchi seed n in
      let c = Closure.bcl b in
      List.for_all
        (fun w -> (not (Buchi.accepts_lasso b w)) || Buchi.accepts_lasso c w)
        small_lassos
      && Lang.equal (Closure.bcl c) c)

let prop_complement_closed_random =
  QCheck.Test.make ~name:"random closure automaton: safety complement"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, n) ->
      let c = Closure.bcl (random_buchi seed n) in
      let comp = Complement.complement_closed c in
      List.for_all
        (fun w -> Buchi.accepts_lasso comp w = not (Buchi.accepts_lasso c w))
        small_lassos)

let prop_rank_complement_random =
  QCheck.Test.make ~name:"random rank-based complement agrees on lassos"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 1 4))
    (fun (seed, n) ->
      let b = random_buchi seed n in
      match Complement.rank_based ~max_states:100_000 b with
      | comp ->
          List.for_all
            (fun w ->
              Buchi.accepts_lasso comp w = not (Buchi.accepts_lasso b w))
            small_lassos
      | exception Complement.Too_large _ -> QCheck.assume_fail ())

let prop_lemma3_languages =
  QCheck.Test.make ~name:"lemma 3 on language lattice (sampled)" ~count:40
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (s1, s2) ->
      let a = random_buchi s1 4 and b = random_buchi s2 4 in
      let lhs = Closure.bcl (Ops.intersect a b) in
      let rhs = Ops.intersect (Closure.bcl a) (Closure.bcl b) in
      List.for_all
        (fun w ->
          (not (Buchi.accepts_lasso lhs w)) || Buchi.accepts_lasso rhs w)
        small_lassos)

(* --- Monitors ---

   [Sl_buchi.Monitor] compiles; the runtime packs the DFA and steps it,
   so the monitor's behaviour is checked through the packed engine. *)

module Packed_dfa = Sl_runtime.Packed_dfa
module Engine = Sl_runtime.Engine

(* A one-monitor engine and a way to feed it one trace's events. *)
let monitor_engine b =
  let pd = Packed_dfa.of_buchi b in
  let eng = Engine.create ~monitors:[| pd |] () in
  let feed ~trace word =
    let symbols = Array.of_list word in
    let n = Array.length symbols in
    Engine.feed eng ~n ~traces:(Array.make n trace) ~symbols ();
    Engine.verdict eng ~trace ~monitor:0
  in
  (pd, feed)

let test_monitor_safety_policy () =
  let pd, feed = monitor_engine Patterns.no_grant_without_request in
  check "fresh monitor admissible" true (feed ~trace:0 [] = Admissible);
  (* quiet, req, grant: fine. *)
  check "good trace" true (feed ~trace:0 [ 0; 1; 2 ] = Admissible);
  (* A bare grant trips at once: the shortest bad prefix is [0; 2]. *)
  check "bad prefix" true
    (feed ~trace:1 [ 0; 2; 0 ] = Violation { position = 2 });
  (* Tripping is irrevocable. *)
  check "still tripped" true
    (feed ~trace:1 [ 1 ] = Violation { position = 2 });
  check "not vacuous" false pd.Packed_dfa.vacuous

let test_monitor_liveness_is_vacuous () =
  (* Pure liveness has no enforceable content: the monitor never trips. *)
  let pd, feed = monitor_engine Patterns.request_response in
  check "vacuous" true pd.Packed_dfa.vacuous;
  check "nothing bad ever" true (feed ~trace:0 [ 1; 0; 0; 0; 0; 0 ] = Vacuous);
  check "no bad prefix exists" true (Packed_dfa.shortest_bad_prefix pd = None)

let test_monitor_shortest_bad_prefix () =
  let certificate b = Packed_dfa.shortest_bad_prefix (Packed_dfa.of_buchi b) in
  (* For p1 ("first symbol is a") the shortest bad prefix is [b]. *)
  Alcotest.(check (option (list int))) "p1 bad prefix" (Some [ 1 ])
    (certificate Patterns.p1);
  (* For p3 the monitor watches its safety part p1: same bad prefix. *)
  Alcotest.(check (option (list int))) "p3 bad prefix" (Some [ 1 ])
    (certificate Patterns.p3);
  (* The empty property is bad from the start. *)
  Alcotest.(check (option (list int))) "empty property" (Some [])
    (certificate Patterns.p0)

(* --- Generalized Büchi --- *)

module Gnba = Sl_buchi.Gnba

let test_gnba_roundtrip () =
  (* of_buchi then degeneralize preserves the language (k = 1). *)
  List.iter
    (fun (name, _, b) ->
      let g = Gnba.of_buchi b in
      let d = Gnba.degeneralize g in
      List.iter
        (fun w ->
          check (name ^ ": direct = buchi")
            (Buchi.accepts_lasso b w) (Gnba.accepts_lasso g w);
          check (name ^ ": degeneralized = buchi")
            (Buchi.accepts_lasso b w) (Buchi.accepts_lasso d w))
        small_lassos)
    Patterns.rem_examples

let test_gnba_two_sets () =
  (* GF a AND GF b as one automaton with two acceptance sets over a
     single state-per-letter structure. *)
  let g =
    Gnba.make ~alphabet:2 ~nstates:2 ~start:0
      ~delta:[| [| [ 0 ]; [ 1 ] |]; [| [ 0 ]; [ 1 ] |] |]
      ~acceptance:[ [| true; false |]; [| false; true |] ]
  in
  let d = Gnba.degeneralize g in
  List.iter
    (fun w ->
      let expected =
        Lasso.count_letter w 0 = `Infinitely
        && Lasso.count_letter w 1 = `Infinitely
      in
      check "GF a & GF b direct" expected (Gnba.accepts_lasso g w);
      check "GF a & GF b degeneralized" expected (Buchi.accepts_lasso d w))
    lassos;
  check "nonempty" false (Gnba.is_empty g);
  (* Making the two sets disjoint and unreachable-together: empty. *)
  let g2 =
    Gnba.make ~alphabet:2 ~nstates:2 ~start:0
      ~delta:[| [| [ 0 ]; [] |]; [| []; [ 1 ] |] |]
      ~acceptance:[ [| true; false |]; [| false; true |] ]
  in
  check "incompatible sets: empty" true (Gnba.is_empty g2)

let test_gnba_empty_acceptance () =
  (* Empty acceptance list means every run accepts. *)
  let g =
    Gnba.make ~alphabet:2 ~nstates:1 ~start:0
      ~delta:[| [| [ 0 ]; [ 0 ] |] |] ~acceptance:[]
  in
  check "universal" true
    (List.for_all (Gnba.accepts_lasso g) small_lassos)

(* --- Simulation reduction --- *)

module Simulation = Sl_buchi.Simulation

let test_simulation_preserves_language () =
  List.iter
    (fun (name, _, b) ->
      let q = Simulation.quotient b and r = Simulation.reduce b in
      List.iter
        (fun w ->
          check (name ^ ": quotient") (Buchi.accepts_lasso b w)
            (Buchi.accepts_lasso q w);
          check (name ^ ": reduce") (Buchi.accepts_lasso b w)
            (Buchi.accepts_lasso r w))
        small_lassos;
      check (name ^ ": never larger") true (r.Buchi.nstates <= b.Buchi.nstates))
    Patterns.rem_examples

let test_simulation_shrinks_liveness_part () =
  (* The union-built liveness automaton of p3 has mergeable states. *)
  let d = Decompose.decompose Patterns.p3 in
  let reduced = Simulation.reduce d.Decompose.liveness in
  check "strictly smaller" true
    (reduced.Buchi.nstates < d.Decompose.liveness.Buchi.nstates);
  List.iter
    (fun w ->
      check "language kept"
        (Buchi.accepts_lasso d.Decompose.liveness w)
        (Buchi.accepts_lasso reduced w))
    lassos

let prop_simulation_random =
  QCheck.Test.make ~name:"random simulation quotient preserves language"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, n) ->
      let b = random_buchi seed n in
      let r = Simulation.reduce b in
      List.for_all
        (fun w -> Buchi.accepts_lasso b w = Buchi.accepts_lasso r w)
        small_lassos)

let test_language_lattice_instance () =
  (* Run the generic Theorem 2 construction over the automata-backed
     Boolean algebra and verify the decomposition of p3. *)
  let module L = (val Decompose.language_lattice ~alphabet:2) in
  let module T = Sl_core.Theory.Make (L) in
  match T.decompose ~cl2:Decompose.lcl Patterns.p3 with
  | None -> Alcotest.fail "language lattice complement failed"
  | Some d ->
      check "generic decomposition verifies" true
        (T.verify ~cl1:Decompose.lcl ~cl2:Decompose.lcl d = []);
      check "safety part equals bcl p3" true
        (Lang.equal d.Sl_core.Theory.safety (Closure.bcl Patterns.p3));
      check "p3 is not safety in lattice terms" false
        (T.is_safety Decompose.lcl Patterns.p3);
      check "p4 is liveness in lattice terms" true
        (T.is_liveness Decompose.lcl Patterns.p4)

let tests =
  [ Alcotest.test_case "lasso membership vs oracles" `Quick
      test_membership_against_oracles;
    Alcotest.test_case "rename_start / prefix NFA" `Quick
      test_rename_start_and_prefix_nfa;
    Alcotest.test_case "emptiness" `Quick test_emptiness;
    Alcotest.test_case "nonemptiness witnesses" `Quick test_witness;
    Alcotest.test_case "closure of Rem examples" `Quick
      test_closure_rem_examples;
    Alcotest.test_case "closure is a lattice closure" `Quick
      test_closure_is_lattice_closure;
    Alcotest.test_case "closure shape" `Quick test_closure_shape;
    Alcotest.test_case "naive pruning ablation" `Quick
      test_naive_prune_ablation;
    Alcotest.test_case "intersection and union" `Quick
      test_intersect_union_semantics;
    Alcotest.test_case "safety complement" `Quick test_complement_closed;
    Alcotest.test_case "rank-based complement" `Quick
      test_rank_based_complement;
    Alcotest.test_case "subset and equality" `Quick test_subset_equal;
    Alcotest.test_case "Rem classification table" `Quick
      test_classification_rem_table;
    Alcotest.test_case "decomposition of Rem examples" `Quick
      test_decomposition_rem_examples;
    Alcotest.test_case "decomposition of protocols" `Quick
      test_decomposition_protocol;
    Alcotest.test_case "extremal decomposition" `Quick
      test_decomposition_extremal;
    Alcotest.test_case "language lattice instance" `Quick
      test_language_lattice_instance;
    Alcotest.test_case "monitor on safety policy" `Quick
      test_monitor_safety_policy;
    Alcotest.test_case "monitor vacuous on liveness" `Quick
      test_monitor_liveness_is_vacuous;
    Alcotest.test_case "shortest bad prefixes" `Quick
      test_monitor_shortest_bad_prefix;
    Alcotest.test_case "gnba roundtrip" `Quick test_gnba_roundtrip;
    Alcotest.test_case "gnba with two sets" `Quick test_gnba_two_sets;
    Alcotest.test_case "gnba empty acceptance" `Quick
      test_gnba_empty_acceptance;
    Alcotest.test_case "simulation preserves language" `Quick
      test_simulation_preserves_language;
    Alcotest.test_case "simulation shrinks liveness part" `Quick
      test_simulation_shrinks_liveness_part;
    QCheck_alcotest.to_alcotest prop_simulation_random;
    QCheck_alcotest.to_alcotest prop_decomposition_random;
    QCheck_alcotest.to_alcotest prop_closure_extensive_idempotent;
    QCheck_alcotest.to_alcotest prop_complement_closed_random;
    QCheck_alcotest.to_alcotest prop_rank_complement_random;
    QCheck_alcotest.to_alcotest prop_lemma3_languages;
    Alcotest.test_case "negate complements membership" `Quick
      test_negate_complements ]
