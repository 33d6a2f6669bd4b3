(* The bitset state-set kernel, and agreement of the optimized hot paths
   (subset construction, on-the-fly product, hash-interned rank-based
   complementation) with the seed's naive reference implementations
   (test/reference), on seeded random automata. *)

module Bitset = Sl_core.Bitset
module Nfa = Sl_nfa.Nfa
module Dfa = Sl_nfa.Dfa
module Lasso = Sl_word.Lasso
module Buchi = Sl_buchi.Buchi
module Ops = Sl_buchi.Ops
module Complement = Sl_buchi.Complement
module Nfa_ref = Reference.Nfa_ref
module Ops_ref = Reference.Ops_ref
module Complement_ref = Reference.Complement_ref

let check = Alcotest.(check bool)

(* --- Bitset kernel unit tests --- *)

let test_bitset_basics () =
  let s = Bitset.create 200 in
  check "fresh set empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  check "mem 0" true (Bitset.mem s 0);
  check "mem 63 (word boundary)" true (Bitset.mem s 63);
  check "mem 64" true (Bitset.mem s 64);
  check "mem 199" true (Bitset.mem s 199);
  check "not mem 100" false (Bitset.mem s 100);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 63; 64; 199 ]
    (Bitset.to_list s);
  Bitset.remove s 63;
  check "removed" false (Bitset.mem s 63);
  Alcotest.check_raises "out of range" (Invalid_argument
                                          "Bitset: element out of range")
    (fun () -> Bitset.add s 200)

let test_bitset_algebra () =
  let a = Bitset.of_list 130 [ 1; 5; 64; 129 ] in
  let b = Bitset.of_list 130 [ 5; 7; 129 ] in
  Alcotest.(check (list int)) "union" [ 1; 5; 7; 64; 129 ]
    (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 5; 129 ]
    (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 64 ]
    (Bitset.to_list (Bitset.diff a b));
  check "subset of union" true (Bitset.subset a (Bitset.union a b));
  check "not subset" false (Bitset.subset a b);
  check "equal reflexive" true (Bitset.equal a (Bitset.copy a));
  check "hash agrees on equal sets" true
    (Bitset.hash a = Bitset.hash (Bitset.of_list 130 [ 129; 64; 5; 1 ]))

let test_bitset_fold_iter () =
  let a = Bitset.of_list 70 [ 2; 3; 68 ] in
  Alcotest.(check int) "fold sum" 73 (Bitset.fold ( + ) a 0);
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) a;
  Alcotest.(check (list int)) "iter ascending" [ 68; 3; 2 ] !seen;
  check "exists" true (Bitset.exists (fun i -> i > 67) a);
  check "exists false" false (Bitset.exists (fun i -> i > 68) a)

let test_interner () =
  let module I = Bitset.Interner in
  let t = I.create () in
  let a = Bitset.of_list 100 [ 1; 99 ] in
  let b = Bitset.of_list 100 [ 2 ] in
  Alcotest.(check int) "first id" 0 (I.intern t a);
  Alcotest.(check int) "second id" 1 (I.intern t b);
  Alcotest.(check int) "re-intern equal set" 0
    (I.intern t (Bitset.of_list 100 [ 99; 1 ]));
  Alcotest.(check int) "count" 2 (I.count t);
  check "get returns the set" true (Bitset.equal a (I.get t 0));
  Alcotest.(check (option int)) "find_opt hit" (Some 1) (I.find_opt t b);
  Alcotest.(check (option int)) "find_opt miss" None
    (I.find_opt t (Bitset.of_list 100 [ 3 ]))

(* --- Optimized vs reference agreement, on seeded random automata --- *)

let random_nfa seed n density =
  let b =
    Buchi.random ~seed ~alphabet:2 ~nstates:n ~density ~accepting_fraction:0.4
      ()
  in
  (* Reuse the Büchi random graph as an NFA with its accepting set. *)
  Nfa.make ~alphabet:2 ~nstates:n ~starts:[ 0 ] ~delta:b.Buchi.delta
    ~accepting:b.Buchi.accepting

let prop_determinize_agrees_with_ref =
  QCheck.Test.make ~name:"determinize = determinize_ref (language)" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 1 10))
    (fun (seed, n) ->
      let nfa = random_nfa seed n 0.25 in
      Dfa.equivalent (Nfa.determinize nfa) (Nfa_ref.determinize nfa))

let prop_determinize_same_size =
  (* Both constructions reach exactly the same subset states, so the DFAs
     have the same state count even before minimization. *)
  QCheck.Test.make ~name:"determinize reaches the same subset states"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 1 10))
    (fun (seed, n) ->
      let nfa = random_nfa seed n 0.25 in
      (Nfa.determinize nfa).Dfa.nstates
      = (Nfa_ref.determinize nfa).Dfa.nstates)

let small_lassos = Lasso.enumerate ~alphabet:2 ~max_prefix:2 ~max_cycle:2

let random_buchi seed n =
  Buchi.random ~seed ~alphabet:2 ~nstates:n ~density:0.3
    ~accepting_fraction:0.4 ()

let prop_intersect_agrees_with_full =
  QCheck.Test.make ~name:"intersect = intersect_full (per lasso)" ~count:40
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (s1, s2) ->
      let a = random_buchi s1 4 and b = random_buchi s2 5 in
      let on_the_fly = Ops.intersect a b in
      let full = Ops_ref.intersect_full a b in
      List.for_all
        (fun w ->
          Buchi.accepts_lasso on_the_fly w = Buchi.accepts_lasso full w)
        small_lassos)

let prop_intersect_reachable_only =
  QCheck.Test.make ~name:"intersect allocates only reachable states"
    ~count:40
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (s1, s2) ->
      let a = random_buchi s1 4 and b = random_buchi s2 5 in
      let on_the_fly = Ops.intersect a b in
      let reach = Buchi.reachable on_the_fly in
      on_the_fly.Buchi.nstates <= a.Buchi.nstates * b.Buchi.nstates * 2
      && Array.for_all Fun.id reach)

let prop_rank_based_agrees_with_ref =
  QCheck.Test.make ~name:"rank_based = rank_based_ref (exact automaton)"
    ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let b = random_buchi seed 3 in
      let opt = Complement.rank_based b in
      let reference = Complement_ref.rank_based b in
      (* Identical breadth-first exploration: the automata are equal
         structurally, not just language-equal. *)
      opt.Buchi.nstates = reference.Buchi.nstates
      && opt.Buchi.start = reference.Buchi.start
      && opt.Buchi.delta = reference.Buchi.delta
      && opt.Buchi.accepting = reference.Buchi.accepting)

let prop_rank_based_is_complement =
  QCheck.Test.make ~name:"rank_based complements membership (per lasso)"
    ~count:15
    QCheck.(int_bound 100_000)
    (fun seed ->
      let b = random_buchi seed 3 in
      let c = Complement.rank_based b in
      List.for_all
        (fun w -> Buchi.accepts_lasso c w = not (Buchi.accepts_lasso b w))
        small_lassos)

let tests =
  [ Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset algebra" `Quick test_bitset_algebra;
    Alcotest.test_case "bitset fold/iter" `Quick test_bitset_fold_iter;
    Alcotest.test_case "interner" `Quick test_interner;
    QCheck_alcotest.to_alcotest prop_determinize_agrees_with_ref;
    QCheck_alcotest.to_alcotest prop_determinize_same_size;
    QCheck_alcotest.to_alcotest prop_intersect_agrees_with_full;
    QCheck_alcotest.to_alcotest prop_intersect_reachable_only;
    QCheck_alcotest.to_alcotest prop_rank_based_agrees_with_ref;
    QCheck_alcotest.to_alcotest prop_rank_based_is_complement ]
