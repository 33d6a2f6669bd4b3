(* Cross-library integration checks: the same mathematical objects viewed
   through different substrates must agree. *)

module Lattice = Sl_lattice.Lattice
module Named = Sl_lattice.Named
module Lclosure = Sl_lattice.Closure
module Galois = Sl_lattice.Galois
module Birkhoff = Sl_lattice.Birkhoff
module Poset = Sl_order.Poset
module Finite_check = Sl_core.Finite_check
module Lasso = Sl_word.Lasso
module Buchi = Sl_buchi.Buchi
module Decompose = Sl_buchi.Decompose
module Packed_dfa = Sl_runtime.Packed_dfa
module Engine = Sl_runtime.Engine
module Formula = Sl_ltl.Formula
module Semantics = Sl_ltl.Semantics
module Translate = Sl_ltl.Translate
module Lexamples = Sl_ltl.Examples
module Modelcheck = Sl_ltl.Modelcheck
module Kripke = Sl_kripke.Kripke
module Ptree = Sl_tree.Ptree
module Cexamples = Sl_ctl.Examples
module Tclosure = Sl_tree.Tclosure

let check = Alcotest.(check bool)

let lassos = Lasso.enumerate ~alphabet:2 ~max_prefix:2 ~max_cycle:3

(* 1. Monitors never reject prefixes of accepted words, and always reject
   some prefix of safety-violating words. Each lasso's first 8 symbols
   are one trace of the packed engine. *)
let test_monitor_vs_membership () =
  List.iter
    (fun (name, f) ->
      let b = Lexamples.automaton f in
      let safety = Sl_buchi.Closure.bcl b in
      let eng = Engine.create ~monitors:[| Packed_dfa.of_buchi b |] () in
      List.iteri
        (fun trace w ->
          let symbols = Array.of_list (Lasso.first_n w 8) in
          Engine.feed eng ~n:8 ~traces:(Array.make 8 trace) ~symbols ();
          let tripped =
            match Engine.verdict eng ~trace ~monitor:0 with
            | Engine.Violation _ -> true
            | _ -> false
          in
          if Buchi.accepts_lasso b w then
            check (name ^ ": member never tripped") false tripped;
          if not (Buchi.accepts_lasso safety w) then
            check (name ^ ": safety violator tripped") true tripped)
        lassos)
    Lexamples.all

(* 2. Model checking = universal truth over the structure's lasso paths. *)
let test_modelcheck_vs_path_semantics () =
  let k = Kripke.token_ring 3 in
  let props = [ "tok0"; "tok1"; "tok2" ] in
  let v = Semantics.subset_valuation props in
  let symbol_of_state q =
    List.fold_left
      (fun acc (i, p) -> if Kripke.holds k q p then acc lor (1 lsl i) else acc)
      0
      (List.mapi (fun i p -> (i, p)) props)
  in
  let path_words =
    List.map
      (fun (spoke, cycle) ->
        Lasso.make
          ~prefix:(List.map symbol_of_state spoke)
          ~cycle:(List.map symbol_of_state cycle))
      (Kripke.lasso_paths k ~from:k.Kripke.initial ~max_len:6)
  in
  check "ring has lasso paths" true (path_words <> []);
  List.iter
    (fun s ->
      let f = Formula.parse_exn s in
      let by_product =
        Modelcheck.check k ~alphabet:8 ~valuation:v f = Modelcheck.Holds
      in
      let by_paths = List.for_all (fun w -> Semantics.eval v f w) path_words in
      (* The deterministic ring has exactly one run, so lasso paths are
         exhaustive and the two must coincide. *)
      check ("paths vs product: " ^ s) by_paths by_product)
    [ "G F tok0"; "F G tok0"; "G (tok0 -> X tok1)"; "G (tok0 -> X tok2)";
      "tok0 U tok1" ]

(* 3. Classification is consistent across levels: formula (through the
   negation's automaton), automaton (through the rank-based complement)
   and abstract lattice, on every one of Rem's p0-p6. *)
let test_classification_three_ways () =
  List.iter
    (fun (name, f) ->
      let b = Lexamples.automaton f in
      let by_formula = Lexamples.classify f in
      let by_automaton = Decompose.classify b in
      Alcotest.(check string)
        (name ^ ": formula vs automaton")
        (Decompose.classification_to_string by_formula)
        (Decompose.classification_to_string by_automaton);
      (* Lattice view: safety iff the element equals its closure, decided
         by the generic predicates over the language lattice. *)
      let module L = (val Decompose.language_lattice ~alphabet:2) in
      let module T = Sl_core.Theory.Make (L) in
      let lattice_safety = T.is_safety Decompose.lcl b in
      let lattice_liveness = T.is_liveness Decompose.lcl b in
      check (name ^ ": lattice safety")
        (by_formula = Decompose.Safety || by_formula = Decompose.Both)
        lattice_safety;
      check (name ^ ": lattice liveness")
        (by_formula = Decompose.Liveness || by_formula = Decompose.Both)
        lattice_liveness)
    Lexamples.all

(* 4. Random distributive lattices via Birkhoff: theorems hold with
   randomly chosen closures. *)
let prop_random_distributive_lattices =
  QCheck.Test.make ~name:"theorems on random Birkhoff lattices" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      (* Random poset on 3 points -> its downset lattice (distributive,
         size <= 8). *)
      let n = 3 in
      let covers =
        List.concat
          (List.init n (fun i ->
               List.filteri (fun j _ -> j > i)
                 (List.init n (fun j -> (i, j)))
               |> List.filter (fun _ -> Random.State.bool st)))
      in
      let poset = Poset.of_covers ~size:n ~covers in
      let l, _ = Birkhoff.downset_lattice poset in
      QCheck.assume (Lattice.is_complemented l);
      (* A random closure: a random subset of elements as closed seeds. *)
      let seeds =
        List.filter (fun _ -> Random.State.bool st) (Lattice.elements l)
      in
      let cl = Lclosure.of_closed_set l seeds in
      Finite_check.check_theorem2 l cl = Ok ()
      && Finite_check.check_theorem7 l ~cl1:cl ~cl2:cl = Ok ()
      && Finite_check.check_theorem8 l ~cl1:cl ~cl2:cl = Ok ())

(* Downset lattices are only complemented when the poset is an antichain;
   sample with relaxed assumption instead: drop to theorem 6 (no
   complementation needed) when not complemented. *)
let prop_random_distributive_theorem6 =
  QCheck.Test.make ~name:"theorem 6 on random Birkhoff lattices" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 in
      let covers =
        List.concat
          (List.init n (fun i ->
               List.filteri (fun j _ -> j > i)
                 (List.init n (fun j -> (i, j)))
               |> List.filter (fun _ -> Random.State.bool st)))
      in
      let poset = Poset.of_covers ~size:n ~covers in
      let l, _ = Birkhoff.downset_lattice poset in
      let seeds =
        List.filter (fun _ -> Random.State.bool st) (Lattice.elements l)
      in
      let cl = Lclosure.of_closed_set l seeds in
      Finite_check.check_theorem6 l ~cl1:cl ~cl2:cl = Ok ())

(* 5. The Galois-induced lcl closure fits the decomposition theorem on the
   observation powerset. *)
let test_galois_closure_theorem2 () =
  let c = Galois.lcl_connection ~max_len:2 ~alphabet:2 in
  let l = Lattice.of_poset c.Galois.left in
  let cl = Lclosure.make l (Galois.closure_of c) in
  Alcotest.(check
              (result unit (Alcotest.testable Fmt.string ( = ))))
    "theorem 2 for the Galois lcl" (Ok ())
    (Finite_check.check_theorem2 l cl)

(* 6. Words as unary trees: the branching q-properties restricted to
   spine trees coincide with the linear p-properties on the corresponding
   lasso words. *)
let spine_of_lasso w =
  (* One Ptree state per distinct position; child 0 follows the word,
     child 1 absent. *)
  let total = Lasso.total_length w in
  let spoke = Lasso.spoke w in
  let next p = if p + 1 < total then p + 1 else spoke in
  Ptree.make ~k:2 ~nstates:total ~root:0
    ~label:(Array.init total (Lasso.at w))
    ~children:(Array.init total (fun p -> [| Some (next p); None |]))

let test_words_as_unary_trees () =
  let v = Lexamples.valuation in
  let cases =
    [ (Cexamples.q1, Lexamples.p1); (Cexamples.q2, Lexamples.p2);
      (Cexamples.q3a, Lexamples.p3); (Cexamples.q3b, Lexamples.p3);
      (Cexamples.q4a, Lexamples.p4); (Cexamples.q4b, Lexamples.p4);
      (Cexamples.q5a, Lexamples.p5); (Cexamples.q5b, Lexamples.p5) ]
  in
  List.iter
    (fun w ->
      let tree = spine_of_lasso w in
      List.iter
        (fun (q, p) ->
          check
            (Printf.sprintf "%s on %s" q.Tclosure.name (Lasso.to_string w))
            (Semantics.eval v p w)
            (q.Tclosure.mem tree))
        cases)
    lassos

let tests =
  [ Alcotest.test_case "monitors vs membership" `Slow
      test_monitor_vs_membership;
    Alcotest.test_case "model checking vs path semantics" `Quick
      test_modelcheck_vs_path_semantics;
    Alcotest.test_case "classification three ways" `Slow
      test_classification_three_ways;
    QCheck_alcotest.to_alcotest prop_random_distributive_lattices;
    QCheck_alcotest.to_alcotest prop_random_distributive_theorem6;
    Alcotest.test_case "Galois lcl satisfies theorem 2" `Quick
      test_galois_closure_theorem2;
    Alcotest.test_case "words as unary trees" `Quick
      test_words_as_unary_trees ]
