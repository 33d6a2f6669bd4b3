module Kripke = Sl_kripke.Kripke
module Ctl = Sl_ctl.Ctl
module Fair = Sl_ctl.Fair
module Ctlstar = Sl_ctl.Ctlstar
module Examples = Sl_ctl.Examples
module Tclosure = Sl_tree.Tclosure

let check = Alcotest.(check bool)

let test_parser () =
  List.iter
    (fun s ->
      match Ctl.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok f -> (
          match Ctl.parse (Ctl.to_string f) with
          | Ok f' when f = f' -> ()
          | Ok f' ->
              Alcotest.failf "roundtrip %S -> %s" s (Ctl.to_string f')
          | Error e -> Alcotest.failf "reparse: %s" e))
    [ "AG !(c1 & c2)"; "AG (t1 -> AF c1)"; "E (a U b)"; "A (a U b)";
      "EX a | AX b"; "EF EG a"; "true -> AG false" ];
  check "reject E without U" true (Result.is_error (Ctl.parse "E a"));
  check "reject bad arrow" true (Result.is_error (Ctl.parse "a - b"))

(* A small diamond structure for hand-checked facts:
   0 -> 1, 0 -> 2; 1 -> 3; 2 -> 3; 3 -> 3.  p at 1, 3; q at 2. *)
let diamond =
  Kripke.make ~nstates:4 ~initial:0
    ~successors:[| [ 1; 2 ]; [ 3 ]; [ 3 ]; [ 3 ] |]
    ~ap:[| "p"; "q" |]
    ~labels:
      [| [| false; false |]; [| true; false |]; [| false; true |];
         [| true; false |] |]

let test_modalities () =
  let holds s = Ctl.holds diamond (Ctl.parse_exn s) in
  check "EX p" true (holds "EX p");
  check "AX p" false (holds "AX p");
  check "EX q" true (holds "EX q");
  check "EF q" true (holds "EF q");
  check "AF p" true (holds "AF p") (* both branches reach p *);
  check "AG p" false (holds "AG p");
  check "EG !q" true (holds "EG !q") (* via 1 then 3 forever *);
  check "AF q" false (holds "AF q");
  check "E (true U q)" true (holds "E (true U q)");
  check "A (true U p)" true (holds "A (true U p)");
  check "E (!p U q)" true (holds "E (!p U q)");
  check "A (!p U q)" false (holds "A (!p U q)")

let test_ag_ax_fact () =
  (* State-by-state check of AG (p -> AX p): p holds at 1 and 3, and all
     their successors satisfy p, so the formula holds everywhere. *)
  let v = Ctl.sat diamond (Ctl.parse_exn "AG (p -> AX p)") in
  Alcotest.(check (array bool)) "AG (p -> AX p) everywhere"
    [| true; true; true; true |] v

let test_dualities () =
  (* On random structures: AG f = !EF !f, AF f = !EG !f, AX f = !EX !f. *)
  List.iter
    (fun seed ->
      let k = Kripke.random ~seed ~nstates:6 ~ap:[| "p"; "q" |]
          ~density:0.3 () in
      let f = Ctl.parse_exn "p -> EX q" in
      let eq a b = Ctl.sat k a = Ctl.sat k b in
      check "AG dual" true (eq (Ctl.AG f) (Ctl.Not (Ctl.EF (Ctl.Not f))));
      check "AF dual" true (eq (Ctl.AF f) (Ctl.Not (Ctl.EG (Ctl.Not f))));
      check "AX dual" true (eq (Ctl.AX f) (Ctl.Not (Ctl.EX (Ctl.Not f))));
      check "EF via EU" true (eq (Ctl.EF f) (Ctl.EU (Ctl.True, f)));
      check "AU expansion" true
        (eq
           (Ctl.AU (Ctl.Prop "p", Ctl.Prop "q"))
           (Ctl.Or
              (Ctl.Prop "q",
               Ctl.And (Ctl.Prop "p", Ctl.AX (Ctl.AU (Ctl.Prop "p", Ctl.Prop "q")))))))
    [ 1; 2; 3; 4; 5 ]

let test_mutex_properties () =
  let k = Kripke.mutex () in
  let holds s = Ctl.holds k (Ctl.parse_exn s) in
  check "safety: AG !(c1 & c2)" true (holds "AG !(c1 & c2)");
  check "liveness: AG (t1 -> AF c1)" true (holds "AG (t1 -> AF c1)");
  check "liveness: AG (t2 -> AF c2)" true (holds "AG (t2 -> AF c2)");
  check "non-blocking: AG (n1 -> EF t1)" true (holds "AG (n1 -> EF t1)");
  (* Without the trying step a process cannot enter. *)
  check "AG (n1 -> !EX c1)" true (holds "AG (n1 -> !EX c1)");
  check "not AF c1 (may idle in n)" false (holds "AF c1");
  check "EF c1" true (holds "EF c1")

let test_peterson_properties () =
  let k = Kripke.peterson () in
  let holds s = Ctl.holds k (Ctl.parse_exn s) in
  (* The algorithm's safety theorem. *)
  check "mutual exclusion" true (holds "AG !(c1 & c2)");
  check "reachable criticals" true (holds "EF c1 & EF c2");
  (* Raw interleaving admits starvation... *)
  check "starvation possible" false (holds "AG (wait1 -> AF c1)");
  (* ...but a waiting process can always eventually get in... *)
  check "entry always possible" true (holds "AG (wait1 -> EF c1)");
  (* ...and under fairness on process 1's progress it must. *)
  let progress1 =
    [ Array.init k.Kripke.nstates (fun q ->
          Kripke.holds k q "c1" || Kripke.holds k q "idle1") ]
  in
  check "fair entry" true
    (Fair.holds k progress1 (Ctl.parse_exn "AG (wait1 -> AF c1)"))

let test_bounded_buffer_properties () =
  let k = Kripke.bounded_buffer ~capacity:2 in
  let holds s = Ctl.holds k (Ctl.parse_exn s) in
  check "can fill" true (holds "EF full");
  check "can always drain" true (holds "AG EF empty");
  check "full is escapable" true (holds "AG (full -> EX !full)");
  check "not always eventually full" false (holds "AF full")

let test_philosophers_properties () =
  let k = Kripke.dining_philosophers 3 in
  let holds s = Ctl.holds k (Ctl.parse_exn s) in
  check "some philosopher can eat" true (holds "EF eat0");
  check "no adjacent eating" true (holds "AG !(eat0 & eat1)");
  check "hungry may starve (no fairness)" false
    (holds "AG (hungry0 -> AF eat0)");
  check "hungry can eventually eat" true
    (holds "AG (hungry0 -> EF eat0)")

let test_ctlstar_limits () =
  let k = Kripke.token_ring 3 in
  let tok0 = Ctlstar.prop_pred k "tok0" in
  check "ring: AGF tok0" true (Ctlstar.a_gf k ~pred:tok0).(0);
  check "ring: not EFG tok0" false (Ctlstar.e_fg k ~pred:tok0).(0);
  check "ring: EGF tok0" true (Ctlstar.e_gf k ~pred:tok0).(0);
  check "ring: not AFG tok0" false (Ctlstar.a_fg k ~pred:tok0).(0);
  (* Branching case: diamond with a p-cycle on one side only. *)
  let k2 =
    Kripke.make ~nstates:3 ~initial:0
      ~successors:[| [ 1; 2 ]; [ 1 ]; [ 2 ] |]
      ~ap:[| "p" |]
      ~labels:[| [| false |]; [| true |]; [| false |] |]
  in
  let p = Ctlstar.prop_pred k2 "p" in
  check "EGF p (go left)" true (Ctlstar.e_gf k2 ~pred:p).(0);
  check "not AGF p (go right)" false (Ctlstar.a_gf k2 ~pred:p).(0);
  check "EFG p" true (Ctlstar.e_fg k2 ~pred:p).(0);
  check "EFG !p" true
    (Ctlstar.e_fg k2 ~pred:(fun q -> not (p q))).(0);
  check "not AFG p" false (Ctlstar.a_fg k2 ~pred:p).(0)

(* --- Witness extraction --- *)

module Witness = Sl_ctl.Witness

let test_witness_extraction () =
  let k = Kripke.mutex () in
  let q0 = k.Kripke.initial in
  (* EF c1 holds: witness reaches a c1 state. *)
  (match Witness.witness k (Ctl.parse_exn "EF c1") q0 with
  | None -> Alcotest.fail "EF c1 should have a witness"
  | Some p ->
      check "EF path valid" true (Witness.check_path k p);
      check "EF path hits c1" true
        (List.exists (fun s -> Kripke.holds k s "c1")
           (p.Witness.spoke @ p.Witness.cycle)));
  (* EG !c1 holds (idle forever): all states on the path satisfy !c1. *)
  (match Witness.witness k (Ctl.parse_exn "EG !c1") q0 with
  | None -> Alcotest.fail "EG !c1 should have a witness"
  | Some p ->
      check "EG path valid" true (Witness.check_path k p);
      check "EG path avoids c1" true
        (List.for_all (fun s -> not (Kripke.holds k s "c1"))
           (p.Witness.spoke @ p.Witness.cycle)));
  (* E (!c1 U c1): until witness. *)
  (match Witness.witness k (Ctl.parse_exn "E (!c1 U c1)") q0 with
  | None -> Alcotest.fail "EU should have a witness"
  | Some p ->
      check "EU path valid" true (Witness.check_path k p);
      let rec demonstrates i =
        if Kripke.holds k (Witness.states_of_path p i) "c1" then true
        else if i > k.Kripke.nstates + 2 then false
        else
          (not (Kripke.holds k (Witness.states_of_path p i) "c1"))
          && demonstrates (i + 1)
      in
      check "EU path demonstrates" true (demonstrates 0));
  (* EG c1 fails at the initial state: no witness. *)
  check "no witness for EG c1" true
    (Witness.witness k (Ctl.parse_exn "EG c1") q0 = None)

let test_counterexamples () =
  let k = Kripke.mutex () in
  let q0 = k.Kripke.initial in
  (* AF c1 fails; counterexample: a path avoiding c1 forever. *)
  (match Witness.counterexample k (Ctl.parse_exn "AF c1") q0 with
  | None -> Alcotest.fail "AF c1 should be refuted"
  | Some p ->
      check "cex valid" true (Witness.check_path k p);
      check "cex avoids c1" true
        (List.for_all (fun s -> not (Kripke.holds k s "c1"))
           (p.Witness.spoke @ p.Witness.cycle)));
  (* AG !(c1 & c2) holds: no counterexample. *)
  check "no cex for mutual exclusion" true
    (Witness.counterexample k (Ctl.parse_exn "AG !(c1 & c2)") q0 = None);
  (* A (n1 U c1) fails (may never leave n1... and c1 unreachable without
     t1): some counterexample exists. *)
  match Witness.counterexample k (Ctl.parse_exn "A (n1 U c1)") q0 with
  | None -> Alcotest.fail "AU should be refuted"
  | Some p -> check "AU cex valid" true (Witness.check_path k p)

(* At every state of a random structure, a witness exists exactly where
   the formula holds, starts at that state, and shows the formula on the
   path itself: EF reaches p, EG stays in p (cycle included), E (p U q)
   reaches q through p, EX steps to q. *)
let prop_witness_random =
  QCheck.Test.make ~name:"random structures: witnesses are valid paths"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k = Kripke.random ~seed ~nstates:6 ~ap:[| "p"; "q" |]
          ~density:0.3 () in
      let p s = Kripke.holds k s "p" and q s = Kripke.holds k s "q" in
      let states w = w.Witness.spoke @ w.Witness.cycle in
      let rec until = function
        | [] -> false
        | s :: rest -> q s || (p s && until rest)
      in
      let shows =
        [ ("EF p", fun w -> List.exists p (states w));
          ("EG p", fun w -> List.for_all p (states w));
          ("E (p U q)", fun w -> until (states w));
          ("EX q", fun w ->
             match states w with _ :: s :: _ -> q s | _ -> false) ]
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun (f, shows) ->
              let f = Ctl.parse_exn f in
              match Witness.witness k f s with
              | Some w ->
                  (Ctl.sat k f).(s) && Witness.check_path k w
                  && List.hd (states w) = s && shows w
              | None -> not (Ctl.sat k f).(s))
            shows)
        (List.init k.Kripke.nstates Fun.id))

(* The CTL* limit modalities against SCC analysis on the kernel graph:
   E GF p iff a p-state of a nontrivial component is reachable, E FG p
   iff a nontrivial component of the p-restricted graph is. *)
let prop_ctlstar_vs_sccs =
  QCheck.Test.make ~count:200
    ~name:"random structures: CTL* limit modalities = SCC oracle"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let module Digraph = Sl_core.Digraph in
      let k =
        Kripke.random ~seed ~nstates:(1 + (seed mod 8)) ~ap:[| "p" |]
          ~density:0.25 ()
      in
      let pred = Ctlstar.prop_pred k "p" in
      let g = Kripke.graph k in
      let reaches_cycle ?filter () =
        let r = Digraph.sccs ?filter g in
        Digraph.reachable_from (Digraph.reverse g)
          (Array.init k.Kripke.nstates (fun s ->
               pred s && r.Digraph.comp.(s) >= 0
               && r.Digraph.nontrivial.(r.Digraph.comp.(s))))
      in
      Ctlstar.e_gf k ~pred = reaches_cycle ()
      && Ctlstar.e_fg k ~pred = reaches_cycle ~filter:pred ())

(* --- Fair CTL --- *)

let test_fair_degenerates_to_ctl () =
  (* Empty constraints: fair CTL = CTL on every state. *)
  List.iter
    (fun seed ->
      let k = Kripke.random ~seed ~nstates:6 ~ap:[| "p"; "q" |]
          ~density:0.3 () in
      List.iter
        (fun s ->
          let f = Ctl.parse_exn s in
          Alcotest.(check (array bool))
            ("no constraints: " ^ s)
            (Ctl.sat k f) (Fair.sat k [] f))
        [ "EG p"; "AF q"; "E (p U q)"; "A (p U q)"; "AG (p -> EX q)" ])
    [ 11; 12; 13 ]

let test_fair_textbook () =
  (* 0(p) -> 0, 0 -> 1(q), 1 -> 1. Under the constraint "visit state 1
     infinitely often", the lazy self-loop at 0 is unfair. *)
  let k =
    Kripke.make ~nstates:2 ~initial:0
      ~successors:[| [ 0; 1 ]; [ 1 ] |]
      ~ap:[| "p"; "q" |]
      ~labels:[| [| true; false |]; [| false; true |] |]
  in
  let c = [ [| false; true |] ] in
  check "classically EG p" true (Ctl.holds k (Ctl.parse_exn "EG p"));
  check "fairly not EG p" false (Fair.holds k c (Ctl.parse_exn "EG p"));
  check "classically not AF q" false (Ctl.holds k (Ctl.parse_exn "AF q"));
  check "fairly AF q" true (Fair.holds k c (Ctl.parse_exn "AF q"));
  (* Both states start fair paths. *)
  Alcotest.(check (array bool)) "fair states" [| true; true |]
    (Fair.fair_states k c);
  (* An unsatisfiable constraint kills all fair paths. *)
  Alcotest.(check (array bool)) "no fair paths"
    [| false; false |]
    (Fair.fair_states k [ [| false; false |] ])

let test_fair_mutex_progress () =
  (* Classically a process may idle in its non-critical section forever,
     so AF c1 fails; requiring the scheduler to see process 1 trying or
     critical infinitely often forces entry. *)
  let k = Kripke.mutex () in
  let trying_or_critical =
    Array.init k.Kripke.nstates (fun q ->
        Kripke.holds k q "t1" || Kripke.holds k q "c1")
  in
  check "classically not AF c1" false (Ctl.holds k (Ctl.parse_exn "AF c1"));
  check "fairly AF c1" true
    (Fair.holds k [ trying_or_critical ] (Ctl.parse_exn "AF c1"));
  (* Safety is unaffected by fairness. *)
  check "fair safety" true
    (Fair.holds k [ trying_or_critical ] (Ctl.parse_exn "AG !(c1 & c2)"))

let test_fair_philosophers () =
  (* Weak move-fairness is not enough against the adversarial scheduler,
     but requiring philosopher 0 to eat-or-think infinitely often
     trivially yields progress; the interesting direction is that plain
     hunger-fairness on OTHERS does not help. *)
  let k = Kripke.dining_philosophers 3 in
  let eats0 = Fair.constraint_of_prop k "eat0" in
  check "with own eating fair, AF eat0 from hungry" true
    (Fair.holds k [ eats0 ] (Ctl.parse_exn "AG (hungry0 -> AF eat0)"));
  check "classically starvation possible" false
    (Ctl.holds k (Ctl.parse_exn "AG (hungry0 -> AF eat0)"))

(* --- The Section 4.3 table --- *)

let expect name es us el ul (rows : Examples.row list) =
  let r =
    List.find (fun r -> r.Examples.property.Tclosure.name = name) rows
  in
  let c = r.Examples.classification in
  Alcotest.(check (list bool))
    (name ^ " ES/US/EL/UL")
    [ es; us; el; ul ]
    [ c.Tclosure.existentially_safe; c.Tclosure.universally_safe;
      c.Tclosure.existentially_live; c.Tclosure.universally_live ]

let test_q_table () =
  let rows = Examples.table ~max_depth:3 () in
  (*              ES     US     EL     UL  *)
  expect "q0" true true false false rows;
  expect "q1" true true false false rows;
  expect "q2" true true false false rows;
  expect "q3a" false false false false rows;
  expect "q3b" false false false false rows;
  expect "q4a" false false false true rows;
  expect "q4b" false false true true rows;
  expect "q5a" false false false true rows;
  expect "q5b" false false true true rows;
  expect "q6" true true true true rows

let test_paper_closure_facts () =
  let sample = Examples.sample in
  let fcl p = Tclosure.fcl_mem p ~max_depth:3 in
  let ncl p = Tclosure.ncl_mem p ~max_depth:3 in
  (* fcl.q3a = q1 (Section 4.3). *)
  check "fcl q3a = q1" true
    (List.for_all
       (fun y -> fcl Examples.q3a y = Examples.q1.Tclosure.mem y)
       sample);
  (* ncl.q3b = q1 and fcl.q3b = q1. *)
  check "ncl q3b = q1" true
    (List.for_all
       (fun y -> ncl Examples.q3b y = Examples.q1.Tclosure.mem y)
       sample);
  check "fcl q3b = q1" true
    (List.for_all
       (fun y -> fcl Examples.q3b y = Examples.q1.Tclosure.mem y)
       sample);
  (* ncl.q3a is strictly between: it differs from q1 (the paper's
     two-path witness) and from q3a (sequences). *)
  check "ncl q3a <> q1" true
    (List.exists
       (fun y -> ncl Examples.q3a y <> Examples.q1.Tclosure.mem y)
       sample);
  check "ncl q3a <> q3a" true
    (List.exists
       (fun y -> ncl Examples.q3a y <> Examples.q3a.Tclosure.mem y)
       sample);
  (* fcl.q4a = fcl.q5a = A_tot but ncl differs (the same witness). *)
  check "fcl q4a total" true (List.for_all (fcl Examples.q4a) sample);
  check "fcl q5a total" true (List.for_all (fcl Examples.q5a) sample);
  check "ncl q4a not total" true
    (not (List.for_all (ncl Examples.q4a) sample));
  check "ncl q5a not total" true
    (not (List.for_all (ncl Examples.q5a) sample));
  (* ncl.q4b = ncl.q5b = A_tot. *)
  check "ncl q4b total" true (List.for_all (ncl Examples.q4b) sample);
  check "ncl q5b total" true (List.for_all (ncl Examples.q5b) sample)

let test_closure_lattice_facts () =
  (* Pointwise ncl <= fcl (more prefixes to satisfy) and extensivity
     p <= fcl p, p <= ncl p on the sample — the hypotheses Theorem 4
     needs. *)
  List.iter
    (fun p ->
      check (p.Tclosure.name ^ ": ncl <= fcl") true
        (List.for_all
           (fun y ->
             (not (Tclosure.ncl_mem p ~max_depth:3 y))
             || Tclosure.fcl_mem p ~max_depth:3 y)
           Examples.sample);
      check (p.Tclosure.name ^ ": extensive") true
        (List.for_all
           (fun y ->
             (not (p.Tclosure.mem y)) || Tclosure.ncl_mem p ~max_depth:3 y)
           Examples.sample))
    Examples.all

let test_theorem5_preconditions () =
  (* q4a (and q5a) satisfy Theorem 5's hypotheses with cl1 = ncl and
     cl2 = fcl: fcl-dense but not ncl-dense — hence (by Theorem 5, proved
     exhaustively at the lattice level in test_core) they cannot be split
     into a universally-safe and an existentially-live part, which is the
     paper's "fourth decomposition fails" point with the AFp witness. *)
  let rows = Examples.table ~max_depth:3 () in
  let get name =
    (List.find (fun r -> r.Examples.property.Tclosure.name = name) rows)
      .Examples.classification
  in
  List.iter
    (fun name ->
      let c = get name in
      check (name ^ " UL") true c.Tclosure.universally_live;
      check (name ^ " not EL") false c.Tclosure.existentially_live)
    [ "q4a"; "q5a" ]

let test_fair_targets () =
  (* 0(p) -> 0, 0 -> 1(q), 1 -> 1. Under "visit state 0 infinitely
     often" state 1 starts no fair path, so a fair EX/EU may not end
     there. *)
  let k =
    Kripke.make ~nstates:2 ~initial:0
      ~successors:[| [ 0; 1 ]; [ 1 ] |]
      ~ap:[| "p"; "q" |]
      ~labels:[| [| true; false |]; [| false; true |] |]
  in
  let c = [ [| true; false |] ] in
  Alcotest.(check (array bool)) "fair states" [| true; false |]
    (Fair.fair_states k c);
  List.iter
    (fun s ->
      check ("classically " ^ s) true (Ctl.holds k (Ctl.parse_exn s));
      check ("fairly not " ^ s) false (Fair.holds k c (Ctl.parse_exn s)))
    [ "EX q"; "E (p U q)"; "EF q" ];
  check "fairly AG p" true (Fair.holds k c (Ctl.parse_exn "AG p"))

(* The tree layer's cycle searches against the CTL/CTL* model checkers on
   the same presentations: two independent implementations. *)
let test_tree_cycles_vs_ctlstar () =
  let module Ptree = Sl_tree.Ptree in
  let three_states =
    List.filter
      (fun (t : Ptree.t) -> t.nstates = 3)
      (Ptree.enumerate_total ~alphabet:2 ~k:2 ~max_states:3)
  in
  List.iter
    (fun (t : Ptree.t) ->
      let k =
        Ptree.to_kripke t ~prop_of_label:(fun l -> if l = 0 then "a" else "b")
      in
      let root v = v.(t.root) in
      let is_a q = t.label.(q) = 0 in
      List.iter
        (fun (name, pred, prop) ->
          let agree what by_ctl by_tree =
            if by_ctl <> by_tree then
              Alcotest.failf "%s %s on %a: CTL %b, tree %b" what name
                Ptree.pp t by_ctl by_tree
          in
          agree "cycle through"
            (root (Ctlstar.e_gf k ~pred))
            (Ptree.has_reachable_cycle_through t ~pred);
          agree "cycle inside"
            (root (Ctlstar.e_fg k ~pred))
            (Ptree.has_reachable_cycle_inside t ~pred);
          agree "cycle within"
            (root (Ctl.sat k (Ctl.EG prop)))
            (Ptree.has_cycle_within t ~keep:pred))
        [ ("a", is_a, Ctl.Prop "a");
          ("!a", (fun q -> not (is_a q)), Ctl.Not (Ctl.Prop "a")) ])
    (Examples.sample @ three_states)

let tests =
  [ Alcotest.test_case "parser" `Quick test_parser;
    Alcotest.test_case "modalities on a diamond" `Quick test_modalities;
    Alcotest.test_case "AG/AX interaction" `Quick test_ag_ax_fact;
    Alcotest.test_case "dualities" `Quick test_dualities;
    Alcotest.test_case "mutex properties" `Quick test_mutex_properties;
    Alcotest.test_case "peterson properties" `Quick
      test_peterson_properties;
    Alcotest.test_case "bounded buffer properties" `Quick
      test_bounded_buffer_properties;
    Alcotest.test_case "philosophers properties" `Quick
      test_philosophers_properties;
    Alcotest.test_case "CTL* limit modalities" `Quick test_ctlstar_limits;
    Alcotest.test_case "witness extraction" `Quick
      test_witness_extraction;
    Alcotest.test_case "counterexamples" `Quick test_counterexamples;
    QCheck_alcotest.to_alcotest prop_witness_random;
    Alcotest.test_case "fair CTL degenerates" `Quick
      test_fair_degenerates_to_ctl;
    Alcotest.test_case "fair CTL textbook" `Quick test_fair_textbook;
    Alcotest.test_case "fair mutex progress" `Quick
      test_fair_mutex_progress;
    Alcotest.test_case "fair philosophers" `Quick test_fair_philosophers;
    Alcotest.test_case "Section 4.3 table" `Slow test_q_table;
    Alcotest.test_case "paper closure facts" `Slow
      test_paper_closure_facts;
    Alcotest.test_case "closure lattice facts" `Slow
      test_closure_lattice_facts;
    Alcotest.test_case "theorem 5 preconditions" `Slow
      test_theorem5_preconditions;
    Alcotest.test_case "tree cycle searches = CTL*" `Quick
      test_tree_cycles_vs_ctlstar;
    Alcotest.test_case "fair CTL: EX/EU end in fair states" `Quick
      test_fair_targets;
    QCheck_alcotest.to_alcotest prop_ctlstar_vs_sccs ]
