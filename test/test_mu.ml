module Mu = Sl_mu.Mu
module Ctl = Sl_ctl.Ctl
module Kripke = Sl_kripke.Kripke

let check = Alcotest.(check bool)

let ok_sat k f =
  match Mu.sat k f with
  | Ok v -> v
  | Error e -> Alcotest.failf "sat error: %s" e

let test_parser () =
  List.iter
    (fun s ->
      match Mu.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok f -> (
          match Mu.parse (Mu.to_string f) with
          | Ok f' when f = f' -> ()
          | Ok f' -> Alcotest.failf "roundtrip %S -> %s" s (Mu.to_string f')
          | Error e -> Alcotest.failf "reparse: %s" e))
    [ "mu X . p | <> X"; "nu Y . p & [] Y"; "<> true"; "[] false";
      "mu X . (p & <> X) | q"; "nu X . mu Y . (p & <> X) | <> Y";
      "p -> <> q" ];
  check "unbound dot" true (Result.is_error (Mu.parse "mu . p"));
  check "lowercase binder" true (Result.is_error (Mu.parse "mu x . p"))

let test_static_checks () =
  check "well named" true (Mu.well_named (Mu.parse_exn "mu X . <> X"));
  check "shadowing rejected" false
    (Mu.well_named (Mu.parse_exn "mu X . mu X . <> X"));
  check "positive" true (Mu.positive (Mu.parse_exn "mu X . p | <> X"));
  check "negative occurrence" false
    (Mu.positive (Mu.parse_exn "mu X . !X"));
  check "double negation fine" true
    (Mu.positive (Mu.parse_exn "mu X . !!X"))

let test_sat_errors () =
  let k = Kripke.token_ring 3 in
  check "free variable" true
    (Result.is_error (Mu.sat k (Mu.parse_exn "<> X")));
  check "non-monotone" true
    (Result.is_error (Mu.sat k (Mu.parse_exn "mu X . !X")))

let test_fixpoints_on_ring () =
  let k = Kripke.token_ring 3 in
  (* EF tok1 = mu X . tok1 | <> X: true everywhere on a ring. *)
  Alcotest.(check (array bool)) "reachability"
    [| true; true; true |]
    (ok_sat k (Mu.parse_exn "mu X . tok1 | <> X"));
  (* nu X . tok0 & <> X: a tok0-cycle — impossible in the ring. *)
  Alcotest.(check (array bool)) "no constant cycle"
    [| false; false; false |]
    (ok_sat k (Mu.parse_exn "nu X . tok0 & <> X"));
  (* nu X . <> X: totality. *)
  Alcotest.(check (array bool)) "totality" [| true; true; true |]
    (ok_sat k (Mu.parse_exn "nu X . <> X"))

let embedding_formulas =
  [ "EX p"; "AX p"; "EF q"; "AF q"; "EG p"; "AG (p -> EF q)";
    "E (p U q)"; "A (p U q)"; "EF EG p"; "AG AF q" ]

let test_ctl_embedding () =
  let structures =
    [ Kripke.token_ring 4; Kripke.mutex ();
      Kripke.random ~seed:5 ~nstates:7 ~ap:[| "p"; "q" |] ~density:0.3 ();
      Kripke.random ~seed:9 ~nstates:5 ~ap:[| "p"; "q" |] ~density:0.5 () ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun s ->
          match Ctl.parse s with
          | Error _ -> ()
          | Ok f ->
              Alcotest.(check (array bool))
                ("embedding: " ^ s)
                (Ctl.sat k f)
                (ok_sat k (Mu.of_ctl f)))
        embedding_formulas)
    structures

(* Three evaluators of the same CTL formula on random structures: the
   labeling algorithm, the mu-calculus embedding, and fair CTL with no
   constraints. *)
let prop_ctl_evaluators_agree =
  QCheck.Test.make ~name:"random structures: CTL = mu embedding = fair CTL"
    ~count:200
    QCheck.(triple (int_bound 10_000) (int_range 1 9) (int_range 1 9))
    (fun (seed, nstates, tenths) ->
      let k =
        Kripke.random ~seed ~nstates ~ap:[| "p"; "q" |]
          ~density:(float_of_int tenths /. 10.) ()
      in
      List.for_all
        (fun s ->
          let f = Ctl.parse_exn s in
          let v = Ctl.sat k f in
          v = ok_sat k (Mu.of_ctl f) && v = Sl_ctl.Fair.sat k [] f)
        embedding_formulas)

let test_alternation_example () =
  (* nu X . mu Y . ((p & <> X) | <> Y): "some path visits p infinitely
     often" — the classical alternation-depth-2 formula. Compare against
     the cycle-analysis CTL* oracle. *)
  let f = Mu.parse_exn "nu X . mu Y . (p & <> X) | <> Y" in
  List.iter
    (fun seed ->
      let k =
        Kripke.random ~seed ~nstates:6 ~ap:[| "p" |] ~density:0.3 ()
      in
      let by_mu = ok_sat k f in
      let by_cycles =
        Sl_ctl.Ctlstar.e_gf k ~pred:(Sl_ctl.Ctlstar.prop_pred k "p")
      in
      Alcotest.(check (array bool))
        (Printf.sprintf "EGF p (seed %d)" seed)
        by_cycles by_mu)
    [ 1; 2; 3; 4; 5; 6 ]

let tests =
  [ Alcotest.test_case "parser" `Quick test_parser;
    Alcotest.test_case "static checks" `Quick test_static_checks;
    Alcotest.test_case "sat errors" `Quick test_sat_errors;
    Alcotest.test_case "fixpoints on the ring" `Quick
      test_fixpoints_on_ring;
    Alcotest.test_case "CTL embedding" `Quick test_ctl_embedding;
    Alcotest.test_case "alternation: E GF p" `Quick
      test_alternation_example;
    QCheck_alcotest.to_alcotest prop_ctl_evaluators_agree ]
