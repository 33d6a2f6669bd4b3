module Alphabet = Sl_word.Alphabet
module Lasso = Sl_word.Lasso

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lasso = Alcotest.testable (fun fmt w ->
    Format.pp_print_string fmt (Lasso.to_string w)) Lasso.equal

let test_alphabet () =
  let s = Alphabet.binary in
  check_int "size" 2 (Alphabet.size s);
  Alcotest.(check string) "label" "a" (Alphabet.label s 0);
  let ap = Alphabet.of_subsets [ "p"; "q" ] in
  check_int "subsets size" 4 (Alphabet.size ap);
  Alcotest.(check string) "empty set" "{}" (Alphabet.label ap 0);
  Alcotest.(check string) "both" "{p,q}" (Alphabet.label ap 3);
  check "mem" true (Alphabet.mem ap 3);
  check "not mem" false (Alphabet.mem ap 4)

let test_canonical_form () =
  (* a (ba)^w = (ab)^w *)
  Alcotest.check lasso "rotation absorbed"
    (Lasso.make ~prefix:[] ~cycle:[ 0; 1 ])
    (Lasso.make ~prefix:[ 0 ] ~cycle:[ 1; 0 ]);
  (* (abab)^w = (ab)^w *)
  Alcotest.check lasso "primitive root"
    (Lasso.make ~prefix:[] ~cycle:[ 0; 1 ])
    (Lasso.make ~prefix:[] ~cycle:[ 0; 1; 0; 1 ]);
  (* aaa(a)^w = (a)^w *)
  Alcotest.check lasso "constant absorbs prefix" (Lasso.constant 0)
    (Lasso.make ~prefix:[ 0; 0; 0 ] ~cycle:[ 0 ]);
  (* ab(b)^w keeps its prefix a *)
  let w = Lasso.make ~prefix:[ 0; 1 ] ~cycle:[ 1 ] in
  check_int "spoke" 1 (Lasso.spoke w);
  check_int "period" 1 (Lasso.period w)

let test_at_and_prefix () =
  let w = Lasso.make ~prefix:[ 0; 1 ] ~cycle:[ 2; 3 ] in
  Alcotest.(check (list int)) "first 7" [ 0; 1; 2; 3; 2; 3; 2 ]
    (Lasso.first_n w 7);
  check_int "at 0" 0 (Lasso.at w 0);
  check_int "at 5" 3 (Lasso.at w 5)

let test_shift () =
  let w = Lasso.make ~prefix:[ 0; 1 ] ~cycle:[ 2; 3 ] in
  Alcotest.check lasso "shift 1"
    (Lasso.make ~prefix:[ 1 ] ~cycle:[ 2; 3 ])
    (Lasso.shift w 1);
  Alcotest.check lasso "shift into cycle"
    (Lasso.make ~prefix:[] ~cycle:[ 3; 2 ])
    (Lasso.shift w 3);
  (* Shifting never changes the denoted suffix letters. *)
  let s = Lasso.shift w 5 in
  Alcotest.(check (list int)) "letters align" (List.init 6 (fun i ->
      Lasso.at w (5 + i)))
    (Lasso.first_n s 6)

let test_append_prefix () =
  let w = Lasso.constant 1 in
  let v = Lasso.append_prefix [ 0; 0 ] w in
  Alcotest.(check (list int)) "letters" [ 0; 0; 1; 1 ] (Lasso.first_n v 4)

let test_enumerate () =
  (* Over 1 letter only (a)^w exists regardless of bounds. *)
  check_int "unary" 1
    (List.length (Lasso.enumerate ~alphabet:1 ~max_prefix:3 ~max_cycle:3));
  (* Binary, cycle <= 1, prefix 0: two constants. *)
  check_int "constants" 2
    (List.length (Lasso.enumerate ~alphabet:2 ~max_prefix:0 ~max_cycle:1));
  (* All enumerated lassos are canonical and pairwise distinct. *)
  let ws = Lasso.enumerate ~alphabet:2 ~max_prefix:2 ~max_cycle:3 in
  let distinct = List.sort_uniq Lasso.compare ws in
  check_int "no duplicates" (List.length ws) (List.length distinct);
  List.iter
    (fun w ->
      Alcotest.check lasso "canonical"
        w
        (Lasso.make ~prefix:(Lasso.prefix w) ~cycle:(Lasso.cycle w)))
    ws

let test_count_letter () =
  let w = Lasso.make ~prefix:[ 0; 0; 1 ] ~cycle:[ 1 ] in
  (match Lasso.count_letter w 0 with
  | `Finitely 2 -> ()
  | _ -> Alcotest.fail "expected finitely 2 a's");
  (match Lasso.count_letter w 1 with
  | `Infinitely -> ()
  | _ -> Alcotest.fail "expected infinitely many b's")

let test_rejects_bad_input () =
  check "empty cycle" true
    (try
       ignore (Lasso.make ~prefix:[] ~cycle:[]);
       false
     with Invalid_argument _ -> true)

let prop_equal_words_equal_letters =
  QCheck.Test.make ~name:"canonical equality = letterwise equality"
    ~count:500
    QCheck.(
      pair
        (pair (list_of_size Gen.(0 -- 4) (int_bound 1))
           (list_of_size Gen.(1 -- 4) (int_bound 1)))
        (pair (list_of_size Gen.(0 -- 4) (int_bound 1))
           (list_of_size Gen.(1 -- 4) (int_bound 1))))
    (fun ((p1, c1), (p2, c2)) ->
      let w1 = Lasso.make ~prefix:p1 ~cycle:c1 in
      let w2 = Lasso.make ~prefix:p2 ~cycle:c2 in
      (* Compare enough letters to cover both lassos' periods. *)
      let n = 2 * (Lasso.total_length w1 + Lasso.total_length w2) in
      Lasso.equal w1 w2 = (Lasso.first_n w1 n = Lasso.first_n w2 n))

let prop_shift_consistent =
  QCheck.Test.make ~name:"shift agrees with letter indexing" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 3) (int_bound 2))
        (list_of_size Gen.(1 -- 3) (int_bound 2))
        (int_bound 8))
    (fun (p, c, k) ->
      let w = Lasso.make ~prefix:p ~cycle:c in
      let s = Lasso.shift w k in
      List.init 8 (fun i -> Lasso.at s i)
      = List.init 8 (fun i -> Lasso.at w (k + i)))

let test_pp_with_alphabet () =
  let w = Lasso.make ~prefix:[ 0 ] ~cycle:[ 1 ] in
  Alcotest.(check string) "named letters" "a(b)^w"
    (Lasso.to_string ~alphabet:Alphabet.binary w);
  Alcotest.(check string) "numeric fallback" "0(1)^w" (Lasso.to_string w);
  Alcotest.(check string) "multi-digit letters apart" "9 (9 10)^w"
    (Lasso.to_string (Lasso.make ~prefix:[ 9 ] ~cycle:[ 9; 10 ]));
  Alcotest.(check string) "no spoke" "(1 12)^w"
    (Lasso.to_string (Lasso.make ~prefix:[] ~cycle:[ 1; 12 ]))

let tests =
  [ Alcotest.test_case "alphabets" `Quick test_alphabet;
    Alcotest.test_case "canonical form" `Quick test_canonical_form;
    Alcotest.test_case "indexing and prefixes" `Quick test_at_and_prefix;
    Alcotest.test_case "shift" `Quick test_shift;
    Alcotest.test_case "append prefix" `Quick test_append_prefix;
    Alcotest.test_case "enumeration" `Quick test_enumerate;
    Alcotest.test_case "letter counting" `Quick test_count_letter;
    Alcotest.test_case "input validation" `Quick test_rejects_bad_input;
    Alcotest.test_case "pretty printing" `Quick test_pp_with_alphabet;
    QCheck_alcotest.to_alcotest prop_equal_words_equal_letters;
    QCheck_alcotest.to_alcotest prop_shift_consistent ]
