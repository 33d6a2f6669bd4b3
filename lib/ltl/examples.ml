module Buchi = Sl_buchi.Buchi
module Decompose = Sl_buchi.Decompose

let valuation symbol p = String.equal p "a" && symbol = 0

let p0 = Formula.False
let p1 = Formula.parse_exn "a"
let p2 = Formula.parse_exn "!a"
let p3 = Formula.parse_exn "a & F !a"
let p4 = Formula.parse_exn "F G !a"
let p5 = Formula.parse_exn "G F a"
let p6 = Formula.True

let all =
  [ ("p0", p0); ("p1", p1); ("p2", p2); ("p3", p3); ("p4", p4);
    ("p5", p5); ("p6", p6) ]

let automaton f = Translate.translate ~alphabet:2 ~valuation f

(* [b] is [f]'s automaton; its negation is the negated formula's. *)
let classify_automaton f b =
  Decompose.classify_via_negation b ~negation:(automaton (Formula.Not f))

let classify f = classify_automaton f (automaton f)

type row = {
  name : string;
  formula : Formula.t;
  classification : Sl_buchi.Decompose.classification;
  closure_of : string option;
}

let table () =
  let automata = List.map (fun (name, f) -> (name, f, automaton f)) all in
  List.map
    (fun (name, f, b) ->
      let closure = Sl_buchi.Closure.bcl b in
      (* Sampled language comparison; the exact equalities behind this
         column (lcl p3 = p1, lcl p4 = lcl p5 = Sigma^omega) are verified
         with full complementation in the test suite. *)
      let closure_of =
        List.find_map
          (fun (name', _, b') ->
            if
              Sl_buchi.Lang.sampled_equal ~max_prefix:3 ~max_cycle:3 closure
                b'
            then Some name'
            else None)
          automata
      in
      { name; formula = f; classification = classify_automaton f b;
        closure_of })
    automata

let pp_table fmt rows =
  Format.fprintf fmt "@[<v>%-4s  %-12s  %-18s  %s@,"
    "id" "LTL" "classification" "closure";
  Format.fprintf fmt "%s@," (String.make 56 '-');
  List.iter
    (fun r ->
      Format.fprintf fmt "%-4s  %-12s  %-18s  %s@," r.name
        (Formula.to_string r.formula)
        (Decompose.classification_to_string r.classification)
        (match r.closure_of with
        | Some n -> "lcl = " ^ n
        | None -> "lcl not in table"))
    rows;
  Format.fprintf fmt "@]"
