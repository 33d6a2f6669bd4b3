module Tclosure = Sl_tree.Tclosure
module Rtree = Sl_tree.Rtree
module Ptree = Sl_tree.Ptree

(* Letter 0 is "a"; anything else is "b". *)
let prop_of_label l = if l = 0 then "a" else "b"
let state_is_a (t : Ptree.t) q = t.Ptree.label.(q) = 0
let root_is_a (t : Ptree.t) = state_is_a t t.Ptree.root

let check_ctl formula t =
  Ctl.holds (Ptree.to_kripke t ~prop_of_label) (Ctl.parse_exn formula)

let checkstar star pred (t : Ptree.t) =
  let k = Ptree.to_kripke t ~prop_of_label in
  let v = star k ~pred:(fun q -> pred t q) in
  v.(t.Ptree.root)

let q0 : Tclosure.property =
  { name = "q0"; mem = (fun _ -> false); extends = (fun _ -> false) }

let q1 : Tclosure.property =
  (* Any prefix with an a-labeled root extends (fill holes arbitrarily). *)
  { name = "q1"; mem = root_is_a; extends = root_is_a }

let q2 : Tclosure.property =
  { name = "q2";
    mem = (fun t -> not (root_is_a t));
    extends = (fun x -> not (root_is_a x)) }

let q3a : Tclosure.property =
  (* a ∧ AF ¬a. A prefix extends iff its root is a and it contains no
     infinite all-a path from the root: such a path would survive into
     any extension and violate AF ¬a; conversely, fill every hole with the
     all-b tree. *)
  { name = "q3a";
    mem = check_ctl "a & AF b";
    extends =
      (fun x ->
        root_is_a x
        && not (Ptree.has_cycle_within x ~keep:(state_is_a x))) }

let q3b : Tclosure.property =
  (* a ∧ EF ¬a. A prefix with a hole always extends (attach b below it);
     a hole-free (total) prefix is its own only extension. *)
  { name = "q3b";
    mem = check_ctl "a & EF b";
    extends =
      (fun x ->
        root_is_a x
        && (Ptree.has_hole x
           || Array.to_seqi (Ptree.reachable x)
              |> Seq.exists (fun (q, r) -> r && not (state_is_a x q)))) }

let q4a : Tclosure.property =
  (* A FG ¬a: along every path, finitely many a. A prefix extends iff no
     infinite path in it visits a infinitely often (no reachable cycle
     through an a-state); holes are filled with all-b. *)
  { name = "q4a";
    mem = checkstar Ctlstar.a_fg (fun t q -> not (state_is_a t q));
    extends =
      (fun x ->
        not (Ptree.has_reachable_cycle_through x ~pred:(state_is_a x))) }

let q4b : Tclosure.property =
  (* E FG ¬a: some path with finitely many a. Any prefix with a hole
     extends (attach b^ω); a total one must already contain a reachable
     all-b cycle. *)
  { name = "q4b";
    mem = checkstar Ctlstar.e_fg (fun t q -> not (state_is_a t q));
    extends =
      (fun x ->
        Ptree.has_hole x
        || Ptree.has_reachable_cycle_inside x
             ~pred:(fun q -> not (state_is_a x q))) }

let q5a : Tclosure.property =
  (* A GF a: along every path, infinitely many a. A prefix extends iff no
     infinite path in it is eventually all-b (no reachable all-b cycle);
     holes are filled with a^ω. *)
  { name = "q5a";
    mem = checkstar Ctlstar.a_gf state_is_a;
    extends =
      (fun x ->
        not
          (Ptree.has_reachable_cycle_inside x
             ~pred:(fun q -> not (state_is_a x q)))) }

let q5b : Tclosure.property =
  (* E GF a: some path with infinitely many a. *)
  { name = "q5b";
    mem = checkstar Ctlstar.e_gf state_is_a;
    extends =
      (fun x ->
        Ptree.has_hole x
        || Ptree.has_reachable_cycle_through x ~pred:(state_is_a x)) }

let q6 : Tclosure.property =
  { name = "q6"; mem = (fun _ -> true); extends = (fun _ -> true) }

let all = [ q0; q1; q2; q3a; q3b; q4a; q4b; q5a; q5b; q6 ]

(* Total presentations with up to two states and up to binary branching:
   this includes the unary "sequence" trees that drive the paper's ncl
   facts (Section 4.3 works over arbitrary-branching A_tot). *)
let sample = Ptree.enumerate_total ~alphabet:2 ~k:2 ~max_states:2

type row = {
  property : Tclosure.property;
  classification : Tclosure.classification;
}

let table ?(max_depth = 3) () =
  List.map
    (fun p ->
      { property = p;
        classification = Tclosure.classify p ~sample ~max_depth })
    all

let pp_table fmt rows =
  Format.fprintf fmt "@[<v>%-5s  %s@," "id" "classification (ES/US/EL/UL)";
  Format.fprintf fmt "%s@," (String.make 40 '-');
  List.iter
    (fun r ->
      Format.fprintf fmt "%-5s  %a@," r.property.Tclosure.name
        Tclosure.pp_classification r.classification)
    rows;
  Format.fprintf fmt "@]"
