module Kripke = Sl_kripke.Kripke
module Digraph = Sl_core.Digraph

type constraints = bool array list

(* E_fair G f: f-states that reach (within f) a nontrivial f-SCC meeting
   every fairness set — the kernel's good-SCC query followed by backward
   reachability on the transposed graph, both restricted to f. *)
let eg (k : Kripke.t) constraints f =
  let g = Digraph.of_successors k.successors in
  let keep q = f.(q) in
  let seeds =
    Digraph.good_scc_members g ~filter:keep
      ~predicates:(List.map (fun set q -> set.(q)) constraints)
  in
  Digraph.reachable_from ~filter:keep (Digraph.reverse g) seeds

let fair_states k constraints =
  eg k constraints (Array.make k.Kripke.nstates true)

let sat k constraints formula =
  let fair = fair_states k constraints in
  Ctl.label k
    ~fair:(Array.mapi (fun q v -> v && fair.(q)))
    ~eg:(eg k constraints) formula

let holds (k : Kripke.t) constraints formula =
  (sat k constraints formula).(k.initial)

let constraint_of_prop (k : Kripke.t) p =
  Array.init k.nstates (fun q -> Kripke.holds k q p)
