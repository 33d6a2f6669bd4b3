module Digraph = Sl_core.Digraph

let is_terminal (b : Buchi.t) =
  let g = Buchi.graph b in
  let reach = Buchi.reachable b in
  let ok = ref true in
  for q = 0 to b.nstates - 1 do
    if reach.(q) && b.accepting.(q) then
      for s = 0 to b.alphabet - 1 do
        (* Complete within acceptance: a run that has reached the
           accepting region can neither die nor leave it, so reaching
           it IS a good prefix. *)
        if Digraph.sym_degree g q s = 0 then ok := false;
        Digraph.iter_succ_sym g q s (fun q' ->
            if not b.accepting.(q') then ok := false)
      done
  done;
  !ok

let is_weak (b : Buchi.t) =
  let reach = Buchi.reachable b in
  let comp, comps = Buchi.sccs b in
  ignore comp;
  List.for_all
    (fun members ->
      let reachable_members = List.filter (fun q -> reach.(q)) members in
      match reachable_members with
      | [] -> true
      | q0 :: rest ->
          List.for_all (fun q -> b.accepting.(q) = b.accepting.(q0)) rest)
    comps

let classify_structural b =
  if Closure.is_closure_shaped b then "safety-shaped"
  else if is_terminal b then "terminal"
  else if is_weak b then "weak"
  else "general"
