(* The seed's subset construction, kept verbatim as the reference for
   [Sl_nfa.Nfa.determinize]. Its [List.mem_assoc] frontier test is
   quadratic in the number of DFA states. *)

module Nfa = Sl_nfa.Nfa
module Dfa = Sl_nfa.Dfa

let determinize (n : Nfa.t) =
  let table = Hashtbl.create 64 in
  let states = ref [] in
  let count = ref 0 in
  let intern set =
    match Hashtbl.find_opt table set with
    | Some i -> i
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add table set i;
        states := set :: !states;
        i
  in
  let start_set = List.sort_uniq compare n.starts in
  let start = intern start_set in
  let transitions = ref [] in
  let rec explore set =
    let i = Hashtbl.find table set in
    if not (List.mem_assoc i !transitions) then begin
      let row =
        Array.init n.alphabet (fun s ->
            let succ = Nfa.successors n set s in
            let fresh = not (Hashtbl.mem table succ) in
            let j = intern succ in
            if fresh then explore succ;
            j)
      in
      transitions := (i, (set, row)) :: !transitions
    end
  in
  explore start_set;
  let nstates = !count in
  let delta = Array.make nstates [||] in
  let accepting = Array.make nstates false in
  List.iter
    (fun (i, (set, row)) ->
      delta.(i) <- row;
      accepting.(i) <- List.exists (fun q -> n.accepting.(q)) set)
    !transitions;
  Dfa.make ~alphabet:n.alphabet ~nstates ~start ~delta ~accepting
