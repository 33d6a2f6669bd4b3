module Lasso = Sl_word.Lasso
module Digraph = Sl_core.Digraph

type condition =
  | Rabin of (bool array * bool array) list
  | Streett of (bool array * bool array) list
  | Parity of int array
  | Muller of bool array list

type t = {
  alphabet : int;
  nstates : int;
  start : int;
  delta : int list array array;
  condition : condition;
}

let make ~alphabet ~nstates ~start ~delta ~condition =
  (* Shape-check through the Büchi validator. *)
  ignore
    (Buchi.make ~alphabet ~nstates ~start ~delta
       ~accepting:(Array.make nstates false));
  (match condition with
  | Rabin pairs | Streett pairs ->
      List.iter
        (fun (g, r) ->
          if Array.length g <> nstates || Array.length r <> nstates then
            invalid_arg "Acceptance.make: pair shape")
        pairs
  | Parity priorities ->
      if Array.length priorities <> nstates then
        invalid_arg "Acceptance.make: priority shape";
      Array.iter
        (fun p -> if p < 0 then invalid_arg "Acceptance.make: priority < 0")
        priorities
  | Muller sets ->
      List.iter
        (fun set ->
          if Array.length set <> nstates then
            invalid_arg "Acceptance.make: Muller set shape")
        sets);
  { alphabet; nstates; start; delta; condition }

let of_buchi (b : Buchi.t) =
  (* [b] was validated by [Buchi.make]; no need to re-check its shape. *)
  { alphabet = b.alphabet; nstates = b.nstates; start = b.start;
    delta = b.delta;
    condition = Rabin [ (Array.copy b.accepting, Array.make b.nstates false) ]
  }

let graph a = Digraph.of_delta a.delta

(* Compile-time witness: this module has the shared automaton shape. *)
module _ : Sl_core.Automaton_sig.S with type t = t = struct
  type nonrec t = t

  let alphabet a = a.alphabet
  let nstates a = a.nstates
  let graph = graph
end

(* --- Acceptance checks on the automaton × lasso product. --- *)

let node_state (pr : Buchi.lasso_product) v = v / pr.positions

(* Reachable nontrivial SCCs of the product restricted to [keep]-nodes. *)
let sccs_within (pr : Buchi.lasso_product) keep =
  let r = Digraph.sccs ~filter:(fun v -> pr.reach.(v) && keep v) pr.graph in
  List.filter
    (function
      | [] -> false
      | hd :: _ -> r.Digraph.nontrivial.(r.Digraph.comp.(hd)))
    r.Digraph.comps

let projection pr nodes =
  List.sort_uniq compare (List.map (node_state pr) nodes)

let accepts_rabin pr pairs =
  List.exists
    (fun (green, red) ->
      (* A reachable cycle avoiding red and meeting green. *)
      List.exists
        (fun comp -> List.exists (fun v -> green.(node_state pr v)) comp)
        (sccs_within pr (fun v -> not red.(node_state pr v))))
    pairs

(* Streett: SCC peeling — remove the greens of pairs whose reds are absent
   and recurse; a surviving nontrivial component satisfies all pairs. *)
let accepts_streett (pr : Buchi.lasso_product) pairs =
  let rec satisfiable nodes =
    (* Sub-SCCs of the induced subgraph. *)
    let keep = Array.make (Digraph.nodes pr.graph) false in
    List.iter (fun v -> keep.(v) <- true) nodes;
    let comps = sccs_within pr (fun v -> keep.(v)) in
    List.exists
      (fun comp ->
        let states = projection pr comp in
        let offending =
          List.filter
            (fun (green, red) ->
              List.exists (fun q -> green.(q)) states
              && not (List.exists (fun q -> red.(q)) states))
            pairs
        in
        if offending = [] then true
        else begin
          let shrunk =
            List.filter
              (fun v ->
                not
                  (List.exists
                     (fun (green, _) -> green.(node_state pr v))
                     offending))
              comp
          in
          if List.length shrunk = List.length comp then false
          else satisfiable shrunk
        end)
      comps
  in
  satisfiable
    (List.filter (fun v -> pr.reach.(v))
       (List.init (Digraph.nodes pr.graph) Fun.id))

let accepts_parity pr priorities =
  let evens =
    List.sort_uniq compare
      (List.filter (fun p -> p mod 2 = 0) (Array.to_list priorities))
  in
  List.exists
    (fun d ->
      List.exists
        (fun comp ->
          List.exists (fun v -> priorities.(node_state pr v) = d) comp)
        (sccs_within pr (fun v -> priorities.(node_state pr v) >= d)))
    evens

let accepts_muller pr sets =
  List.exists
    (fun set ->
      let target =
        List.sort_uniq compare
          (List.filteri (fun _ _ -> true)
             (List.init (Array.length set) Fun.id))
        |> List.filter (fun q -> set.(q))
      in
      target <> []
      && List.exists
           (fun comp ->
             (* The SCC lies inside the set; it must cover it. *)
             projection pr comp = target)
           (sccs_within pr (fun v -> set.(node_state pr v))))
    sets

let accepts_lasso a w =
  let pr = Buchi.lasso_product ~start:a.start ~delta:a.delta w in
  match a.condition with
  | Rabin pairs -> accepts_rabin pr pairs
  | Streett pairs -> accepts_streett pr pairs
  | Parity priorities -> accepts_parity pr priorities
  | Muller sets -> accepts_muller pr sets

(* --- Translations --- *)

let rabin_pair_to_buchi a (green, red) =
  (* Original copy (never accepting) + a red-free copy entered by a
     nondeterministic jump; acceptance is green inside the copy. *)
  let n = a.nstates in
  let copy q = n + q in
  let nstates = 2 * n in
  let delta = Array.make_matrix nstates a.alphabet [] in
  for q = 0 to n - 1 do
    for s = 0 to a.alphabet - 1 do
      let succs = a.delta.(q).(s) in
      let red_free = List.filter (fun q' -> not red.(q')) succs in
      delta.(q).(s) <- succs @ List.map copy red_free;
      if not red.(q) then delta.(copy q).(s) <- List.map copy red_free
    done
  done;
  let accepting =
    Array.init nstates (fun v -> v >= n && green.(v - n))
  in
  (* Successors are copies of in-range states of a validated automaton;
     skip the [Buchi.make] re-validation pass. *)
  { Buchi.alphabet = a.alphabet; nstates; start = a.start; delta; accepting }

let rabin_to_buchi a =
  match a.condition with
  | Rabin pairs ->
      Ops.union_list ~alphabet:a.alphabet
        (List.map (rabin_pair_to_buchi a) pairs)
  | _ -> invalid_arg "Acceptance.rabin_to_buchi: not a Rabin condition"

let parity_to_buchi a =
  match a.condition with
  | Parity priorities ->
      let evens =
        List.sort_uniq compare
          (List.filter (fun p -> p mod 2 = 0) (Array.to_list priorities))
      in
      let pairs =
        List.map
          (fun d ->
            ( Array.map (fun p -> p = d) priorities,
              Array.map (fun p -> p < d) priorities ))
          evens
      in
      rabin_to_buchi { a with condition = Rabin pairs }
  | _ -> invalid_arg "Acceptance.parity_to_buchi: not a parity condition"

let pp fmt a =
  let kind =
    match a.condition with
    | Rabin ps -> Printf.sprintf "rabin(%d pairs)" (List.length ps)
    | Streett ps -> Printf.sprintf "streett(%d pairs)" (List.length ps)
    | Parity _ -> "parity"
    | Muller sets -> Printf.sprintf "muller(%d sets)" (List.length sets)
  in
  Format.fprintf fmt "omega-word automaton [%s], %d states, start %d" kind
    a.nstates a.start
