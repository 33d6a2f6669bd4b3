module Lasso = Sl_word.Lasso
module Digraph = Sl_core.Digraph
module Asig = Sl_core.Automaton_sig

type t = {
  alphabet : int;
  nstates : int;
  start : int;
  delta : int list array array;
  accepting : bool array;
}

let make ~alphabet ~nstates ~start ~delta ~accepting =
  let name = "Buchi.make" in
  Asig.check_alphabet ~name alphabet;
  Asig.check_nstates ~name nstates;
  Asig.check_state ~name ~nstates start;
  Asig.check_flags ~name ~nstates accepting;
  Asig.check_delta ~name ~alphabet ~nstates delta;
  { alphabet; nstates; start; delta; accepting }

let of_edges ~alphabet ~nstates ~start ~edges ~accepting =
  let delta =
    Asig.delta_of_edges ~name:"Buchi.of_edges" ~alphabet ~nstates edges
  in
  make ~alphabet ~nstates ~start ~delta
    ~accepting:(Asig.flags_of_list ~nstates accepting)

let empty_language ~alphabet =
  make ~alphabet ~nstates:1 ~start:0
    ~delta:(Array.make_matrix 1 alphabet [])
    ~accepting:[| false |]

let universal ~alphabet =
  make ~alphabet ~nstates:1 ~start:0
    ~delta:(Array.init 1 (fun _ -> Array.make alphabet [ 0 ]))
    ~accepting:[| true |]

(* All graph analyses run on the shared CSR kernel: one packed
   [Digraph.t] per analysis, built straight from the transition table
   (duplicates and successor order preserved, so traversal results are
   identical to the historical list-walking code). *)

let graph b = Digraph.of_delta b.delta

let reachable b = Digraph.reachable (graph b) [ b.start ]

let sccs b =
  let r = Digraph.sccs (graph b) in
  (r.Digraph.comp, r.Digraph.comps)

let on_cycle_of (r : Digraph.scc) nstates =
  Array.init nstates (fun q -> r.Digraph.nontrivial.(r.Digraph.comp.(q)))

let live_states_of g b =
  (* Live: can reach an accepting state on a cycle — backward reachability
     (on the transposed CSR graph) from the accepting members of
     nontrivial SCCs. *)
  let cyc = on_cycle_of (Digraph.sccs g) b.nstates in
  Digraph.reachable_from (Digraph.reverse g)
    (Array.init b.nstates (fun q -> b.accepting.(q) && cyc.(q)))

let live_states b = live_states_of (graph b) b

let restrict b keep =
  if not keep.(b.start) then empty_language ~alphabet:b.alphabet
  else begin
    let remap = Array.make b.nstates (-1) in
    let count = ref 0 in
    Array.iteri
      (fun q k ->
        if k then begin
          remap.(q) <- !count;
          incr count
        end)
      keep;
    let nstates = !count in
    let delta = Array.make_matrix nstates b.alphabet [] in
    let accepting = Array.make nstates false in
    Array.iteri
      (fun q k ->
        if k then begin
          accepting.(remap.(q)) <- b.accepting.(q);
          Array.iteri
            (fun s succs ->
              delta.(remap.(q)).(s) <-
                List.filter_map
                  (fun q' -> if keep.(q') then Some remap.(q') else None)
                  succs)
            b.delta.(q)
        end)
      keep;
    make ~alphabet:b.alphabet ~nstates ~start:remap.(b.start) ~delta
      ~accepting
  end

let reach_and_live b =
  let g = graph b in
  (Digraph.reachable g [ b.start ], live_states_of g b)

let trim_live b =
  let reach, live = reach_and_live b in
  restrict b (Array.init b.nstates (fun q -> reach.(q) && live.(q)))

let is_empty b =
  let reach, live = reach_and_live b in
  not (reach.(b.start) && live.(b.start))

(* The spoke is the least shortest word to an accepting state on a
   cycle (reachable, since the search starts at the start state); the
   cycle is the least shortest nonempty word from there back to it. *)
let nonempty_witness b =
  let g = graph b in
  let cyc = on_cycle_of (Digraph.sccs g) b.nstates in
  let word = List.map fst in
  Option.bind
    (Digraph.shortest_path g ~src:b.start ~target:(fun q ->
         b.accepting.(q) && cyc.(q)))
    (fun spoke ->
      let f = List.fold_left (fun _ (_, q) -> q) b.start spoke in
      Option.map
        (fun cycle -> Lasso.make ~prefix:(word spoke) ~cycle:(word cycle))
        (Digraph.shortest_path ~nonempty:true g ~src:f ~target:(( = ) f)))

type lasso_product = {
  graph : Digraph.t;
  reach : bool array;
  positions : int;
}

(* Product graph over (state, position): a cycle in it necessarily lives
   in the periodic positions, so lasso membership under any acceptance
   condition is a cycle query restricted to the reachable part. *)
let lasso_product ~start ~delta w =
  let sp = Lasso.spoke w in
  let total = sp + Lasso.period w in
  let next p = if p + 1 < total then p + 1 else sp in
  let node q p = (q * total) + p in
  let succs =
    Array.init (Array.length delta * total) (fun v ->
        let q = v / total and p = v mod total in
        List.map (fun q' -> node q' (next p)) delta.(q).(Lasso.at w p))
  in
  let graph = Digraph.of_successors succs in
  { graph; reach = Digraph.reachable graph [ node start 0 ];
    positions = total }

let accepts_lasso b w =
  let pr = lasso_product ~start:b.start ~delta:b.delta w in
  Digraph.has_good_scc pr.graph
    ~filter:(fun v -> pr.reach.(v))
    ~predicates:[ (fun v -> b.accepting.(v / pr.positions)) ]

let to_prefix_nfa b =
  Sl_nfa.Nfa.make ~alphabet:b.alphabet ~nstates:b.nstates ~starts:[ b.start ]
    ~delta:(Array.map Array.copy b.delta)
    ~accepting:(Array.make b.nstates true)

let rename_start b q =
  if q < 0 || q >= b.nstates then invalid_arg "Buchi.rename_start";
  { b with start = q }

let size_info b =
  Printf.sprintf "%d states, %d transitions" b.nstates
    (Digraph.nedges (graph b))

let pp fmt b =
  Format.fprintf fmt "@[<v>buchi(%d states, start %d)@," b.nstates b.start;
  for q = 0 to b.nstates - 1 do
    Format.fprintf fmt "  %d%s:" q (if b.accepting.(q) then "*" else "");
    Array.iteri
      (fun s succs ->
        List.iter (fun q' -> Format.fprintf fmt " %d->%d" s q') succs)
      b.delta.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"

(* Compile-time witness: this module has the shared automaton shape. *)
module _ : Asig.S with type t = t = struct
  type nonrec t = t

  let alphabet b = b.alphabet
  let nstates b = b.nstates
  let graph = graph
end

let random ?(seed = 42) ~alphabet ~nstates ~density ~accepting_fraction () =
  let st = Random.State.make [| seed |] in
  let delta =
    (* Draw order matches the seed's [List.filter]-over-[List.init] cell
       generator, so seeded automata are unchanged; the direct loop just
       skips the intermediate candidate list. *)
    Array.init nstates (fun _ ->
        Array.init alphabet (fun _ ->
            let rec draw q' acc =
              if q' >= nstates then List.rev acc
              else if Random.State.float st 1.0 < density then
                draw (q' + 1) (q' :: acc)
              else draw (q' + 1) acc
            in
            draw 0 []))
  in
  let accepting =
    Array.init nstates (fun _ ->
        Random.State.float st 1.0 < accepting_fraction)
  in
  make ~alphabet ~nstates ~start:0 ~delta ~accepting
