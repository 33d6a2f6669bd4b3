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

let on_cycle b = on_cycle_of (Digraph.sccs (graph b)) b.nstates

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

(* BFS shortest path in the labeled graph from [src] to any state in
   [targets]; returns the word and the state reached. [min_steps] forces at
   least that many transitions (used to find nonempty cycles). *)
let bfs_word b ~src ~targets ~min_steps =
  let g = graph b in
  let n = b.nstates in
  (* Layer 0 is src with 0 steps; track (state, steps>=min as flag). *)
  let seen = Array.make_matrix n 2 false in
  let parent = Hashtbl.create 16 in
  let queue = Queue.create () in
  let flag0 = if min_steps = 0 then 1 else 0 in
  seen.(src).(flag0) <- true;
  Queue.push (src, flag0) queue;
  let result = ref None in
  while !result = None && not (Queue.is_empty queue) do
    let q, f = Queue.pop queue in
    if f = 1 && targets q then result := Some q
    else
      (* After one or more steps the min-step obligation (0 or 1 here) is
         met, so successors always carry flag 1. *)
      for s = 0 to b.alphabet - 1 do
        Digraph.iter_succ_sym g q s (fun q' ->
            if not seen.(q').(1) then begin
              seen.(q').(1) <- true;
              Hashtbl.replace parent (q', 1) (q, f, s);
              Queue.push (q', 1) queue
            end)
      done
  done;
  Option.map
    (fun target ->
      let rec unwind node acc =
        match Hashtbl.find_opt parent node with
        | None -> acc
        | Some (p, pf, s) -> unwind (p, pf) (s :: acc)
      in
      (unwind (target, 1) [], target))
    !result

let nonempty_witness b =
  let reach = reachable b in
  let cyc = on_cycle b in
  let good q = reach.(q) && b.accepting.(q) && cyc.(q) in
  match bfs_word b ~src:b.start ~targets:good ~min_steps:0 with
  | None -> None
  | Some (spoke_word, f) -> (
      match bfs_word b ~src:f ~targets:(fun q -> q = f) ~min_steps:1 with
      | None -> None (* impossible: f is on a cycle *)
      | Some (cycle_word, _) ->
          Some (Lasso.make ~prefix:spoke_word ~cycle:cycle_word))

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
