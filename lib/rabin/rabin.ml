module Ftree = Sl_tree.Ftree
module Rtree = Sl_tree.Rtree
module Digraph = Sl_core.Digraph

type t = {
  alphabet : int;
  k : int;
  nstates : int;
  start : int;
  delta : int array list array array;
  pairs : (bool array * bool array) list;
}

let make ~alphabet ~k ~nstates ~start ~delta ~pairs =
  if alphabet < 1 then invalid_arg "Rabin.make: empty alphabet";
  if k < 1 then invalid_arg "Rabin.make: arity must be >= 1";
  if nstates < 1 then invalid_arg "Rabin.make: need a state";
  if start < 0 || start >= nstates then invalid_arg "Rabin.make: bad start";
  if Array.length delta <> nstates then invalid_arg "Rabin.make: delta shape";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet then
        invalid_arg "Rabin.make: delta row shape";
      Array.iter
        (List.iter (fun tuple ->
             if Array.length tuple <> k then
               invalid_arg "Rabin.make: tuple arity";
             Array.iter
               (fun q ->
                 if q < 0 || q >= nstates then
                   invalid_arg "Rabin.make: tuple state out of range")
               tuple))
        row)
    delta;
  List.iter
    (fun (green, red) ->
      if Array.length green <> nstates || Array.length red <> nstates then
        invalid_arg "Rabin.make: pair shape")
    pairs;
  { alphabet; k; nstates; start; delta; pairs }

let graph b =
  (* Tuple components flattened: [q --s--> q'] whenever [q'] occurs in
     some successor tuple of [delta.(q).(s)]. *)
  Digraph.of_delta
    (Array.map
       (Array.map (List.concat_map Array.to_list))
       b.delta)

(* Compile-time witness: this module has the shared automaton shape. *)
module _ : Sl_core.Automaton_sig.S with type t = t = struct
  type nonrec t = t

  let alphabet b = b.alphabet
  let nstates b = b.nstates
  let graph = graph
end

let buchi_condition ~nstates ~accepting =
  let green = Array.make nstates false in
  List.iter (fun q -> green.(q) <- true) accepting;
  [ (green, Array.make nstates false) ]

let trivial_condition ~nstates =
  [ (Array.make nstates true, Array.make nstates false) ]

let is_buchi_shaped b =
  match b.pairs with
  | [ (_, red) ] -> not (Array.exists Fun.id red)
  | _ -> false

let buchi_accepting b =
  match b.pairs with
  | [ (green, red) ] when not (Array.exists Fun.id red) -> green
  | _ -> invalid_arg "Rabin.buchi_accepting: not Büchi-shaped"

(* Generic Büchi game solver: the automaton player picks a move (a set of
   successor positions, one per direction), the pathfinder picks the
   successor. Winning region of  νY. μX. [ Pre X ∪ (acc ∩ Pre Y) ]. *)
let solve_buchi ~npos ~moves ~accepting =
  (* Memoize the move lists: the fixpoint below re-queries every position
     per sweep, and the seed rebuilt each move list on every [pre] call. *)
  let moves = Array.init npos moves in
  let pre inside p =
    List.exists (fun m -> List.for_all (fun s -> inside.(s)) m) moves.(p)
  in
  let y = Array.make npos true in
  let stable = ref false in
  while not !stable do
    (* X := μX. Pre X ∪ (acc ∩ Pre Y) *)
    let x = Array.make npos false in
    let grew = ref true in
    while !grew do
      grew := false;
      for p = 0 to npos - 1 do
        if (not x.(p)) && (pre x p || (accepting p && pre y p)) then begin
          x.(p) <- true;
          grew := true
        end
      done
    done;
    if x = y then stable := true else Array.blit x 0 y 0 npos
  done;
  y

let nonempty_states b =
  if not (is_buchi_shaped b) then
    invalid_arg "Rabin.nonempty_states: not Büchi-shaped";
  let green = buchi_accepting b in
  let moves q =
    List.concat_map
      (fun s -> List.map Array.to_list b.delta.(q).(s))
      (List.init b.alphabet Fun.id)
  in
  solve_buchi ~npos:b.nstates ~moves ~accepting:(fun q -> green.(q))

let is_empty b = not (nonempty_states b).(b.start)

(* Witness extraction: rerun the inner μ-fixpoint against the final
   winning set Y and remember, for each state, the move that first put it
   in (its attractor rank decreases along the strategy, and accepting
   states restart the descent inside Y — the standard Büchi-game
   strategy). *)
let nonempty_witness b =
  if not (is_buchi_shaped b) then
    invalid_arg "Rabin.nonempty_witness: not Büchi-shaped";
  let w = nonempty_states b in
  if not w.(b.start) then None
  else begin
    let green = buchi_accepting b in
    let n = b.nstates in
    let choice = Array.make n None in
    let in_x = Array.make n false in
    let try_move ~target q =
      let found = ref None in
      for s = 0 to b.alphabet - 1 do
        List.iter
          (fun tuple ->
            if !found = None && Array.for_all (fun q' -> target q') tuple
            then found := Some (s, tuple))
          b.delta.(q).(s)
      done;
      !found
    in
    let grew = ref true in
    while !grew do
      grew := false;
      for q = 0 to n - 1 do
        if w.(q) && not in_x.(q) then begin
          let move =
            if green.(q) then try_move ~target:(fun q' -> w.(q')) q
            else try_move ~target:(fun q' -> in_x.(q')) q
          in
          match move with
          | Some m ->
              choice.(q) <- Some m;
              in_x.(q) <- true;
              grew := true
          | None -> ()
        end
      done
    done;
    (* Accepting states may have been given a move into W before the
       non-accepting attractor filled; every W-state now has a choice. *)
    let label = Array.make n 0 in
    let children = Array.make_matrix n b.k 0 in
    let ok = ref true in
    for q = 0 to n - 1 do
      if w.(q) then
        match choice.(q) with
        | Some (s, tuple) ->
            label.(q) <- s;
            Array.blit tuple 0 children.(q) 0 b.k
        | None -> ok := false
    done;
    if not !ok then None
    else
      (* Unchosen (dead) states self-loop harmlessly; they are
         unreachable from the start through chosen moves. *)
      Some
        (Rtree.make ~k:b.k ~nstates:n ~root:b.start ~label ~children)
  end

(* Product positions for membership: (automaton state, presentation
   state). *)
let product_moves b (t : Rtree.t) =
  let encode q v = (q * t.Rtree.nstates) + v in
  let moves p =
    let q = p / t.Rtree.nstates and v = p mod t.Rtree.nstates in
    if t.Rtree.k <> b.k then invalid_arg "Rabin.accepts: arity mismatch";
    let symbol = t.Rtree.label.(v) in
    if symbol >= b.alphabet then []
    else
      List.map
        (fun tuple ->
          List.init b.k (fun i ->
              encode tuple.(i) t.Rtree.children.(v).(i)))
        b.delta.(q).(symbol)
  in
  (encode, moves)

let accepts_buchi b t =
  let green = buchi_accepting b in
  let encode, moves = product_moves b t in
  let npos = b.nstates * t.Rtree.nstates in
  let w =
    solve_buchi ~npos ~moves
      ~accepting:(fun p -> green.(p / t.Rtree.nstates))
  in
  w.(encode b.start t.Rtree.root)

(* All paths of a run graph satisfy the Rabin condition iff no reachable
   "violating" strongly connected subgraph exists: a closed walk C with,
   for every pair, C ∩ green = ∅ or C ∩ red ≠ ∅. Classic recursive SCC
   peeling (the violating condition is a Streett condition), with the SCC
   decomposition of each induced subgraph delegated to the shared CSR
   kernel. *)
let run_graph_violates g ~reachable ~state_of ~pairs =
  let npos = Digraph.nodes g in
  let in_nodes = Array.make npos false in
  let sccs nodes =
    Array.fill in_nodes 0 npos false;
    List.iter (fun v -> in_nodes.(v) <- true) nodes;
    Digraph.sccs ~filter:(fun v -> in_nodes.(v)) g
  in
  let rec violating nodes =
    let r = sccs nodes in
    List.exists
      (fun comp ->
        let nontrivial =
          match comp with
          | [] -> false
          | hd :: _ -> r.Digraph.nontrivial.(r.Digraph.comp.(hd))
        in
        if not nontrivial then false
        else begin
          (* Pairs that could still be satisfied inside this component:
             green present, red absent. A violating walk must avoid their
             greens entirely. *)
          let states = List.map state_of comp in
          let live_pairs =
            List.filter
              (fun (green, red) ->
                List.exists (fun q -> green.(q)) states
                && not (List.exists (fun q -> red.(q)) states))
              pairs
          in
          if live_pairs = [] then true
          else begin
            let shrunk =
              List.filter
                (fun v ->
                  not
                    (List.exists (fun (green, _) -> green.(state_of v))
                       live_pairs))
                comp
            in
            if List.length shrunk = List.length comp then false
            else violating shrunk
          end
        end)
      r.Digraph.comps
  in
  violating (List.filter (fun v -> reachable.(v)) (List.init npos Fun.id))

let accepts_general b t =
  let encode, moves = product_moves b t in
  let npos = b.nstates * t.Rtree.nstates in
  let choice_lists = Array.init npos moves in
  (* Count memoryless strategies over positions that have choices. *)
  let combos =
    Array.fold_left
      (fun acc l -> match l with [] | [ _ ] -> acc | l ->
          acc * List.length l)
      1 choice_lists
  in
  if combos > 4096 then
    invalid_arg "Rabin.accepts: strategy enumeration exceeds guard";
  let start = encode b.start t.Rtree.root in
  (* Enumerate strategies: index into each position's choice list. *)
  let rec try_all assignment pos =
    if pos = npos then begin
      (* Evaluate this strategy: reachable positions must all have a move
         and no violating closed walk may be reachable. *)
      let g =
        Digraph.of_fn ~nodes:npos (fun v ->
            match choice_lists.(v) with
            | [] -> []
            | l -> List.nth l assignment.(v))
      in
      let reachable = Digraph.reachable g [ start ] in
      let dead = ref false in
      Array.iteri
        (fun v r -> if r && choice_lists.(v) = [] then dead := true)
        reachable;
      (not !dead)
      && not
           (run_graph_violates g ~reachable
              ~state_of:(fun v -> v / t.Rtree.nstates)
              ~pairs:b.pairs)
    end
    else begin
      match choice_lists.(pos) with
      | [] | [ _ ] -> try_all assignment (pos + 1)
      | l ->
          let n = List.length l in
          let rec pick i =
            if i >= n then false
            else begin
              assignment.(pos) <- i;
              try_all assignment (pos + 1) || pick (i + 1)
            end
          in
          let r = pick 0 in
          assignment.(pos) <- 0;
          r
    end
  in
  try_all (Array.make npos 0) 0

let accepts b t =
  if is_buchi_shaped b then accepts_buchi b t else accepts_general b t

let extends b x =
  if not (is_buchi_shaped b) then
    invalid_arg "Rabin.extends: not Büchi-shaped";
  if Ftree.size x = 0 then not (is_empty b)
  else begin
    let nonempty = nonempty_states b in
    (* cover(node) = states from which the subtree at node can be read and
       completed to an accepted tree. *)
    let rec cover node =
      match Ftree.label x node with
      | None -> invalid_arg "Rabin.extends: node vanished"
      | Some symbol ->
          if symbol >= b.alphabet then Array.make b.nstates false
          else begin
            let child_cover =
              List.init b.k (fun i ->
                  let child = node @ [ i ] in
                  if Ftree.mem x child then Some (cover child) else None)
            in
            Array.init b.nstates (fun q ->
                List.exists
                  (fun tuple ->
                    List.for_all
                      (fun i ->
                        match List.nth child_cover i with
                        | Some c -> c.(tuple.(i))
                        | None -> nonempty.(tuple.(i)))
                      (List.init b.k Fun.id))
                  b.delta.(q).(symbol))
          end
    in
    (cover []).(b.start)
  end

let union a b =
  if a.alphabet <> b.alphabet || a.k <> b.k then
    invalid_arg "Rabin.union: incompatible automata";
  let shift_a = 1 and shift_b = 1 + a.nstates in
  let nstates = 1 + a.nstates + b.nstates in
  let remap shift tuple = Array.map (( + ) shift) tuple in
  let delta =
    Array.init nstates (fun q ->
        Array.init a.alphabet (fun s ->
            if q = 0 then
              List.map (remap shift_a) a.delta.(a.start).(s)
              @ List.map (remap shift_b) b.delta.(b.start).(s)
            else if q < shift_b then
              List.map (remap shift_a) a.delta.(q - shift_a).(s)
            else List.map (remap shift_b) b.delta.(q - shift_b).(s)))
  in
  let embed shift n (green, red) =
    let g = Array.make nstates false and r = Array.make nstates false in
    for q = 0 to n - 1 do
      g.(q + shift) <- green.(q);
      r.(q + shift) <- red.(q)
    done;
    (g, r)
  in
  let pairs =
    List.map (embed shift_a a.nstates) a.pairs
    @ List.map (embed shift_b b.nstates) b.pairs
  in
  make ~alphabet:a.alphabet ~k:a.k ~nstates ~start:0 ~delta ~pairs

let restrict b keep =
  if not keep.(b.start) then begin
    (* Empty-language automaton of the same shape. *)
    let delta =
      Array.init 1 (fun _ -> Array.make b.alphabet [])
    in
    make ~alphabet:b.alphabet ~k:b.k ~nstates:1 ~start:0 ~delta
      ~pairs:(buchi_condition ~nstates:1 ~accepting:[])
  end
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
    let delta =
      Array.init nstates (fun _ -> Array.make b.alphabet [])
    in
    Array.iteri
      (fun q kq ->
        if kq then
          Array.iteri
            (fun s tuples ->
              delta.(remap.(q)).(s) <-
                List.filter_map
                  (fun tuple ->
                    if Array.for_all (fun q' -> keep.(q')) tuple then
                      Some (Array.map (fun q' -> remap.(q')) tuple)
                    else None)
                  tuples)
            b.delta.(q))
      keep;
    let pairs =
      List.map
        (fun (green, red) ->
          let g = Array.make nstates false and r = Array.make nstates false in
          Array.iteri
            (fun q kq ->
              if kq then begin
                g.(remap.(q)) <- green.(q);
                r.(remap.(q)) <- red.(q)
              end)
            keep;
          (g, r))
        b.pairs
    in
    make ~alphabet:b.alphabet ~k:b.k ~nstates ~start:remap.(b.start) ~delta
      ~pairs
  end

let pp fmt b =
  Format.fprintf fmt "@[<v>rabin(k=%d, %d states, %d pairs, start %d)@," b.k
    b.nstates (List.length b.pairs) b.start;
  for q = 0 to b.nstates - 1 do
    Format.fprintf fmt "  %d:" q;
    Array.iteri
      (fun s tuples ->
        List.iter
          (fun tuple ->
            Format.fprintf fmt " %d->(%s)" s
              (String.concat ","
                 (List.map string_of_int (Array.to_list tuple))))
          tuples)
      b.delta.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
