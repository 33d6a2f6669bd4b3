(* The seed's [Map.Make]-interned Kupferman–Vardi complementation, kept
   verbatim as the reference for [Sl_buchi.Complement.rank_based]. It
   explores in the same breadth-first order, so the two must produce
   the identical automaton. The ranking helpers are copied from the
   library as they stood when the two constructions shared them. *)

module Buchi = Sl_buchi.Buchi

module Ranking = struct
  type t = { g : int array; o : int list }

  let compare = Stdlib.compare
end

let max_rank_of (b : Buchi.t) =
  let reach = Buchi.reachable b in
  let reachable_non_accepting = ref 0 in
  Array.iteri
    (fun q r -> if r && not b.accepting.(q) then incr reachable_non_accepting)
    reach;
  max 2 (2 * !reachable_non_accepting)

let initial_ranking (b : Buchi.t) ~max_rank =
  let g = Array.make b.nstates (-1) in
  g.(b.start) <- max_rank;
  { Ranking.g; o = [] }

(* Legal ranking successors of [st] on symbol [s]. *)
let ranking_successors (b : Buchi.t) (st : Ranking.t) s =
    let n = b.nstates in
    let dom = ref [] in
    Array.iteri (fun q r -> if r >= 0 then dom := q :: !dom) st.g;
    let dom = !dom in
    (* Upper bound on each successor's rank: min over predecessors. *)
    let bound = Array.make n max_int in
    List.iter
      (fun q ->
        List.iter
          (fun q' -> bound.(q') <- min bound.(q') st.g.(q))
          b.delta.(q).(s))
      dom;
    let succ_states =
      List.filter (fun q' -> bound.(q') < max_int) (List.init n Fun.id)
    in
    (* Enumerate all legal rankings g' over succ_states. *)
    let rec assign acc = function
      | [] -> [ List.rev acc ]
      | q' :: rest ->
          let ranks =
            List.filter
              (fun r -> (not b.accepting.(q')) || r mod 2 = 0)
              (List.init (bound.(q') + 1) Fun.id)
          in
          List.concat_map (fun r -> assign ((q', r) :: acc) rest) ranks
    in
    let rankings = assign [] succ_states in
    List.map
      (fun assoc ->
        let g' = Array.make n (-1) in
        List.iter (fun (q', r) -> g'.(q') <- r) assoc;
        let even q' = g'.(q') >= 0 && g'.(q') mod 2 = 0 in
        let o' =
          if st.o = [] then List.filter even succ_states
          else begin
            let o_succ =
              List.concat_map (fun q -> b.delta.(q).(s)) st.o
              |> List.sort_uniq Stdlib.compare
            in
            List.filter even o_succ
          end
        in
        { Ranking.g = g'; o = o' })
      rankings

let rank_based ?(max_states = 200_000) (b : Buchi.t) =
  let max_rank = max_rank_of b in
  let module S = Map.Make (Ranking) in
  let interned = ref S.empty in
  let states = ref [] in
  let count = ref 0 in
  let intern st =
    match S.find_opt st !interned with
    | Some i -> i
    | None ->
        let i = !count in
        if i >= max_states then
          raise
            (Sl_buchi.Complement.Too_large
               (Printf.sprintf "rank-based complement exceeds %d states"
                  max_states));
        incr count;
        interned := S.add st i !interned;
        states := st :: !states;
        i
  in
  let initial = initial_ranking b ~max_rank in
  let transitions = Hashtbl.create 256 in
  let queue = Queue.create () in
  let start = intern initial in
  Queue.push initial queue;
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    let i = S.find st !interned in
    if not (Hashtbl.mem transitions i) then begin
      let row =
        Array.init b.alphabet (fun s ->
            List.map
              (fun st' ->
                let fresh = not (S.mem st' !interned) in
                let j = intern st' in
                if fresh then Queue.push st' queue;
                j)
              (ranking_successors b st s)
            |> List.sort_uniq Stdlib.compare)
      in
      Hashtbl.replace transitions i row
    end
  done;
  let nstates = !count in
  let all_states = Array.make nstates initial in
  List.iter (fun st -> all_states.(S.find st !interned) <- st) !states;
  let delta =
    Array.init nstates (fun i ->
        match Hashtbl.find_opt transitions i with
        | Some row -> row
        | None -> Array.make b.alphabet [])
  in
  let accepting = Array.init nstates (fun i -> all_states.(i).Ranking.o = []) in
  Buchi.make ~alphabet:b.alphabet ~nstates ~start ~delta ~accepting
