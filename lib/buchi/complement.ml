exception Too_large of string

module Obs = Sl_obs.Obs

(* Rank-based complementation telemetry (recorded only while Sl_obs is
   enabled): constructed state counts and ranking-interner hit rate. *)
let m_rank_runs = Obs.Metrics.counter "buchi_rank_complement_runs_total"
let h_rank_states = Obs.Metrics.histogram "buchi_rank_complement_states"
let m_rank_interner_hits = Obs.Metrics.counter "buchi_rank_interner_hits_total"

(* The complement of a closure-shaped automaton with a non-empty
   language; the caller has checked both. The prefix language P of a
   closure automaton is prefix-closed and its complement is
   extension-closed, so in the subset DFA the empty set is the unique
   rejecting sink: a word is outside the closed ω-language iff its run
   eventually falls into that sink. *)
let complement_closure_shaped (b : Buchi.t) =
  let dfa = Sl_nfa.Nfa.determinize (Buchi.to_prefix_nfa b) in
  let delta = Array.map (fun row -> Array.map (fun q -> [ q ]) row)
      dfa.Sl_nfa.Dfa.delta in
  let accepting = Array.map not dfa.Sl_nfa.Dfa.accepting in
  if not (Array.exists Fun.id accepting) then
    Buchi.empty_language ~alphabet:b.alphabet
  else
    Buchi.make ~alphabet:b.alphabet ~nstates:dfa.Sl_nfa.Dfa.nstates
      ~start:dfa.Sl_nfa.Dfa.start ~delta ~accepting

let complement_closed (b : Buchi.t) =
  if Buchi.is_empty b then Buchi.universal ~alphabet:b.alphabet
  else if not (Closure.is_closure_shaped b) then
    invalid_arg "Complement.complement_closed: automaton is not closure-shaped"
  else complement_closure_shaped b

(* Kupferman–Vardi rank-based complementation. Complement states are pairs
   (g, O): g a level ranking (rank per tracked state of B, -1 for absent;
   accepting states even) and O the subset of even-ranked states currently
   "owing" a rank decrease. Acceptance: O = empty. *)
module Ranking = struct
  type t = { g : int array; o : int list }

  let equal a b = a.g = b.g && a.o = b.o

  (* Whole-structure FNV-style mix: [Hashtbl.hash] truncates after a
     bounded number of nodes, which collapses large rankings into
     collision chains. *)
  let hash { g; o } =
    let h = ref 0x811c9dc5 in
    Array.iter (fun r -> h := (!h lxor (r + 2)) * 0x01000193) g;
    List.iter (fun q -> h := (!h lxor (q * 31)) * 0x01000193) o;
    !h land max_int
end

module Rtable = Hashtbl.Make (Ranking)

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

(* Hash-interned construction: ranking states get dense ids through an
   [Rtable] (constant-time amortized lookup with a whole-structure hash)
   where the seed threaded every lookup through a [Map.Make] balanced tree
   keyed by [Stdlib.compare]. Breadth-first, so state numbering matches
   the seed's construction exactly (kept as a test reference). *)
let rank_based ?(max_states = 200_000) (b : Buchi.t) =
  let sp = Obs.Span.enter "buchi.rank_complement" in
  let max_rank = max_rank_of b in
  let interned = Rtable.create 256 in
  let states = ref [] in
  let count = ref 0 in
  let intern_calls = ref 0 in
  let intern st =
    incr intern_calls;
    match Rtable.find_opt interned st with
    | Some i -> i
    | None ->
        let i = !count in
        if i >= max_states then
          raise
            (Too_large
               (Printf.sprintf "rank-based complement exceeds %d states"
                  max_states));
        incr count;
        Rtable.add interned st i;
        states := st :: !states;
        i
  in
  let initial = initial_ranking b ~max_rank in
  let transitions = Hashtbl.create 256 in
  let build () =
    let queue = Queue.create () in
    let start = intern initial in
    Queue.push initial queue;
    while not (Queue.is_empty queue) do
      let st = Queue.pop queue in
      let i = Rtable.find interned st in
      if not (Hashtbl.mem transitions i) then begin
        let row =
          Array.init b.alphabet (fun s ->
              List.map
                (fun st' ->
                  let fresh = not (Rtable.mem interned st') in
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
    List.iter (fun st -> all_states.(Rtable.find interned st) <- st) !states;
    let delta =
      Array.init nstates (fun i ->
          match Hashtbl.find_opt transitions i with
          | Some row -> row
          | None -> Array.make b.alphabet [])
    in
    let accepting =
      Array.init nstates (fun i -> all_states.(i).Ranking.o = [])
    in
    Buchi.make ~alphabet:b.alphabet ~nstates ~start ~delta ~accepting
  in
  match build () with
  | exception e ->
      Obs.Span.exit sp;
      raise e
  | result ->
      let hits = !intern_calls - !count in
      Obs.Metrics.incr m_rank_runs;
      Obs.Metrics.observe h_rank_states !count;
      Obs.Metrics.add m_rank_interner_hits hits;
      Obs.Span.attr sp "input_states" b.Buchi.nstates;
      Obs.Span.attr sp "max_rank" max_rank;
      Obs.Span.attr sp "states" !count;
      Obs.Span.attr sp "interner_hits" hits;
      Obs.Span.exit sp;
      result

let negate (b : Buchi.t) =
  if Buchi.is_empty b then Buchi.universal ~alphabet:b.alphabet
  else if Closure.is_closure_shaped b then complement_closure_shaped b
  else rank_based b
