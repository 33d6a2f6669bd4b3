(* The packed CSR digraph kernel, pinned against straightforward
   reference implementations kept here in the test suite: a recursive
   textbook Tarjan, naive reachability, and a quadratic condensation.
   The kernel must agree not just on the partition but on the exact
   orders the automaton layers rely on for byte-identical output:
   component ids in completion order, members ascending in
   DFS-discovery order, successor storage order preserved. *)

module Digraph = Sl_core.Digraph
module Buchi = Sl_buchi.Buchi

let check = Alcotest.(check bool)

(* --- Reference implementations (live here on purpose: the library
   keeps exactly one Tarjan, in Sl_core.Digraph) --- *)

(* Recursive Tarjan over successor lists, restricted to [keep]. *)
let ref_sccs ~n ~succs ~keep =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Array.make n (-1) in
  let comps = ref [] in
  let nontrivial = ref [] in
  let ncomp = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if keep w then
          if index.(w) = -1 then begin
            strongconnect w;
            lowlink.(v) <- min lowlink.(v) lowlink.(w)
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let members = ref [] in
      let brk = ref false in
      while not !brk do
        match !stack with
        | [] -> brk := true
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            members := w :: !members;
            if w = v then brk := true
      done;
      let ms = !members in
      let nt =
        match ms with
        | [ single ] ->
            List.exists (fun w -> w = single && keep w) (succs single)
        | _ -> List.length ms > 1
      in
      comps := ms :: !comps;
      nontrivial := nt :: !nontrivial;
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if keep v && index.(v) = -1 then strongconnect v
  done;
  (comp, !ncomp, !comps, Array.of_list (List.rev !nontrivial))

(* Naive worklist reachability to a fixpoint. *)
let ref_reachable ~n ~succs ~keep sources =
  let seen = Array.make n false in
  List.iter (fun v -> if keep v then seen.(v) <- true) sources;
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if seen.(v) then
        List.iter
          (fun w ->
            if keep w && not seen.(w) then begin
              seen.(w) <- true;
              changed := true
            end)
          (succs v)
    done
  done;
  seen

(* --- Random graphs via the Büchi generator (already deterministic in
   the seed), read back as plain successor lists. --- *)

let random_graph seed n density =
  let b = Buchi.random ~seed ~alphabet:2 ~nstates:n ~density
      ~accepting_fraction:0.3 () in
  let succs =
    Array.init n (fun q -> b.Buchi.delta.(q).(0) @ b.Buchi.delta.(q).(1))
  in
  (b, succs)

let sorted l = List.sort compare l

(* --- Agreement of the CSR kernel with the references --- *)

let test_sccs_agree () =
  for seed = 0 to 24 do
    let n = 3 + (seed mod 12) in
    let density = 0.05 +. (0.04 *. float_of_int (seed mod 8)) in
    let b, succs = random_graph seed n density in
    let g = Buchi.graph b in
    let keep v = v mod 3 <> seed mod 3 || seed mod 2 = 0 in
    let all _ = true in
    List.iter
      (fun keep ->
        let r = Digraph.sccs ~filter:keep g in
        let comp, count, comps, nontrivial =
          ref_sccs ~n ~succs:(fun v -> succs.(v)) ~keep
        in
        check "comp ids" true (r.Digraph.comp = comp);
        check "comp count" true (r.Digraph.count = count);
        check "comps lists" true (r.Digraph.comps = comps);
        check "nontrivial flags" true (r.Digraph.nontrivial = nontrivial))
      [ all; keep ]
  done

let test_reachable_agree () =
  for seed = 0 to 24 do
    let n = 2 + (seed mod 14) in
    let b, succs = random_graph seed n 0.15 in
    let g = Buchi.graph b in
    let keep v = (v + seed) mod 4 <> 0 in
    let all _ = true in
    List.iter
      (fun keep ->
        let fwd = Digraph.reachable ~filter:keep g [ 0 ] in
        let fwd_ref =
          ref_reachable ~n ~succs:(fun v -> succs.(v)) ~keep [ 0 ]
        in
        check "forward reach" true (fwd = fwd_ref);
        (* Backward reachability = forward on the reversed edges. *)
        let seeds = Array.init n (fun v -> b.Buchi.accepting.(v)) in
        let bwd =
          Digraph.reachable_from ~filter:keep (Digraph.reverse g) seeds
        in
        let preds = Array.make n [] in
        Array.iteri
          (fun v ws -> List.iter (fun w -> preds.(w) <- v :: preds.(w)) ws)
          succs;
        let bwd_ref =
          ref_reachable ~n ~succs:(fun v -> preds.(v)) ~keep
            (List.filter (fun v -> seeds.(v)) (List.init n Fun.id))
        in
        check "backward reach" true (bwd = bwd_ref))
      [ all; keep ]
  done

let test_reverse_edge_set () =
  for seed = 0 to 9 do
    let n = 2 + (seed mod 10) in
    let _, succs = random_graph seed n 0.2 in
    let g = Digraph.of_successors succs in
    let rg = Digraph.reverse g in
    let edges h =
      let acc = ref [] in
      for v = 0 to Digraph.nodes h - 1 do
        Digraph.iter_succ h v (fun w -> acc := (v, w) :: !acc)
      done;
      sorted !acc
    in
    let flipped = sorted (List.map (fun (v, w) -> (w, v)) (edges g)) in
    check "reverse has the transposed edge multiset" true
      (edges rg = flipped);
    check "double reverse restores the edge multiset" true
      (edges (Digraph.reverse rg) = edges g)
  done

let test_condense_sound () =
  for seed = 0 to 9 do
    let n = 3 + seed in
    let _, succs = random_graph seed n 0.25 in
    let g = Digraph.of_successors succs in
    let r = Digraph.sccs g in
    let dag = Digraph.condense g r in
    Alcotest.(check int) "one node per component" r.Digraph.count
      (Digraph.nodes dag);
    (* Sound: every edge of the DAG comes from some graph edge crossing
       components, and vice versa; no self edges; and it is acyclic. *)
    let cross = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      Digraph.iter_succ g v (fun w ->
          if r.Digraph.comp.(v) <> r.Digraph.comp.(w) then
            Hashtbl.replace cross (r.Digraph.comp.(v), r.Digraph.comp.(w)) ())
    done;
    let dag_edges = ref 0 in
    for c = 0 to Digraph.nodes dag - 1 do
      Digraph.iter_succ dag c (fun c' ->
          incr dag_edges;
          check "no self edges" true (c <> c');
          check "edge crosses components" true (Hashtbl.mem cross (c, c')))
    done;
    Alcotest.(check int) "deduplicated" (Hashtbl.length cross) !dag_edges;
    let rdag = Digraph.sccs dag in
    check "condensation is acyclic" true
      (Array.for_all not rdag.Digraph.nontrivial)
  done

let test_good_scc_consistent () =
  (* has_good_scc / good_scc_members against Büchi emptiness, which the
     suite validates independently (witness round-trips, complement). *)
  for seed = 0 to 19 do
    let b =
      Buchi.random ~seed ~alphabet:2 ~nstates:(4 + (seed mod 8))
        ~density:0.2 ~accepting_fraction:0.3 ()
    in
    let g = Buchi.graph b in
    let reach = Buchi.reachable b in
    let nonempty =
      Digraph.has_good_scc g
        ~filter:(fun q -> reach.(q))
        ~predicates:[ (fun q -> b.Buchi.accepting.(q)) ]
    in
    check "good SCC iff language nonempty" true
      (nonempty = not (Buchi.is_empty b));
    let members =
      Digraph.good_scc_members g
        ~predicates:[ (fun q -> b.Buchi.accepting.(q)) ]
    in
    check "members consistent with existence" true
      (Digraph.has_good_scc g
         ~predicates:[ (fun q -> b.Buchi.accepting.(q)) ]
      = Array.exists Fun.id members)
  done

(* --- Unit tests: shapes the property loop misses --- *)

let test_empty_graph () =
  let g = Digraph.of_successors [||] in
  Alcotest.(check int) "no nodes" 0 (Digraph.nodes g);
  Alcotest.(check int) "no edges" 0 (Digraph.nedges g);
  let r = Digraph.sccs g in
  Alcotest.(check int) "no components" 0 r.Digraph.count;
  check "no good SCC" false (Digraph.has_good_scc g ~predicates:[])

let test_self_loop_singleton () =
  (* 0 -> 0, 0 -> 1; node 1 has no loop. *)
  let g = Digraph.of_successors [| [ 0; 1 ]; [] |] in
  let r = Digraph.sccs g in
  Alcotest.(check int) "two components" 2 r.Digraph.count;
  check "loop state nontrivial" true
    r.Digraph.nontrivial.(r.Digraph.comp.(0));
  check "loopless state trivial" false
    r.Digraph.nontrivial.(r.Digraph.comp.(1));
  check "self loop seen" true (Digraph.has_self_loop g 0);
  check "no self loop" false (Digraph.has_self_loop g 1);
  (* Filtering out the loop target does not erase the self loop, but
     filtering out the node itself does. *)
  let r' = Digraph.sccs ~filter:(fun v -> v = 0) g in
  check "self loop survives filter" true
    r'.Digraph.nontrivial.(r'.Digraph.comp.(0));
  let r'' = Digraph.sccs ~filter:(fun v -> v = 1) g in
  Alcotest.(check int) "filtered-out node has no component" (-1)
    r''.Digraph.comp.(0)

let test_single_scc () =
  (* A 4-cycle: one component, everything nontrivial, condensation is a
     single node with no edges. *)
  let n = 4 in
  let g = Digraph.of_fn ~nodes:n (fun v -> [ (v + 1) mod n ]) in
  let r = Digraph.sccs g in
  Alcotest.(check int) "one component" 1 r.Digraph.count;
  check "nontrivial" true r.Digraph.nontrivial.(0);
  Alcotest.(check (list (list int))) "members ascending" [ [ 0; 1; 2; 3 ] ]
    r.Digraph.comps;
  let dag = Digraph.condense g r in
  Alcotest.(check int) "condensed to a point" 1 (Digraph.nodes dag);
  Alcotest.(check int) "no DAG edges" 0 (Digraph.nedges dag)

let test_no_edges () =
  let g = Digraph.of_successors [| []; []; [] |] in
  let r = Digraph.sccs g in
  Alcotest.(check int) "one component per node" 3 r.Digraph.count;
  check "all trivial" true (Array.for_all not r.Digraph.nontrivial);
  check "nothing reachable from 0 but 0" true
    (Digraph.reachable g [ 0 ] = [| true; false; false |])

let test_labeled_access () =
  (* of_delta keeps per-symbol extents, storage order, and duplicates. *)
  let delta = [| [| [ 1; 1 ]; [ 0 ] |]; [| []; [ 1; 0 ] |] |] in
  let g = Digraph.of_delta delta in
  Alcotest.(check int) "symbols" 2 (Digraph.nsyms g);
  Alcotest.(check int) "edges counted with duplicates" 5 (Digraph.nedges g);
  Alcotest.(check (list int)) "succs (0, a)" [ 1; 1 ] (Digraph.succs_sym g 0 0);
  Alcotest.(check (list int)) "succs (1, b) keeps order" [ 1; 0 ]
    (Digraph.succs_sym g 1 1);
  Alcotest.(check int) "sym_degree" 2 (Digraph.sym_degree g 0 0);
  Alcotest.(check int) "sym_degree empty" 0 (Digraph.sym_degree g 1 0);
  let order = ref [] in
  Digraph.iter_succ g 0 (fun w -> order := w :: !order);
  Alcotest.(check (list int)) "iter_succ is storage order" [ 1; 1; 0 ]
    (List.rev !order)

let test_builder_validation () =
  Alcotest.check_raises "ragged rows"
    (Invalid_argument "Digraph.of_delta: ragged rows") (fun () ->
      ignore (Digraph.of_delta [| [| [] |]; [| []; [] |] |]));
  Alcotest.check_raises "target out of range"
    (Invalid_argument "Digraph.of_delta: target out of range") (fun () ->
      ignore (Digraph.of_successors [| [ 1 ] |]))

let test_deep_path_no_overflow () =
  (* A path of 200k nodes ending in a 2-cycle: the recursive reference
     would overflow the OCaml stack; the kernel must not. *)
  let n = 200_000 in
  let g =
    Digraph.of_fn ~nodes:n (fun v ->
        if v + 1 < n then [ v + 1 ] else [ n - 2 ])
  in
  let r = Digraph.sccs g in
  Alcotest.(check int) "components" (n - 1) r.Digraph.count;
  check "cycle at the end is nontrivial" true
    r.Digraph.nontrivial.(r.Digraph.comp.(n - 1));
  check "path states trivial" false r.Digraph.nontrivial.(r.Digraph.comp.(0))

(* --- Least shortest paths, against brute force. Paths of each length
   are enumerated in order (edge by edge: symbol, then storage
   position) and the first ending in a target is taken. Intermediate
   nodes must satisfy [keep]; with [nonempty] the empty path does not
   count. --- *)

let brute_shortest g ?(keep = fun _ -> true) ?(nonempty = false) ~max_len
    ~src target =
  let rec paths n v ~first =
    if n = 0 then Seq.return []
    else if not (first || keep v) then Seq.empty
    else
      Seq.init (Digraph.nsyms g) Fun.id
      |> Seq.concat_map (fun s ->
             List.to_seq (Digraph.succs_sym g v s)
             |> Seq.concat_map (fun w ->
                    Seq.map (fun p -> (s, w) :: p)
                      (paths (n - 1) w ~first:false)))
  in
  let ends_in_target p =
    target (List.fold_left (fun _ (_, w) -> w) src p)
  in
  Seq.init (max_len + 1) Fun.id
  |> Seq.filter (fun n -> n > 0 || not nonempty)
  |> Seq.concat_map (fun n -> paths n src ~first:true)
  |> Seq.find ends_in_target

(* Words over the DFA's alphabet up to [max_len], in (length,
   lexicographic) order. *)
let words_upto ~alphabet ~max_len =
  let rec of_len n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun s -> List.map (fun w -> s :: w) (of_len (n - 1)))
        (List.init alphabet Fun.id)
  in
  List.concat_map of_len (List.init (max_len + 1) Fun.id)

let random_dfa st =
  let nstates = 1 + Random.State.int st 6 in
  let alphabet = 1 + Random.State.int st 3 in
  Sl_nfa.Dfa.make ~alphabet ~nstates ~start:(Random.State.int st nstates)
    ~delta:
      (Array.init nstates (fun _ ->
           Array.init alphabet (fun _ -> Random.State.int st nstates)))
    ~accepting:(Array.init nstates (fun _ -> Random.State.int st 3 = 0))

let prop_least_accepted_and_bad_word =
  QCheck.Test.make ~count:300
    ~name:"least shortest accepted word and bad prefix = brute force"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d = random_dfa (Random.State.make [| seed |]) in
      let first p =
        List.find_opt p
          (words_upto ~alphabet:d.Sl_nfa.Dfa.alphabet
             ~max_len:(d.Sl_nfa.Dfa.nstates - 1))
      in
      Sl_nfa.Dfa.some_accepted_word d = first (Sl_nfa.Dfa.accepts d)
      && Sl_runtime.Packed_dfa.shortest_bad_prefix
           (Sl_runtime.Packed_dfa.of_dfa d)
         = first (fun w -> not (Sl_nfa.Dfa.accepts d w)))

let prop_least_shortest_path =
  QCheck.Test.make ~count:300
    ~name:"shortest_path = first path in (length, edge) order"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nstates = 1 + Random.State.int st 6 in
      let b =
        Buchi.random ~seed ~alphabet:(1 + Random.State.int st 2) ~nstates
          ~density:(0.1 +. Random.State.float st 0.4)
          ~accepting_fraction:0.3 ()
      in
      let g = Buchi.graph b in
      let keep v = b.Buchi.accepting.(v) || v mod 2 = 0 in
      let agrees ?filter ?nonempty ~src target =
        Digraph.shortest_path ?filter ?nonempty g ~src ~target
        = brute_shortest g ?keep:filter ?nonempty ~max_len:nstates ~src
            target
      in
      let r = Digraph.sccs g in
      let on_cycle =
        Array.map (fun c -> r.Digraph.nontrivial.(c)) r.Digraph.comp
      in
      let witness =
        Option.bind
          (brute_shortest g ~max_len:nstates ~src:b.Buchi.start (fun v ->
               b.Buchi.accepting.(v) && on_cycle.(v)))
          (fun spoke ->
            let f = List.fold_left (fun _ (_, v) -> v) b.Buchi.start spoke in
            Option.map
              (fun cycle ->
                Sl_word.Lasso.make ~prefix:(List.map fst spoke)
                  ~cycle:(List.map fst cycle))
              (brute_shortest g ~nonempty:true ~max_len:nstates ~src:f
                 (( = ) f)))
      in
      Buchi.nonempty_witness b = witness
      && List.for_all
        (fun q ->
          (* A shortest cycle through q, None when q is on no cycle. *)
          agrees ~nonempty:true ~src:q (( = ) q)
          && (Digraph.shortest_path ~nonempty:true g ~src:q ~target:(( = ) q)
              <> None)
             = on_cycle.(q)
          && agrees ~src:q (fun v -> b.Buchi.accepting.(v))
          && agrees ~filter:keep ~src:q (fun v -> v = nstates - 1)
          && agrees ~filter:keep ~nonempty:true ~src:q (( = ) q))
        (List.init nstates Fun.id))

let tests =
  [ Alcotest.test_case "sccs agree with recursive reference" `Quick
      test_sccs_agree;
    Alcotest.test_case "reachability agrees with naive fixpoint" `Quick
      test_reachable_agree;
    Alcotest.test_case "reverse transposes the edge multiset" `Quick
      test_reverse_edge_set;
    Alcotest.test_case "condensation is a sound acyclic DAG" `Quick
      test_condense_sound;
    Alcotest.test_case "good-SCC queries match Buchi emptiness" `Quick
      test_good_scc_consistent;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "self-loop singleton is nontrivial" `Quick
      test_self_loop_singleton;
    Alcotest.test_case "single SCC and its condensation" `Quick
      test_single_scc;
    Alcotest.test_case "edgeless graph" `Quick test_no_edges;
    Alcotest.test_case "labeled access and storage order" `Quick
      test_labeled_access;
    Alcotest.test_case "builder validation" `Quick test_builder_validation;
    Alcotest.test_case "deep path does not overflow the stack" `Quick
      test_deep_path_no_overflow;
    QCheck_alcotest.to_alcotest prop_least_accepted_and_bad_word;
    QCheck_alcotest.to_alcotest prop_least_shortest_path ]
