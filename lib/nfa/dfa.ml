module Digraph = Sl_core.Digraph
module Asig = Sl_core.Automaton_sig

type t = {
  alphabet : int;
  nstates : int;
  start : int;
  delta : int array array;
  accepting : bool array;
}

let make ~alphabet ~nstates ~start ~delta ~accepting =
  let name = "Dfa.make" in
  Asig.check_alphabet ~name alphabet;
  Asig.check_nstates ~name nstates;
  Asig.check_state ~name ~nstates start;
  Asig.check_flags ~name ~nstates accepting;
  Asig.check_delta ~name ~alphabet ~nstates
    (Array.map (Array.map (fun q -> [ q ])) delta);
  { alphabet; nstates; start; delta; accepting }

let step d q s = d.delta.(q).(s)
let run d word = List.fold_left (step d) d.start word
let accepts d word = d.accepting.(run d word)

let complement d =
  { d with accepting = Array.map not d.accepting }

let product ~bool_op a b =
  if a.alphabet <> b.alphabet then invalid_arg "Dfa.product: alphabets differ";
  let n = a.nstates * b.nstates in
  let encode qa qb = (qa * b.nstates) + qb in
  let delta =
    Array.init n (fun q ->
        let qa = q / b.nstates and qb = q mod b.nstates in
        Array.init a.alphabet (fun s ->
            encode a.delta.(qa).(s) b.delta.(qb).(s)))
  in
  let accepting =
    Array.init n (fun q ->
        bool_op a.accepting.(q / b.nstates) b.accepting.(q mod b.nstates))
  in
  make ~alphabet:a.alphabet ~nstates:n ~start:(encode a.start b.start) ~delta
    ~accepting

let intersect = product ~bool_op:( && )
let union = product ~bool_op:( || )

let graph d = Digraph.of_array_delta d.delta

(* Compile-time witness: this module has the shared automaton shape. *)
module _ : Asig.S with type t = t = struct
  type nonrec t = t

  let alphabet d = d.alphabet
  let nstates d = d.nstates
  let graph = graph
end

let reachable d = Digraph.reachable (graph d) [ d.start ]

let some_accepted_word d =
  Digraph.shortest_path (graph d) ~src:d.start ~target:(fun q ->
      d.accepting.(q))
  |> Option.map (List.map fst)

let is_empty d = some_accepted_word d = None

let equivalent a b =
  is_empty (product ~bool_op:( <> ) a b)

let subset a b = is_empty (intersect a (complement b))

let minimize d =
  let reach = reachable d in
  (* Moore refinement over reachable states; unreachable states are
     dropped. *)
  let cls = Array.make d.nstates (-1) in
  Array.iteri
    (fun q r -> if r then cls.(q) <- (if d.accepting.(q) then 1 else 0))
    reach;
  let stable = ref false in
  while not !stable do
    stable := true;
    (* Signature of q: its class plus classes of its successors. *)
    let signature q = (cls.(q), Array.map (fun q' -> cls.(q')) d.delta.(q)) in
    let table = Hashtbl.create 16 in
    let next = ref 0 in
    let new_cls = Array.make d.nstates (-1) in
    Array.iteri
      (fun q r ->
        if r then begin
          let s = signature q in
          match Hashtbl.find_opt table s with
          | Some c -> new_cls.(q) <- c
          | None ->
              Hashtbl.add table s !next;
              new_cls.(q) <- !next;
              incr next
        end)
      reach;
    if new_cls <> cls then begin
      Array.blit new_cls 0 cls 0 d.nstates;
      stable := false
    end
  done;
  let nclasses = 1 + Array.fold_left max (-1) cls in
  let repr = Array.make nclasses (-1) in
  Array.iteri (fun q c -> if c >= 0 && repr.(c) = -1 then repr.(c) <- q) cls;
  let delta =
    Array.init nclasses (fun c ->
        Array.init d.alphabet (fun s -> cls.(d.delta.(repr.(c)).(s))))
  in
  let accepting = Array.init nclasses (fun c -> d.accepting.(repr.(c))) in
  make ~alphabet:d.alphabet ~nstates:nclasses ~start:cls.(d.start) ~delta
    ~accepting

let is_prefix_closed d =
  (* Prefix-closed iff no reachable non-accepting state can reach an
     accepting state. Backwards reachability runs on the transposed CSR
     graph (the seed iterated a quadratic fixpoint sweep). *)
  let g = graph d in
  let reach = Digraph.reachable g [ d.start ] in
  let can_accept = Digraph.reachable_from (Digraph.reverse g) d.accepting in
  let ok = ref true in
  for q = 0 to d.nstates - 1 do
    if reach.(q) && (not d.accepting.(q)) && can_accept.(q) then ok := false
  done;
  !ok

let is_total_language d = is_empty (complement d)

let pp fmt d =
  Format.fprintf fmt "@[<v>dfa(%d states, start %d)@," d.nstates d.start;
  for q = 0 to d.nstates - 1 do
    Format.fprintf fmt "  %d%s:" q (if d.accepting.(q) then "*" else "");
    Array.iteri (fun s q' -> Format.fprintf fmt " %d->%d" s q') d.delta.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
