module Lasso = Sl_word.Lasso
module Digraph = Sl_core.Digraph

type t = {
  alphabet : int;
  nstates : int;
  start : int;
  delta : int list array array;
  acceptance : bool array list;
}

let make ~alphabet ~nstates ~start ~delta ~acceptance =
  (* Reuse the Büchi validator for the shared shape. *)
  let shape =
    Buchi.make ~alphabet ~nstates ~start ~delta
      ~accepting:(Array.make nstates false)
  in
  ignore shape;
  let acceptance =
    match acceptance with
    | [] -> [ Array.make nstates true ]
    | sets ->
        List.iter
          (fun set ->
            if Array.length set <> nstates then
              invalid_arg "Gnba.make: acceptance set shape")
          sets;
        sets
  in
  { alphabet; nstates; start; delta; acceptance }

let of_buchi (b : Buchi.t) =
  make ~alphabet:b.alphabet ~nstates:b.nstates ~start:b.start ~delta:b.delta
    ~acceptance:[ Array.copy b.accepting ]

let degeneralize g =
  let k = List.length g.acceptance in
  let sets = Array.of_list g.acceptance in
  let nstates = g.nstates * k in
  let encode q i = (q * k) + i in
  let bump q i = if sets.(i).(q) then (i + 1) mod k else i in
  let delta =
    Array.init nstates (fun code ->
        let q = code / k and i = code mod k in
        Array.map (List.map (fun q' -> encode q' (bump q i))) g.delta.(q))
  in
  let accepting =
    Array.init nstates (fun code ->
        let q = code / k and i = code mod k in
        i = 0 && sets.(0).(q))
  in
  Buchi.make ~alphabet:g.alphabet ~nstates ~start:(encode g.start 0) ~delta
    ~accepting

let graph g = Digraph.of_delta g.delta

(* Compile-time witness: this module has the shared automaton shape. *)
module _ : Sl_core.Automaton_sig.S with type t = t = struct
  type nonrec t = t

  let alphabet g = g.alphabet
  let nstates g = g.nstates
  let graph = graph
end

(* Both emptiness and lasso membership are the kernel's generalized
   good-SCC query: a reachable nontrivial SCC meeting every acceptance
   predicate. *)

let accepts_lasso g w =
  let pr = Buchi.lasso_product ~start:g.start ~delta:g.delta w in
  Digraph.has_good_scc pr.graph
    ~filter:(fun v -> pr.reach.(v))
    ~predicates:(List.map (fun set v -> set.(v / pr.positions)) g.acceptance)

let is_empty g =
  let dg = graph g in
  let reach = Digraph.reachable dg [ g.start ] in
  not
    (Digraph.has_good_scc dg
       ~filter:(fun q -> reach.(q))
       ~predicates:(List.map (fun set q -> set.(q)) g.acceptance))

let pp fmt g =
  Format.fprintf fmt "@[<v>gnba(%d states, %d sets, start %d)@," g.nstates
    (List.length g.acceptance) g.start;
  for q = 0 to g.nstates - 1 do
    let marks =
      String.concat ""
        (List.mapi
           (fun i set -> if set.(q) then string_of_int i else "")
           g.acceptance)
    in
    Format.fprintf fmt "  %d{%s}:" q marks;
    Array.iteri
      (fun s succs ->
        List.iter (fun q' -> Format.fprintf fmt " %d->%d" s q') succs)
      g.delta.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
