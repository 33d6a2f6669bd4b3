module Kripke = Sl_kripke.Kripke
module Digraph = Sl_core.Digraph

type path = { spoke : int list; cycle : int list }

let check_path (k : Kripke.t) p =
  p.cycle <> []
  &&
  let states = p.spoke @ p.cycle @ [ List.hd p.cycle ] in
  let rec ok = function
    | a :: (b :: _ as rest) ->
        List.mem b k.successors.(a) && ok rest
    | _ -> true
  in
  ok states

let states_of_path p i =
  let ns = List.length p.spoke and nc = List.length p.cycle in
  if i < ns then List.nth p.spoke i else List.nth p.cycle ((i - ns) mod nc)

(* A kernel path from [src] as the states before its endpoint, and the
   endpoint. *)
let split src edges =
  let rev_before, last =
    List.fold_left (fun (acc, v) (_, w) -> (v :: acc, w)) ([], src) edges
  in
  (List.rev rev_before, last)

(* Any lasso continuation from a state (keep = everything). *)
let any_continuation k ~src =
  (* Walk forward until a state repeats. *)
  let seen = Array.make k.Kripke.nstates (-1) in
  let rec go q acc i =
    if seen.(q) >= 0 then begin
      let fwd = List.rev acc in
      let cut = seen.(q) in
      let spoke = List.filteri (fun j _ -> j < cut) fwd in
      let cycle = List.filteri (fun j _ -> j >= cut) fwd in
      { spoke; cycle }
    end
    else begin
      seen.(q) <- i;
      go (List.hd k.Kripke.successors.(q)) (q :: acc) (i + 1)
    end
  in
  go src [] 0

let witness (k : Kripke.t) formula q =
  let sat f = Ctl.sat k f in
  let graph = Kripke.graph k in
  let prepend prefix p =
    (* prefix ends where p starts. *)
    { p with spoke = prefix @ p.spoke }
  in
  (* A path through [filter]-states to a [target]-state, continued by
     any lasso from there. *)
  let reach ?filter target =
    Option.map
      (fun edges ->
        let spoke, last = split q edges in
        prepend spoke (any_continuation k ~src:last))
      (Digraph.shortest_path ?filter graph ~src:q ~target)
  in
  match (formula : Ctl.t) with
  | EX g ->
      let vg = sat g in
      List.find_map
        (fun q' ->
          if vg.(q') then Some (prepend [ q ] (any_continuation k ~src:q'))
          else None)
        k.successors.(q)
  | EF g ->
      let vg = sat g in
      reach (fun s -> vg.(s))
  | EU (g, h) ->
      let vg = sat g and vh = sat h in
      (* A g-path to an h-state: intermediates within g, endpoint h. *)
      if vg.(q) || vh.(q) then
        reach ~filter:(fun s -> vg.(s)) (fun s -> vh.(s))
      else None
  | EG g ->
      (* Within g-states: reach a state of a nontrivial g-SCC, then the
         shortest g-cycle through it. *)
      let vg = sat g in
      let inside s = vg.(s) in
      let r = Digraph.sccs ~filter:inside graph in
      let on_g_cycle s = inside s && r.nontrivial.(r.comp.(s)) in
      if not (inside q) then None
      else
        Option.bind
          (Digraph.shortest_path ~filter:inside graph ~src:q
             ~target:on_g_cycle)
          (fun edges ->
            let spoke, last = split q edges in
            Option.map
              (fun cycle -> { spoke; cycle = fst (split last cycle) })
              (Digraph.shortest_path ~nonempty:true ~filter:inside graph
                 ~src:last ~target:(( = ) last)))
  | _ -> None

let counterexample (k : Kripke.t) formula q =
  match (formula : Ctl.t) with
  | AX g -> witness k (Ctl.EX (Ctl.Not g)) q
  | AF g -> witness k (Ctl.EG (Ctl.Not g)) q
  | AG g -> witness k (Ctl.EF (Ctl.Not g)) q
  | AU (g, h) ->
      (* ¬A(g U h) = E(¬h U (¬g ∧ ¬h)) ∨ EG ¬h. *)
      let nh = Ctl.Not h in
      (match witness k (Ctl.EU (nh, Ctl.And (Ctl.Not g, nh))) q with
      | Some p -> Some p
      | None -> witness k (Ctl.EG nh) q)
  | _ -> None
