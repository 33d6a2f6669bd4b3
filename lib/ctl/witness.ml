module Kripke = Sl_kripke.Kripke

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

(* BFS path from [src] to a state satisfying [target]; intermediate
   states must satisfy [keep], the endpoint only [target]. Returns the
   state list src..target. *)
let bfs_path (k : Kripke.t) ~keep ~src ~target =
  if not (keep src || target src) then None
  else begin
    let parent = Array.make k.nstates (-2) in
    parent.(src) <- -1;
    let queue = Queue.create () in
    Queue.push src queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let q = Queue.pop queue in
      if target q then found := Some q
      else
        List.iter
          (fun q' ->
            if (keep q' || target q') && parent.(q') = -2 then begin
              parent.(q') <- q;
              Queue.push q' queue
            end)
          k.successors.(q)
    done;
    Option.map
      (fun dest ->
        let rec unwind q acc =
          if parent.(q) = -1 then q :: acc else unwind parent.(q) (q :: acc)
        in
        unwind dest [])
      !found
  end

(* A cycle through states satisfying [keep], starting and ending at [src]
   (one or more steps); returns the cycle without the repeated endpoint. *)
let cycle_from (k : Kripke.t) ~keep ~src =
  let step_back = List.filter keep k.successors.(src) in
  List.find_map
    (fun first ->
      Option.map
        (fun back ->
          src :: List.filteri (fun i _ -> i < List.length back - 1) back)
        (bfs_path k ~keep ~src:first ~target:(fun q -> q = src)))
    step_back

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
  let prepend prefix p =
    (* prefix ends where p starts. *)
    { p with spoke = prefix @ p.spoke }
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
      Option.map
        (fun path ->
          match List.rev path with
          | last :: _ ->
              prepend
                (List.filteri (fun i _ -> i < List.length path - 1) path)
                (any_continuation k ~src:last)
          | [] -> assert false)
        (bfs_path k ~keep:(fun _ -> true) ~src:q ~target:(fun s -> vg.(s)))
  | EU (g, h) ->
      let vg = sat g and vh = sat h in
      (* A g-path to an h-state: intermediates within g, endpoint h. *)
      Option.map
        (fun path ->
          match List.rev path with
          | last :: _ ->
              prepend
                (List.filteri (fun i _ -> i < List.length path - 1) path)
                (any_continuation k ~src:last)
          | [] -> assert false)
        (bfs_path k ~keep:(fun s -> vg.(s)) ~src:q
           ~target:(fun s -> vh.(s)))
  | EG g ->
      let vg = sat g in
      if not (Ctl.sat k (Ctl.EG g)).(q) then None
      else begin
        (* Within g-states: reach a state on a g-cycle. *)
        let on_g_cycle s =
          vg.(s) && cycle_from k ~keep:(fun x -> vg.(x)) ~src:s <> None
        in
        Option.bind
          (bfs_path k ~keep:(fun s -> vg.(s)) ~src:q ~target:on_g_cycle)
          (fun path ->
            match List.rev path with
            | last :: _ ->
                Option.map
                  (fun cyc ->
                    { spoke =
                        List.filteri (fun i _ -> i < List.length path - 1)
                          path;
                      cycle = cyc })
                  (cycle_from k ~keep:(fun x -> vg.(x)) ~src:last)
            | [] -> None)
      end
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
