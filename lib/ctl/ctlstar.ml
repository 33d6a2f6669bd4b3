module Kripke = Sl_kripke.Kripke

(* States from which a target set is reachable (in >= 0 steps). *)
let can_reach (k : Kripke.t) target =
  Ctl.eu k (Array.make k.nstates true) target

(* Is [q] on a cycle all of whose states satisfy [inside]? *)
let on_cycle_inside (k : Kripke.t) inside q =
  if not (inside q) then false
  else begin
    let seen = Array.make k.nstates false in
    let found = ref false in
    let rec visit s =
      if inside s && not seen.(s) then begin
        seen.(s) <- true;
        if s = q then found := true;
        List.iter visit k.successors.(s)
      end
      else if inside s && s = q then found := true
    in
    List.iter visit k.successors.(q);
    !found
  end

let e_gf (k : Kripke.t) ~pred =
  (* Reach a pred-state lying on any cycle. *)
  let target =
    Array.init k.nstates (fun q ->
        pred q && on_cycle_inside k (fun _ -> true) q)
  in
  can_reach k target

let e_fg (k : Kripke.t) ~pred =
  (* Reach a pred-state lying on an all-pred cycle. *)
  let target =
    Array.init k.nstates (fun q -> pred q && on_cycle_inside k pred q)
  in
  can_reach k target

let a_gf k ~pred = Array.map not (e_fg k ~pred:(fun q -> not (pred q)))
let a_fg k ~pred = Array.map not (e_gf k ~pred:(fun q -> not (pred q)))

let prop_pred k p q = Kripke.holds k q p
