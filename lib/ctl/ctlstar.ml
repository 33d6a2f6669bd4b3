module Kripke = Sl_kripke.Kripke

(* States from which a target set is reachable (in >= 0 steps). *)
let can_reach (k : Kripke.t) target =
  Ctl.eu k (Array.make k.nstates true) target

(* E GF pred = νZ. EX EF (pred ∧ Z): some successor reaches a pred-state
   that again satisfies Z. Iterated down from all states until stable. *)
let e_gf (k : Kripke.t) ~pred =
  let rec fix z =
    let ef = can_reach k (Array.mapi (fun q zq -> zq && pred q) z) in
    let z' = Array.map (List.exists (fun q' -> ef.(q'))) k.successors in
    if z' = z then z else fix z'
  in
  fix (Array.make k.nstates true)

(* E FG pred = EF EG pred. *)
let e_fg (k : Kripke.t) ~pred =
  can_reach k (Ctl.eg k (Array.init k.nstates pred))

let a_gf k ~pred = Array.map not (e_fg k ~pred:(fun q -> not (pred q)))
let a_fg k ~pred = Array.map not (e_gf k ~pred:(fun q -> not (pred q)))

let prop_pred k p q = Kripke.holds k q p
