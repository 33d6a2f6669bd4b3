module Lasso = Sl_word.Lasso

type valuation = int -> string -> bool

let subset_valuation props =
  let index p =
    let rec find i = function
      | [] -> None
      | q :: rest -> if String.equal p q then Some i else find (i + 1) rest
    in
    find 0 props
  in
  fun symbol p ->
    match index p with
    | Some i -> symbol land (1 lsl i) <> 0
    | None -> false

(* Truth tables per core subformula over the lasso's positions. Until is a
   least fixpoint (start false, grow), its negation-free dual handled via
   CNot. Iteration count is bounded by the number of positions. *)
let core_tables valuation core w =
  let total = Lasso.total_length w in
  let spoke = Lasso.spoke w in
  let next p = if p + 1 < total then p + 1 else spoke in
  let cache : (Formula.core, bool array) Hashtbl.t = Hashtbl.create 16 in
  let rec table (f : Formula.core) =
    match Hashtbl.find_opt cache f with
    | Some t -> t
    | None ->
        let t =
          match f with
          | CTrue -> Array.make total true
          | CProp p ->
              Array.init total (fun i -> valuation (Lasso.at w i) p)
          | CNot g -> Array.map not (table g)
          | CAnd (a, b) ->
              let ta = table a and tb = table b in
              Array.init total (fun i -> ta.(i) && tb.(i))
          | CNext g ->
              let tg = table g in
              Array.init total (fun i -> tg.(next i))
          | CUntil (a, b) ->
              let ta = table a and tb = table b in
              let v = Array.make total false in
              let changed = ref true in
              while !changed do
                changed := false;
                for i = total - 1 downto 0 do
                  let v' = tb.(i) || (ta.(i) && v.(next i)) in
                  if v' && not v.(i) then begin
                    v.(i) <- true;
                    changed := true
                  end
                done
              done;
              v
        in
        Hashtbl.add cache f t;
        t
  in
  table core

let eval_at valuation f w pos =
  let total = Lasso.total_length w in
  let spoke = Lasso.spoke w in
  let pos = if pos < total then pos
    else spoke + ((pos - spoke) mod Lasso.period w) in
  (core_tables valuation (Formula.to_core f) w).(pos)

let eval valuation f w = eval_at valuation f w 0
