(* The predicate tableau that [Sl_ltl.Translate] ran before it moved to
   bit masks, kept verbatim apart from its telemetry (metrics and the
   [ltl.translate] span belong to the library's translation only). It
   tests [is_elementary] on all 2^n subsets of the closure and [linked]
   on all pairs of elementary sets, looking formulas up in a [Hashtbl];
   the property tests require the library's translation to produce the
   same automaton byte for byte. *)

module Buchi = Sl_buchi.Buchi
module Formula = Sl_ltl.Formula

(* The positive closure: all non-negation core subformulas. Membership of a
   negation ¬ψ in an elementary set is represented as absence of ψ. *)
let positive_closure core =
  List.filter
    (fun (f : Formula.core) -> match f with CNot _ -> false | _ -> true)
    (Formula.core_subformulas core)

type tableau = {
  pos : Formula.core array;
  index : (Formula.core, int) Hashtbl.t;
  untils : (int * Formula.core * Formula.core) list;
      (* (index of the Until in pos, left operand, right operand) *)
}

let build_tableau core =
  let pos = Array.of_list (positive_closure core) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace index f i) pos;
  let untils =
    Array.to_list pos
    |> List.filter_map (fun f ->
           match (f : Formula.core) with
           | CUntil (a, b) -> Some (Hashtbl.find index f, a, b)
           | _ -> None)
  in
  { pos; index; untils }

(* Membership of an arbitrary closure formula in the set encoded by bits. *)
let rec mem t bits (f : Formula.core) =
  match f with
  | CNot g -> not (mem t bits g)
  | _ -> bits land (1 lsl Hashtbl.find t.index f) <> 0

let is_elementary t bits =
  Array.for_all Fun.id
    (Array.mapi
       (fun i (f : Formula.core) ->
         let here = bits land (1 lsl i) <> 0 in
         match f with
         | CTrue -> here
         | CProp _ | CNext _ -> true
         | CNot _ -> assert false
         | CAnd (a, b) -> here = (mem t bits a && mem t bits b)
         | CUntil (a, b) ->
             (* Local expansion constraints: b forces the until; a pending
                until without b needs a. *)
             ((not (mem t bits b)) || here)
             && ((not here) || mem t bits b || mem t bits a))
       t.pos)

let compatible t ~valuation bits symbol =
  Array.for_all Fun.id
    (Array.mapi
       (fun i (f : Formula.core) ->
         match f with
         | CProp p -> (bits land (1 lsl i) <> 0) = valuation symbol p
         | _ -> true)
       t.pos)

(* The step relation between consecutive elementary sets: X-obligations and
   the temporal half of the Until expansion. *)
let linked t bits bits' =
  Array.for_all Fun.id
    (Array.mapi
       (fun i (f : Formula.core) ->
         let here = bits land (1 lsl i) <> 0 in
         let there = bits' land (1 lsl i) <> 0 in
         match f with
         | CNext g -> here = mem t bits' g
         | CUntil (a, b) -> here = (mem t bits b || (mem t bits a && there))
         | CTrue | CProp _ | CAnd _ -> true
         | CNot _ -> assert false)
       t.pos)

let build formula =
  let core = Formula.to_core formula in
  let t = build_tableau core in
  let n = Array.length t.pos in
  if n > 20 then invalid_arg "Translate: formula closure too large";
  let elementary =
    List.filter (is_elementary t) (List.init (1 lsl n) Fun.id)
  in
  let elementary = Array.of_list elementary in
  let ne = Array.length elementary in
  let eindex = Hashtbl.create 64 in
  Array.iteri (fun i bits -> Hashtbl.replace eindex bits i) elementary;
  (* Acceptance sets, one per Until: sets where the until is not pending. *)
  let untils = t.untils in
  let k = max 1 (List.length untils) in
  let in_accept_set j bits =
    match List.nth_opt untils j with
    | None -> true (* no untils: the single set accepts everywhere *)
    | Some (ui, _, b) ->
        bits land (1 lsl ui) = 0 || mem t bits b
  in
  let initial_sets =
    List.filter (fun bits -> mem t bits core) (Array.to_list elementary)
  in
  (t, elementary, ne, eindex, k, in_accept_set, initial_sets)

let translate ~alphabet ~valuation formula =
  let t, elementary, ne, eindex, k, in_accept_set, initial_sets =
    build formula
  in
  (* Degeneralized state encoding: 0 is the fresh start; state
     1 + (e * k + counter) is (elementary set e, counter). *)
  let nstates = 1 + (ne * k) in
  let encode e counter = 1 + (e * k) + counter in
  let delta = Array.make_matrix nstates alphabet [] in
  let bump e counter =
    if in_accept_set counter elementary.(e) then (counter + 1) mod k
    else counter
  in
  for e = 0 to ne - 1 do
    let bits = elementary.(e) in
    for s = 0 to alphabet - 1 do
      if compatible t ~valuation bits s then
        for e' = 0 to ne - 1 do
          if linked t bits elementary.(e') then
            for counter = 0 to k - 1 do
              delta.(encode e counter).(s) <-
                encode e' (bump e counter) :: delta.(encode e counter).(s)
            done
        done
    done
  done;
  (* Start transitions: guess the elementary set of time 0 among initial
     sets compatible with the first letter, then move as that set would. *)
  List.iter
    (fun bits ->
      let e = Hashtbl.find eindex bits in
      for s = 0 to alphabet - 1 do
        if compatible t ~valuation bits s then
          for e' = 0 to ne - 1 do
            if linked t bits elementary.(e') then
              delta.(0).(s) <- encode e' (bump e 0) :: delta.(0).(s)
          done
      done)
    initial_sets;
  Array.iter
    (fun row ->
      Array.iteri (fun s l -> row.(s) <- List.sort_uniq compare l) row)
    delta;
  let accepting =
    Array.init nstates (fun q ->
        if q = 0 then false
        else begin
          let e = (q - 1) / k and counter = (q - 1) mod k in
          counter = 0 && in_accept_set 0 elementary.(e)
        end)
  in
  Buchi.make ~alphabet ~nstates ~start:0 ~delta ~accepting

let gnba_stats ~alphabet ~valuation formula =
  ignore alphabet;
  ignore valuation;
  let _, _, ne, _, k, _, _ = build formula in
  (ne, k, 1 + (ne * k))
