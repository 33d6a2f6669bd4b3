module Buchi = Sl_buchi.Buchi
module Obs = Sl_obs.Obs

(* Tableau-translation telemetry (recorded only while Sl_obs is
   enabled): closure size, elementary-set count (GNBA states),
   degeneralization width, and the resulting NBA size per phase. *)
let m_translate_runs = Obs.Metrics.counter "ltl_translate_runs_total"
let h_closure_size = Obs.Metrics.histogram "ltl_closure_size"
let h_gnba_states = Obs.Metrics.histogram "ltl_gnba_states"
let h_nba_states = Obs.Metrics.histogram "ltl_nba_states"

(* The positive closure: all non-negation core subformulas. Membership of a
   negation ¬ψ in an elementary set is represented as absence of ψ. *)
let positive_closure core =
  List.filter
    (fun (f : Formula.core) -> match f with CNot _ -> false | _ -> true)
    (Formula.core_subformulas core)

let max_closure = 20
let closure_size formula =
  List.length (positive_closure (Formula.to_core formula))

(* A closure formula as a literal over the positive closure: the bit of
   its positive form and whether it is negated. *)
type lit = { bit : int; neg : bool }

let mem bits l = ((bits lsr l.bit) land 1 = 1) <> l.neg

(* One closure position with its operands resolved to literals. *)
type node =
  | True
  | Prop of string
  | Next of lit
  | And of lit * lit
  | Until of lit * lit

type tableau = {
  nodes : node array;  (* by closure position, i.e. bit index *)
  order : int array;  (* the positions, each after its operands *)
  root : lit;
  untils : (int * lit) array;
      (* (bit of the Until, its right operand), ascending bits *)
}

let build_tableau core pos =
  let index = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace index f i) pos;
  let rec lit (f : Formula.core) =
    match f with
    | CNot g ->
        let l = lit g in
        { l with neg = not l.neg }
    | _ -> { bit = Hashtbl.find index f; neg = false }
  in
  let nodes =
    Array.map
      (fun (f : Formula.core) ->
        match f with
        | CTrue -> True
        | CProp p -> Prop p
        | CNext g -> Next (lit g)
        | CAnd (a, b) -> And (lit a, lit b)
        | CUntil (a, b) -> Until (lit a, lit b)
        | CNot _ -> assert false)
      pos
  in
  (* Post-order over the formula tree: operands are placed first. *)
  let placed = Array.make (Array.length pos) false in
  let order = ref [] in
  let rec place (f : Formula.core) =
    match f with
    | CNot g -> place g
    | _ ->
        let i = Hashtbl.find index f in
        if not placed.(i) then begin
          (match f with
           | CTrue | CProp _ | CNot _ -> ()
           | CNext g -> place g
           | CAnd (a, b) | CUntil (a, b) -> place a; place b);
          placed.(i) <- true;
          order := i :: !order
        end
  in
  place core;
  let untils =
    Array.to_list nodes
    |> List.mapi (fun i node ->
           match node with Until (_, b) -> Some (i, b) | _ -> None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  { nodes; order = Array.of_list (List.rev !order); root = lit core; untils }

(* The elementary sets, built directly rather than by filtering all 2^n
   subsets: positions are decided in [order], so each one's operands are
   already known. [True] is forced, [∧] follows its operands, props and
   [X] are free, and an Until is forced by [b], free under [a ∧ ¬b] and
   false otherwise. Sorted ascending: a set's index is its state
   number, and the tests pin that numbering to the reference tableau's
   subset order. *)
let elementary_sets t =
  let n = Array.length t.order in
  let acc = ref [] in
  let rec go k bits =
    if k = n then acc := bits :: !acc
    else begin
      let i = t.order.(k) in
      let set = bits lor (1 lsl i) in
      match t.nodes.(i) with
      | True -> go (k + 1) set
      | Prop _ | Next _ ->
          go (k + 1) bits;
          go (k + 1) set
      | And (a, b) ->
          go (k + 1) (if mem bits a && mem bits b then set else bits)
      | Until (a, b) ->
          if mem bits b then go (k + 1) set
          else if mem bits a then begin
            go (k + 1) bits;
            go (k + 1) set
          end
          else go (k + 1) bits
    end
  in
  go 0 0;
  let sets = Array.of_list !acc in
  Array.sort Int.compare sets;
  sets

(* The step relation out of elementary set [bits] as one mask compare:
   [e'] may follow iff [e' land mask = value]. An [X g] fixes [g]'s bit
   in [e']; a pending Until with [a ∧ ¬b] fixes its own bit (it stays
   pending). Every other Until case holds by elementarity. Conflicting
   constraints leave no successor: [None]. *)
let successor_constraint t bits =
  let mask = ref 0 and value = ref 0 and ok = ref true in
  let force bit v =
    let m = 1 lsl bit in
    let v = if v then m else 0 in
    if !mask land m = 0 then begin
      mask := !mask lor m;
      value := !value lor v
    end
    else if !value land m <> v then ok := false
  in
  Array.iteri
    (fun i node ->
      let here = bits land (1 lsl i) <> 0 in
      match node with
      | Next g -> force g.bit (here <> g.neg)
      | Until (a, b) when mem bits a && not (mem bits b) -> force i here
      | True | Prop _ | And _ | Until _ -> ())
    t.nodes;
  if !ok then Some (!mask, !value) else None

let build formula =
  let core = Formula.to_core formula in
  let pos = Array.of_list (positive_closure core) in
  let n = Array.length pos in
  if n > max_closure then invalid_arg "Translate: formula closure too large";
  let t = build_tableau core pos in
  let elementary = elementary_sets t in
  (* Acceptance sets, one per Until: sets where the until is not pending.
     With no untils the single set accepts everywhere. *)
  let k = max 1 (Array.length t.untils) in
  let in_accept_set j bits =
    j >= Array.length t.untils
    ||
    let ui, b = t.untils.(j) in
    bits land (1 lsl ui) = 0 || mem bits b
  in
  (n, t, elementary, k, in_accept_set)

let translate ~alphabet ~valuation formula =
  let sp = Obs.Span.enter "ltl.translate" in
  let n, t, elementary, k, in_accept_set =
    match build formula with
    | built -> built
    | exception e ->
        Obs.Span.exit sp;
        raise e
  in
  let ne = Array.length elementary in
  (* [compatible e s] is one compare: the prop bits of [e] must equal the
     props that hold under symbol [s]. *)
  let prop_bits holds =
    let v = ref 0 in
    Array.iteri
      (fun i node ->
        match node with
        | Prop p when holds p -> v := !v lor (1 lsl i)
        | _ -> ())
      t.nodes;
    !v
  in
  let prop_mask = prop_bits (fun _ -> true) in
  let symbol_props = Array.init alphabet (fun s -> prop_bits (valuation s)) in
  let compatible e s = elementary.(e) land prop_mask = symbol_props.(s) in
  (* Successors of each elementary set, ascending. *)
  let succ =
    Array.map
      (fun bits ->
        match successor_constraint t bits with
        | None -> []
        | Some (mask, value) ->
            let l = ref [] in
            for e' = ne - 1 downto 0 do
              if elementary.(e') land mask = value then l := e' :: !l
            done;
            !l)
      elementary
  in
  (* Degeneralized state encoding: 0 is the fresh start; state
     1 + (e * k + counter) is (elementary set e, counter). Encoding is
     monotone in [e], so the target lists below come out ascending and
     duplicate-free, as [Buchi.t] rows are kept. *)
  let nstates = 1 + (ne * k) in
  let encode e counter = 1 + (e * k) + counter in
  let bump e counter =
    if in_accept_set counter elementary.(e) then (counter + 1) mod k
    else counter
  in
  let targets e counter =
    let c = bump e counter in
    List.map (fun e' -> encode e' c) succ.(e)
  in
  let delta = Array.make_matrix nstates alphabet [] in
  for e = 0 to ne - 1 do
    for counter = 0 to k - 1 do
      let row = delta.(encode e counter) and l = targets e counter in
      for s = 0 to alphabet - 1 do
        if compatible e s then row.(s) <- l
      done
    done
  done;
  (* Start transitions: guess the elementary set of time 0 among initial
     sets compatible with the first letter, then move as that set would. *)
  for s = 0 to alphabet - 1 do
    let l = ref [] in
    for e = ne - 1 downto 0 do
      if mem elementary.(e) t.root && compatible e s then
        l := targets e 0 :: !l
    done;
    delta.(0).(s) <- List.sort_uniq Int.compare (List.concat !l)
  done;
  let accepting =
    Array.init nstates (fun q ->
        if q = 0 then false
        else begin
          let e = (q - 1) / k and counter = (q - 1) mod k in
          counter = 0 && in_accept_set 0 elementary.(e)
        end)
  in
  let b = Buchi.make ~alphabet ~nstates ~start:0 ~delta ~accepting in
  Obs.Metrics.incr m_translate_runs;
  Obs.Metrics.observe h_closure_size n;
  Obs.Metrics.observe h_gnba_states ne;
  Obs.Metrics.observe h_nba_states nstates;
  Obs.Span.attr sp "closure_size" n;
  Obs.Span.attr sp "elementary_sets" ne;
  Obs.Span.attr sp "acceptance_sets" k;
  Obs.Span.attr sp "nba_states" nstates;
  Obs.Span.exit sp;
  b

let gnba_stats ~alphabet ~valuation formula =
  ignore alphabet;
  ignore valuation;
  let _, _, elementary, k, _ = build formula in
  let ne = Array.length elementary in
  (ne, k, 1 + (ne * k))
