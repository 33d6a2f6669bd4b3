type t = {
  k : int;
  nstates : int;
  root : int;
  label : int array;
  children : int option array array;
}

let make ~k ~nstates ~root ~label ~children =
  if k < 1 then invalid_arg "Ptree.make: branching degree must be >= 1";
  if nstates < 1 then invalid_arg "Ptree.make: need a state";
  if root < 0 || root >= nstates then invalid_arg "Ptree.make: bad root";
  if Array.length label <> nstates || Array.length children <> nstates then
    invalid_arg "Ptree.make: shape mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Ptree.make: arity mismatch";
      Array.iter
        (function
          | Some q when q < 0 || q >= nstates ->
              invalid_arg "Ptree.make: child out of range"
          | _ -> ())
        row)
    children;
  { k; nstates; root; label; children }

let of_rtree (r : Rtree.t) =
  make ~k:r.k ~nstates:r.nstates ~root:r.root ~label:(Array.copy r.label)
    ~children:(Array.map (Array.map Option.some) r.children)

let successors t q =
  Array.to_list t.children.(q) |> List.filter_map Fun.id

let restricted_reachable t ~keep =
  let seen = Array.make t.nstates false in
  let rec visit q =
    if keep q && not seen.(q) then begin
      seen.(q) <- true;
      List.iter visit (successors t q)
    end
  in
  visit t.root;
  seen

let reachable t = restricted_reachable t ~keep:(fun _ -> true)

let has_hole t =
  (* A reachable leaf: a state with no present children. In the paper's
     arbitrary-branching reading, an absent slot next to a present one is
     not a deficiency (the node simply has fewer children); only a
     childless node marks the tree as non-total / extendable-there. *)
  let reach = reachable t in
  let found = ref false in
  Array.iteri
    (fun q r ->
      if r && not (Array.exists Option.is_some t.children.(q)) then
        found := true)
    reach;
  !found

let is_total t = not (has_hole t)

(* Some [reach]-state satisfying [pred] returns to itself in >= 1 step
   without leaving [within]-states. *)
let exists_cycle t ~reach ~pred ~within =
  let returns src =
    let seen = Array.make t.nstates false in
    let found = ref false in
    let rec visit q =
      if within q && not seen.(q) then begin
        seen.(q) <- true;
        if q = src then found := true else List.iter visit (successors t q)
      end
    in
    List.iter visit (successors t src);
    !found
  in
  let result = ref false in
  Array.iteri (fun q r -> if r && pred q && returns q then result := true)
    reach;
  !result

let has_cycle_within t ~keep =
  let inside = restricted_reachable t ~keep in
  exists_cycle t ~reach:inside ~pred:(fun _ -> true) ~within:(Array.get inside)

let has_reachable_cycle_through t ~pred =
  exists_cycle t ~reach:(reachable t) ~pred ~within:(fun _ -> true)

let has_reachable_cycle_inside t ~pred =
  exists_cycle t ~reach:(reachable t) ~pred ~within:pred

let to_kripke t ~prop_of_label =
  if not (is_total t) then
    invalid_arg "Ptree.to_kripke: presentation is not total";
  let props =
    Array.to_list t.label
    |> List.map prop_of_label
    |> List.sort_uniq String.compare
    |> Array.of_list
  in
  let labels =
    Array.init t.nstates (fun q ->
        Array.map (fun p -> String.equal p (prop_of_label t.label.(q))) props)
  in
  (* Unreachable states may be childless; give them a self-loop so the
     Kripke constructor's totality check passes (they are inert). *)
  let successors =
    Array.init t.nstates (fun q ->
        match successors t q with [] -> [ q ] | succs -> succs)
  in
  Sl_kripke.Kripke.make ~nstates:t.nstates ~initial:t.root ~successors
    ~ap:props ~labels

(* Positions of the explicit top region: all nodes of depth < depth, in
   BFS order; frontier (depth = depth) becomes holes (truncation) or
   regular continuations (cut_variants). *)
let explicit_positions (t : t) ~depth =
  let positions = ref [] in
  let rec go state node d =
    positions := (List.rev node, state, d) :: !positions;
    if d < depth - 1 then
      Array.iteri
        (fun i q ->
          match q with Some q -> go q (i :: node) (d + 1) | None -> ())
        t.children.(state)
  in
  if depth >= 1 then go t.root [] 0;
  List.rev !positions

let truncation (t : t) ~depth =
  if depth < 1 then
    make ~k:t.k ~nstates:1 ~root:0 ~label:[| t.label.(t.root) |]
      ~children:[| Array.make t.k None |]
  else begin
    let pos = explicit_positions t ~depth:(depth + 1) in
    let index = Hashtbl.create 64 in
    List.iteri (fun i (node, _, _) -> Hashtbl.replace index node i) pos;
    let n = List.length pos in
    let label = Array.make n 0 in
    let children = Array.init n (fun _ -> Array.make t.k None) in
    List.iteri
      (fun i (node, state, d) ->
        label.(i) <- t.label.(state);
        if d < depth then
          Array.iteri
            (fun j q ->
              match q with
              | Some _ ->
                  children.(i).(j) <- Hashtbl.find_opt index (node @ [ j ])
              | None -> ())
            t.children.(state))
      pos;
    make ~k:t.k ~nstates:n ~root:0 ~label ~children
  end

let cut_variants (t : t) ~depth =
  let pos = explicit_positions t ~depth in
  let n = List.length pos in
  if n = 0 then []
  else begin
    let index = Hashtbl.create 64 in
    List.iteri (fun i (node, _, _) -> Hashtbl.replace index node i) pos;
    (* Base presentation: explicit states 0..n-1, then the original states
       shifted by n. Children of explicit nodes at the last explicit level
       point into the original part. *)
    let total = n + t.nstates in
    let label = Array.make total 0 in
    let children = Array.init total (fun _ -> Array.make t.k None) in
    List.iteri
      (fun i (node, state, d) ->
        label.(i) <- t.label.(state);
        Array.iteri
          (fun j q ->
            match q with
            | Some q ->
                children.(i).(j) <-
                  (if d < depth - 1 then Hashtbl.find_opt index (node @ [ j ])
                   else Some (n + q))
            | None -> ())
          t.children.(state))
      pos;
    Array.iteri
      (fun q lbl ->
        label.(n + q) <- lbl;
        Array.iteri
          (fun j q' ->
            children.(n + q).(j) <- Option.map (fun q' -> n + q') q')
          t.children.(q);
        ignore lbl)
      t.label;
    Array.iteri (fun q lbl -> label.(n + q) <- lbl) t.label;
    (* One variant per explicit position: all its children are removed,
       making it a leaf. Cutting a single sibling is NOT a tree prefix in
       the sense of Definition 4 (concatenation can only re-extend at
       leaves), so whole-node cuts are the only shapes needed. *)
    List.map
      (fun (node, _, _) ->
        let i = Hashtbl.find index node in
        let children' = Array.map Array.copy children in
        children'.(i) <- Array.make t.k None;
        make ~k:t.k ~nstates:total ~root:0 ~label:(Array.copy label)
          ~children:children')
      pos
  end

let enumerate_total ~alphabet ~k ~max_states =
  if max_states > 3 || k > 3 || alphabet > 3 then
    invalid_arg "Ptree.enumerate_total: bounds too large";
  let trees = ref [] in
  for nstates = 1 to max_states do
    (* Child slot: absent or one of nstates targets. *)
    let slot_choices = nstates + 1 in
    let per_state =
      alphabet * int_of_float (float_of_int slot_choices ** float_of_int k)
    in
    let total =
      int_of_float (float_of_int per_state ** float_of_int nstates)
    in
    for code = 0 to total - 1 do
      let label = Array.make nstates 0 in
      let children = Array.init nstates (fun _ -> Array.make k None) in
      let c = ref code in
      let ok = ref true in
      for q = 0 to nstates - 1 do
        let mine = !c mod per_state in
        c := !c / per_state;
        label.(q) <- mine mod alphabet;
        let rest = ref (mine / alphabet) in
        for i = 0 to k - 1 do
          let choice = !rest mod slot_choices in
          rest := !rest / slot_choices;
          children.(q).(i) <- (if choice = 0 then None else Some (choice - 1))
        done;
        if not (Array.exists Option.is_some children.(q)) then ok := false
      done;
      if !ok then
        trees := make ~k ~nstates ~root:0 ~label ~children :: !trees
    done
  done;
  List.rev !trees

let unfold t ~depth =
  let assoc = ref [] in
  let rec go state node d =
    assoc := (List.rev node, t.label.(state)) :: !assoc;
    if d < depth then
      Array.iteri
        (fun i q -> match q with
          | Some q -> go q (i :: node) (d + 1)
          | None -> ())
        t.children.(state)
  in
  go t.root [] 0;
  Ftree.make !assoc

let pp fmt t =
  Format.fprintf fmt "@[<v>ptree(k=%d, %d states, root %d)@," t.k t.nstates
    t.root;
  for q = 0 to t.nstates - 1 do
    Format.fprintf fmt "  %d[%d]:" q t.label.(q);
    Array.iter
      (function
        | Some q' -> Format.fprintf fmt " %d" q'
        | None -> Format.fprintf fmt " _")
      t.children.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
