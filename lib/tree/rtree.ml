type t = {
  k : int;
  nstates : int;
  root : int;
  label : int array;
  children : int array array;
}

let make ~k ~nstates ~root ~label ~children =
  if k < 1 then invalid_arg "Rtree.make: branching degree must be >= 1";
  if nstates < 1 then invalid_arg "Rtree.make: need a state";
  if root < 0 || root >= nstates then invalid_arg "Rtree.make: bad root";
  if Array.length label <> nstates || Array.length children <> nstates then
    invalid_arg "Rtree.make: shape mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Rtree.make: arity mismatch";
      Array.iter
        (fun q ->
          if q < 0 || q >= nstates then
            invalid_arg "Rtree.make: child out of range")
        row)
    children;
  { k; nstates; root; label; children }

let constant ~k s =
  make ~k ~nstates:1 ~root:0 ~label:[| s |]
    ~children:[| Array.make k 0 |]

let node_state t node =
  let rec go state = function
    | [] -> Some state
    | i :: rest ->
        if i < 0 || i >= t.k then None
        else go t.children.(state).(i) rest
  in
  go t.root node

let unfold t ~depth =
  let assoc = ref [] in
  let rec go state node d =
    assoc := (List.rev node, t.label.(state)) :: !assoc;
    if d < depth then
      Array.iteri (fun i q -> go q (i :: node) (d + 1)) t.children.(state)
  in
  go t.root [] 0;
  Ftree.make !assoc

let to_kripke t ~prop_of_label =
  let props =
    Array.to_list t.label
    |> List.map prop_of_label
    |> List.sort_uniq String.compare
    |> Array.of_list
  in
  let labels =
    Array.init t.nstates (fun q ->
        Array.map
          (fun p -> String.equal p (prop_of_label t.label.(q)))
          props)
  in
  Sl_kripke.Kripke.make ~nstates:t.nstates ~initial:t.root
    ~successors:(Array.map Array.to_list t.children)
    ~ap:props ~labels

let enumerate ~alphabet ~k ~max_states =
  if max_states > 3 || k > 3 || alphabet > 3 then
    invalid_arg "Rtree.enumerate: bounds too large";
  let trees = ref [] in
  for nstates = 1 to max_states do
    (* Every state: a label (alphabet choices) and k children (nstates
       choices each). Enumerate by mixed-radix counting. *)
    let per_state = alphabet * int_of_float
        (float_of_int nstates ** float_of_int k) in
    let total = int_of_float
        (float_of_int per_state ** float_of_int nstates) in
    for code = 0 to total - 1 do
      let label = Array.make nstates 0 in
      let children = Array.make_matrix nstates k 0 in
      let c = ref code in
      for q = 0 to nstates - 1 do
        let mine = !c mod per_state in
        c := !c / per_state;
        label.(q) <- mine mod alphabet;
        let rest = ref (mine / alphabet) in
        for i = 0 to k - 1 do
          children.(q).(i) <- !rest mod nstates;
          rest := !rest / nstates
        done
      done;
      trees := make ~k ~nstates ~root:0 ~label ~children :: !trees
    done
  done;
  List.rev !trees

let equal_presentation = ( = )

let pp fmt t =
  Format.fprintf fmt "@[<v>rtree(k=%d, %d states, root %d)@," t.k t.nstates
    t.root;
  for q = 0 to t.nstates - 1 do
    Format.fprintf fmt "  %d[%d]:" q t.label.(q);
    Array.iter (fun q' -> Format.fprintf fmt " %d" q') t.children.(q);
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
