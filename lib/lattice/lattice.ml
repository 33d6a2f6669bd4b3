module Poset = Sl_order.Poset
type elt = Poset.elt

type t = {
  poset : Poset.t;
  meet : elt array array;
  join : elt array array;
  bot : elt;
  top : elt;
}

exception Not_a_lattice of string

let fail fmt = Format.kasprintf (fun s -> raise (Not_a_lattice s)) fmt

let of_poset poset =
  let n = Poset.size poset in
  if n = 0 then fail "empty poset";
  let meet = Array.make_matrix n n 0 and join = Array.make_matrix n n 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      (match Poset.meet_opt poset x y with
      | Some m -> meet.(x).(y) <- m
      | None -> fail "no meet for (%d, %d)" x y);
      match Poset.join_opt poset x y with
      | Some j -> join.(x).(y) <- j
      | None -> fail "no join for (%d, %d)" x y
    done
  done;
  let bot =
    match Poset.bottom poset with
    | Some b -> b
    | None -> fail "no bottom element"
  in
  let top =
    match Poset.top poset with
    | Some t -> t
    | None -> fail "no top element"
  in
  { poset; meet; join; bot; top }

let of_covers ~size ~covers = of_poset (Poset.of_covers ~size ~covers)

let poset l = l.poset
let size l = Poset.size l.poset
let elements l = Poset.elements l.poset
let leq l = Poset.leq l.poset
let lt l = Poset.lt l.poset
let meet l x y = l.meet.(x).(y)
let join l x y = l.join.(x).(y)
let bot l = l.bot
let top l = l.top
let meet_set l xs = List.fold_left (meet l) l.top xs

let product a b = of_poset (Poset.product a.poset b.poset)
let dual a = of_poset (Poset.dual a.poset)

let interval_elements l a b =
  List.filter (fun x -> leq l a x && leq l x b) (elements l)

let interval l a b =
  if not (leq l a b) then None
  else begin
    let elems = Array.of_list (interval_elements l a b) in
    let p =
      Poset.make ~size:(Array.length elems) ~leq:(fun i j ->
          leq l elems.(i) elems.(j))
    in
    Some (of_poset p)
  end

let for_all_elts l pred = List.for_all pred (elements l)

let find_triple l pred =
  let found = ref None in
  let elems = elements l in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if !found = None && pred a b c then found := Some (a, b, c))
            elems)
        elems)
    elems;
  !found

let check_lattice_laws l =
  let elems = elements l in
  let bad = ref None in
  let record law ws = if !bad = None then bad := Some (law, ws) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if meet l a b <> meet l b a then record "meet-commutative" [ a; b ];
          if join l a b <> join l b a then record "join-commutative" [ a; b ];
          if meet l a (join l a b) <> a then record "absorption" [ a; b ];
          if join l a (meet l a b) <> a then record "absorption-dual" [ a; b ];
          List.iter
            (fun c ->
              if meet l (meet l a b) c <> meet l a (meet l b c) then
                record "meet-associative" [ a; b; c ];
              if join l (join l a b) c <> join l a (join l b c) then
                record "join-associative" [ a; b; c ])
            elems)
        elems;
      if meet l a a <> a then record "meet-idempotent" [ a ];
      if join l a a <> a then record "join-idempotent" [ a ])
    elems;
  !bad

let modularity_violation l =
  find_triple l (fun a b c ->
      leq l a c && join l a (meet l b c) <> meet l (join l a b) (join l a c))

let is_modular l = modularity_violation l = None

let distributivity_violation l =
  find_triple l (fun a b c ->
      meet l a (join l b c) <> join l (meet l a b) (meet l a c))

let is_distributive l = distributivity_violation l = None

let complements l a =
  List.filter (fun b -> meet l a b = l.bot && join l a b = l.top) (elements l)

let uncomplemented l = List.filter (fun a -> complements l a = []) (elements l)
let is_complemented l = uncomplemented l = []
let is_boolean l = is_distributive l && is_complemented l

let has_unique_complements l =
  for_all_elts l (fun a -> List.length (complements l a) = 1)

let atoms l = Poset.covers_of l.poset l.bot

let join_irreducibles l =
  List.filter
    (fun x ->
      x <> l.bot
      && not
           (List.exists
              (fun a ->
                List.exists
                  (fun b -> lt l a x && lt l b x && join l a b = x)
                  (elements l))
              (elements l)))
    (elements l)

let sublattice_closure l seed =
  let current = ref (List.sort_uniq compare seed) in
  let changed = ref true in
  while !changed do
    changed := false;
    let add x =
      if not (List.mem x !current) then begin
        current := x :: !current;
        changed := true
      end
    in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            add (meet l a b);
            add (join l a b))
          !current)
      !current
  done;
  List.sort compare !current

(* A pentagon is five elements z < a < b < o, z < c < o with c incomparable
   to a and b, and the meets/joins landing on z and o within the quintuple. *)
let contains_pentagon l =
  let elems = elements l in
  let result = ref None in
  let try_quintuple z a b c o =
    if
      lt l z a && lt l a b && lt l b o && lt l z c && lt l c o
      && (not (Poset.comparable l.poset a c))
      && (not (Poset.comparable l.poset b c))
      && meet l a c = z && meet l b c = z
      && join l a c = o && join l b c = o
    then result := Some (z, a, b, c, o)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if lt l a b then
            List.iter
              (fun c ->
                if !result = None then begin
                  let z = meet l b c and o = join l a c in
                  try_quintuple z a b c o
                end)
              elems)
        elems)
    elems;
  !result

let contains_diamond l =
  let elems = elements l in
  let result = ref None in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if x < y && not (Poset.comparable l.poset x y) then
            List.iter
              (fun z ->
                if !result = None && y < z
                   && (not (Poset.comparable l.poset x z))
                   && not (Poset.comparable l.poset y z)
                then begin
                  let m = meet l x y and j = join l x y in
                  if
                    meet l x z = m && meet l y z = m && join l x z = j
                    && join l y z = j
                  then result := Some (m, x, y, z, j)
                end)
              elems)
        elems)
    elems;
  !result

let isomorphic a b = Poset.isomorphic a.poset b.poset

let pp fmt l =
  Format.fprintf fmt "@[<hov 2>lattice(%d, bot=%d, top=%d)@ %a@]" (size l)
    l.bot l.top Poset.pp l.poset

let to_dot ?label l = Poset.to_dot ?label l.poset
