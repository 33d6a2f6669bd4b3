type elt = int

type t = {
  size : int;
  rel : bool array array; (* rel.(x).(y) <=> x <= y *)
}

exception Invalid_order of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_order s)) fmt

let validate size rel =
  if size < 0 then invalid "negative size %d" size;
  for x = 0 to size - 1 do
    if not rel.(x).(x) then invalid "not reflexive at %d" x;
    for y = 0 to size - 1 do
      if x <> y && rel.(x).(y) && rel.(y).(x) then
        invalid "not antisymmetric at (%d, %d)" x y;
      if rel.(x).(y) then
        for z = 0 to size - 1 do
          if rel.(y).(z) && not rel.(x).(z) then
            invalid "not transitive at (%d, %d, %d)" x y z
        done
    done
  done

let make ~size ~leq =
  let rel = Array.init size (fun x -> Array.init size (fun y -> leq x y)) in
  validate size rel;
  { size; rel }

let transitive_reflexive_closure size pairs =
  let rel = Array.make_matrix size size false in
  for x = 0 to size - 1 do
    rel.(x).(x) <- true
  done;
  List.iter
    (fun (x, y) ->
      if x < 0 || x >= size || y < 0 || y >= size then
        invalid "cover (%d, %d) out of range" x y;
      rel.(x).(y) <- true)
    pairs;
  (* Floyd–Warshall style closure. *)
  for k = 0 to size - 1 do
    for x = 0 to size - 1 do
      if rel.(x).(k) then
        for y = 0 to size - 1 do
          if rel.(k).(y) then rel.(x).(y) <- true
        done
    done
  done;
  rel

let of_covers ~size ~covers =
  let rel = transitive_reflexive_closure size covers in
  validate size rel;
  { size; rel }

let chain n = make ~size:n ~leq:(fun x y -> x <= y)
let antichain n = make ~size:n ~leq:(fun x y -> x = y)

let powerset n =
  if n < 0 || n > 20 then invalid "powerset size %d out of range" n;
  make ~size:(1 lsl n) ~leq:(fun x y -> x land y = x)

let divisors n =
  if n <= 0 then invalid "divisors of non-positive %d" n;
  let ds = ref [] in
  for d = n downto 1 do
    if n mod d = 0 then ds := d :: !ds
  done;
  let ds = Array.of_list !ds in
  let p =
    make ~size:(Array.length ds) ~leq:(fun x y -> ds.(y) mod ds.(x) = 0)
  in
  (p, ds)

let size p = p.size
let elements p = List.init p.size Fun.id
let leq p x y = p.rel.(x).(y)
let lt p x y = x <> y && p.rel.(x).(y)
let comparable p x y = p.rel.(x).(y) || p.rel.(y).(x)
let equal p q = p.size = q.size && p.rel = q.rel

let product p q =
  let n = p.size * q.size in
  let split i = (i / q.size, i mod q.size) in
  make ~size:n ~leq:(fun i j ->
      let xi, yi = split i and xj, yj = split j in
      leq p xi xj && leq q yi yj)

let dual p = make ~size:p.size ~leq:(fun x y -> p.rel.(y).(x))

let covers p =
  let acc = ref [] in
  for y = p.size - 1 downto 0 do
    for x = p.size - 1 downto 0 do
      if lt p x y then begin
        let between = ref false in
        for z = 0 to p.size - 1 do
          if lt p x z && lt p z y then between := true
        done;
        if not !between then acc := (x, y) :: !acc
      end
    done
  done;
  !acc

let covers_of p x =
  List.filter_map (fun (a, b) -> if a = x then Some b else None) (covers p)

let minimal p =
  List.filter
    (fun x -> not (List.exists (fun y -> lt p y x) (elements p)))
    (elements p)

let bottom p =
  List.find_opt (fun b -> List.for_all (fun x -> leq p b x) (elements p))
    (elements p)

let top p =
  List.find_opt (fun t -> List.for_all (fun x -> leq p x t) (elements p))
    (elements p)

let upper_bounds p x y =
  List.filter (fun u -> leq p x u && leq p y u) (elements p)

let lower_bounds p x y =
  List.filter (fun l -> leq p l x && leq p l y) (elements p)

let least p candidates =
  List.find_opt (fun m -> List.for_all (fun u -> leq p m u) candidates)
    candidates

let greatest p candidates =
  List.find_opt (fun m -> List.for_all (fun u -> leq p u m) candidates)
    candidates

let join_opt p x y = least p (upper_bounds p x y)
let meet_opt p x y = greatest p (lower_bounds p x y)

let up_set p x = List.filter (fun y -> leq p x y) (elements p)
let down_set p x = List.filter (fun y -> leq p y x) (elements p)

let is_down_set p xs =
  List.for_all
    (fun x -> List.for_all (fun y -> not (leq p y x) || List.mem y xs)
        (elements p))
    xs

let down_closure p xs =
  List.filter (fun y -> List.exists (fun x -> leq p y x) xs) (elements p)

let rec pairwise pred = function
  | [] -> true
  | x :: rest -> List.for_all (pred x) rest && pairwise pred rest

let is_chain p xs = pairwise (comparable p) xs
let is_antichain p xs = pairwise (fun x y -> not (comparable p x y)) xs

let height p =
  (* Longest chain by dynamic programming over a linear extension. *)
  if p.size = 0 then 0
  else begin
    let best = Array.make p.size 1 in
    let order =
      List.sort
        (fun x y ->
          if lt p x y then -1 else if lt p y x then 1 else compare x y)
        (elements p)
    in
    List.iter
      (fun y ->
        List.iter
          (fun x -> if lt p x y && best.(x) + 1 > best.(y) then
              best.(y) <- best.(x) + 1)
          order)
      order;
    Array.fold_left max 0 best
  end

(* Dilworth: width = size - (maximum matching in the bipartite graph with an
   edge (x, y) whenever x < y). Classic Kőnig/Fulkerson argument. *)
let width p =
  let n = p.size in
  if n = 0 then 0
  else begin
    let match_right = Array.make n (-1) in
    let match_left = Array.make n (-1) in
    let rec try_augment seen x =
      let found = ref false in
      let y = ref 0 in
      while (not !found) && !y < n do
        if lt p x !y && not seen.(!y) then begin
          seen.(!y) <- true;
          if match_right.(!y) = -1 || try_augment seen match_right.(!y) then begin
            match_right.(!y) <- x;
            match_left.(x) <- !y;
            found := true
          end
        end;
        incr y
      done;
      !found
    in
    let matching = ref 0 in
    for x = 0 to n - 1 do
      if try_augment (Array.make n false) x then incr matching
    done;
    n - !matching
  end

let minimum_chain_cover p =
  let n = p.size in
  if n = 0 then []
  else begin
    (* Same matching as [width]; keep the pointers this time. *)
    let match_right = Array.make n (-1) in
    let match_left = Array.make n (-1) in
    let rec try_augment seen x =
      let found = ref false in
      let y = ref 0 in
      while (not !found) && !y < n do
        if lt p x !y && not seen.(!y) then begin
          seen.(!y) <- true;
          if match_right.(!y) = -1 || try_augment seen match_right.(!y)
          then begin
            match_right.(!y) <- x;
            match_left.(x) <- !y;
            found := true
          end
        end;
        incr y
      done;
      !found
    in
    for x = 0 to n - 1 do
      ignore (try_augment (Array.make n false) x)
    done;
    (* Chains start at elements that are nobody's matched successor. *)
    let chains = ref [] in
    for x = 0 to n - 1 do
      if match_right.(x) = -1 then begin
        let rec follow acc y =
          let acc = y :: acc in
          if match_left.(y) = -1 then List.rev acc
          else follow acc match_left.(y)
        in
        chains := follow [] x :: !chains
      end
    done;
    List.rev !chains
  end

let all_down_sets p =
  (* Enumerate antichains' down-closures; equivalently filter all subsets of
     the carrier for down-closedness, but do it incrementally over a linear
     extension to avoid 2^n subset checks where cheap pruning helps. *)
  let ext = ref [ [] ] in
  let order =
    List.sort
      (fun x y ->
        if lt p x y then -1 else if lt p y x then 1 else compare x y)
      (elements p)
  in
  List.iter
    (fun x ->
      let lower = down_set p x in
      let extended =
        List.filter_map
          (fun ds ->
            (* x may be added only if all its strict predecessors are in. *)
            if List.for_all (fun y -> y = x || List.mem y ds) lower then
              Some (List.sort compare (x :: ds))
            else None)
          !ext
      in
      ext := !ext @ extended)
    order;
  List.sort_uniq compare !ext

let linear_extension p =
  List.sort
    (fun x y -> if lt p x y then -1 else if lt p y x then 1 else compare x y)
    (elements p)

let is_monotone p q f =
  List.for_all
    (fun x ->
      List.for_all (fun y -> not (leq p x y) || leq q (f x) (f y))
        (elements p))
    (elements p)

let is_order_embedding p q f =
  List.for_all
    (fun x ->
      List.for_all (fun y -> leq p x y = leq q (f x) (f y)) (elements p))
    (elements p)

let isomorphic p q =
  if p.size <> q.size then None
  else begin
    let n = p.size in
    let image = Array.make n (-1) in
    let used = Array.make n false in
    let consistent x y =
      (* Mapping x -> y must agree with all already placed elements. *)
      let ok = ref true in
      for z = 0 to x - 1 do
        let yz = image.(z) in
        if leq p z x <> leq q yz y then ok := false;
        if leq p x z <> leq q y yz then ok := false
      done;
      !ok
    in
    let rec search x =
      if x = n then true
      else begin
        let found = ref false in
        let y = ref 0 in
        while (not !found) && !y < n do
          if (not used.(!y)) && consistent x !y then begin
            image.(x) <- !y;
            used.(!y) <- true;
            if search (x + 1) then found := true
            else begin
              used.(!y) <- false;
              image.(x) <- -1
            end
          end;
          incr y
        done;
        !found
      end
    in
    if search 0 then Some (fun x -> image.(x)) else None
  end

let pp fmt p =
  Format.fprintf fmt "@[<hov 2>poset(%d){" p.size;
  List.iter (fun (x, y) -> Format.fprintf fmt "@ %d<%d" x y) (covers p);
  Format.fprintf fmt "@ }@]"

let to_dot ?(label = string_of_int) p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph poset {\n  rankdir=BT;\n";
  List.iter
    (fun x -> Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" x (label x)))
    (elements p);
  List.iter
    (fun (x, y) ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" x y))
    (covers p);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
