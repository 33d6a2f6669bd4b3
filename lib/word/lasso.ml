type t = { prefix : int array; cycle : int array }

(* Smallest period of the array: the least d dividing n with v.(i) =
   v.(i mod d) for all i. *)
let primitive_root v =
  let n = Array.length v in
  let divides d = n mod d = 0 in
  let is_period d =
    let ok = ref true in
    for i = 0 to n - 1 do
      if v.(i) <> v.(i mod d) then ok := false
    done;
    !ok
  in
  let rec find d = if divides d && is_period d then d else find (d + 1) in
  Array.sub v 0 (find 1)

let rotate_right v =
  let n = Array.length v in
  Array.init n (fun i -> v.((i + n - 1) mod n))

(* Canonical form: primitive cycle, then peel matching last letters from the
   prefix into cycle rotations: u'x (v'x)^ω = u' (xv')^ω. *)
let canonize prefix cycle =
  let cycle = ref (primitive_root cycle) in
  let prefix = ref prefix in
  let continue_ = ref true in
  while !continue_ do
    let np = Array.length !prefix and c = !cycle in
    let nc = Array.length c in
    if np > 0 && !prefix.(np - 1) = c.(nc - 1) then begin
      prefix := Array.sub !prefix 0 (np - 1);
      cycle := rotate_right c
    end
    else continue_ := false
  done;
  { prefix = !prefix; cycle = !cycle }

let make ~prefix ~cycle =
  if cycle = [] then invalid_arg "Lasso.make: empty cycle";
  if List.exists (fun s -> s < 0) prefix || List.exists (fun s -> s < 0) cycle
  then invalid_arg "Lasso.make: negative symbol";
  canonize (Array.of_list prefix) (Array.of_list cycle)

let constant s = make ~prefix:[] ~cycle:[ s ]
let prefix w = Array.to_list w.prefix
let cycle w = Array.to_list w.cycle

let at w i =
  let np = Array.length w.prefix in
  if i < np then w.prefix.(i) else w.cycle.((i - np) mod Array.length w.cycle)

let period w = Array.length w.cycle
let spoke w = Array.length w.prefix
let total_length w = spoke w + period w
let equal a b = a = b
let compare = Stdlib.compare
let first_n w n = List.init n (at w)

let shift w k =
  let np = Array.length w.prefix in
  if k <= np then
    canonize (Array.sub w.prefix k (np - k)) w.cycle
  else begin
    let r = (k - np) mod Array.length w.cycle in
    let nc = Array.length w.cycle in
    canonize [||] (Array.init nc (fun i -> w.cycle.((i + r) mod nc)))
  end

let append_prefix u w =
  canonize (Array.of_list (u @ Array.to_list w.prefix)) w.cycle

let map f w = canonize (Array.map f w.prefix) (Array.map f w.cycle)

let enumerate ~alphabet ~max_prefix ~max_cycle =
  if alphabet < 1 then invalid_arg "Lasso.enumerate: empty alphabet";
  let rec words len =
    if len = 0 then [ [] ]
    else
      let shorter = words (len - 1) in
      List.concat_map
        (fun w -> List.init alphabet (fun s -> s :: w))
        shorter
  in
  let all_of_length len = words len in
  let prefixes =
    List.concat_map all_of_length (List.init (max_prefix + 1) Fun.id)
  in
  let cycles =
    List.concat_map all_of_length
      (List.filter (fun c -> c >= 1) (List.init (max_cycle + 1) Fun.id))
  in
  List.concat_map
    (fun p -> List.map (fun c -> make ~prefix:p ~cycle:c) cycles)
    prefixes
  |> List.sort_uniq compare

let count_letter w s =
  if Array.exists (fun x -> x = s) w.cycle then `Infinitely
  else
    `Finitely
      (Array.fold_left (fun n x -> if x = s then n + 1 else n) 0 w.prefix)

(* Letters print back to back, unless one prints as a number of two or
   more digits: then they are separated by spaces, so that [1 12] and
   [11 2] print apart. *)
let pp ?alphabet () fmt w =
  let labeled s =
    match alphabet with Some a -> Alphabet.mem a s | None -> false
  in
  let sym s =
    if labeled s then Alphabet.label (Option.get alphabet) s
    else string_of_int s
  in
  let multi s = (not (labeled s)) && (s >= 10 || s < 0) in
  let sep =
    if Array.exists multi w.prefix || Array.exists multi w.cycle then " "
    else ""
  in
  let render v = String.concat sep (List.map sym (Array.to_list v)) in
  let spoke = render w.prefix in
  Format.fprintf fmt "%s%s(%s)^w" spoke
    (if spoke = "" then "" else sep)
    (render w.cycle)

let to_string ?alphabet w = Format.asprintf "%a" (pp ?alphabet ()) w
