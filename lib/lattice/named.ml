module Poset = Sl_order.Poset
(* Figure 1 (N5): 0 = bot, 1 = a, 2 = b, 3 = c, 4 = top. *)
let n5_bot = 0
let n5_a = 1
let n5_b = 2
let n5_c = 3
let n5_top = 4

let n5 =
  Lattice.of_covers ~size:5
    ~covers:[ (n5_bot, n5_a); (n5_a, n5_b); (n5_b, n5_top);
              (n5_bot, n5_c); (n5_c, n5_top) ]

let n5_label = function
  | 0 -> "0"
  | 1 -> "a"
  | 2 -> "b"
  | 3 -> "c"
  | 4 -> "1"
  | x -> string_of_int x

(* Figure 2 (M3): 0 = a (bottom), 1 = s, 2 = b, 3 = z, 4 = top. *)
let m3_a = 0
let m3_s = 1
let m3_b = 2
let m3_z = 3
let m3_top = 4

let m3 =
  Lattice.of_covers ~size:5
    ~covers:[ (m3_a, m3_s); (m3_a, m3_b); (m3_a, m3_z);
              (m3_s, m3_top); (m3_b, m3_top); (m3_z, m3_top) ]

let m3_label = function
  | 0 -> "a"
  | 1 -> "s"
  | 2 -> "b"
  | 3 -> "z"
  | 4 -> "1"
  | x -> string_of_int x

let chain n = Lattice.of_poset (Poset.chain n)

(* Boolean lattices are fixed objects like [n5] and [m3]; the small ones
   are built once at module init so repeated [boolean n] calls (sweeps,
   benches, property tests) share one immutable instance instead of
   rebuilding the 2^n x 2^n meet/join tables every time. *)
let boolean_fresh n = Lattice.of_poset (Poset.powerset n)
let boolean_small = Array.init 6 boolean_fresh

let boolean n =
  if n >= 0 && n < Array.length boolean_small then boolean_small.(n)
  else boolean_fresh n

let diamond k =
  if k = 0 then chain 2
  else begin
    (* 0 = bottom, 1..k = atoms, k+1 = top. *)
    let covers =
      List.concat_map (fun i -> [ (0, i); (i, k + 1) ])
        (List.init k (fun i -> i + 1))
    in
    Lattice.of_covers ~size:(k + 2) ~covers
  end

let divisor n =
  let p, ds = Poset.divisors n in
  (Lattice.of_poset p, ds)

(* Partitions of {0..n-1} as canonical block-id arrays: cell i holds the
   index of the block containing i, blocks numbered by first occurrence. *)
let partitions_of n =
  let canonize a =
    let map = Hashtbl.create 8 in
    let next = ref 0 in
    Array.map
      (fun b ->
        match Hashtbl.find_opt map b with
        | Some c -> c
        | None ->
            let c = !next in
            incr next;
            Hashtbl.add map b c;
            c)
      a
  in
  let rec build i acc =
    if i = n then [ canonize (Array.of_list (List.rev acc)) ]
    else begin
      let max_block = List.fold_left max (-1) acc in
      List.concat_map
        (fun b -> build (i + 1) (b :: acc))
        (List.init (max_block + 2) Fun.id)
    end
  in
  build 0 []

(* p refines q: every block of p is inside a block of q. *)
let refines p q =
  let n = Array.length p in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if p.(i) = p.(j) && q.(i) <> q.(j) then ok := false
    done
  done;
  !ok

let partition n =
  if n < 1 then invalid_arg "Named.partition: n must be >= 1";
  let parts = Array.of_list (partitions_of n) in
  let poset =
    Poset.make ~size:(Array.length parts) ~leq:(fun i j ->
        refines parts.(i) parts.(j))
  in
  Lattice.of_poset poset

let all_small =
  [ ("chain2", chain 2); ("chain3", chain 3); ("chain4", chain 4);
    ("chain5", chain 5);
    ("bool1", boolean 1); ("bool2", boolean 2); ("bool3", boolean 3);
    ("n5", n5); ("m3", m3); ("m4", diamond 4);
    ("div12", fst (divisor 12)); ("div30", fst (divisor 30));
    ("div36", fst (divisor 36));
    ("part3", partition 3); ("part4", partition 4);
    ("chain3xchain3", Lattice.product (chain 3) (chain 3));
    ("n5xchain2", Lattice.product n5 (chain 2)) ]
