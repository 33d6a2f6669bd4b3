(* Packed bitsets over a fixed universe [0, size), plus a hash-consing
   interner. This is the shared state-set kernel for the automaton hot
   paths: subset construction, on-the-fly products, rank-based
   complementation. Words carry [word_bits] bits each so every word stays
   an immediate OCaml int (no boxing). *)

let word_bits = Sys.int_size

type t = { size : int; words : int array }

let nwords size = (size + word_bits - 1) / word_bits

let create size =
  if size < 0 then invalid_arg "Bitset.create: negative universe";
  { size; words = Array.make (nwords size) 0 }

let capacity t = t.size

let copy t = { t with words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.size then invalid_arg "Bitset: element out of range"

let add t i =
  check t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits))

let remove t i =
  check t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod word_bits))

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let unsafe_add t i =
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits))

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let of_list size l =
  let t = create size in
  List.iter (fun i -> add t i) l;
  t

let singleton size i = of_list size [ i ]

let cardinal t =
  (* popcount per word; OCaml has no intrinsic, the SWAR loop is fine at
     this scale. *)
  let pop w =
    let c = ref 0 and x = ref w in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr c
    done;
    !c
  in
  Array.fold_left (fun acc w -> acc + pop w) 0 t.words

let binop ~name f a b =
  if a.size <> b.size then invalid_arg ("Bitset." ^ name ^ ": size mismatch");
  { size = a.size; words = Array.init (Array.length a.words) (fun i ->
        f a.words.(i) b.words.(i)) }

let union a b = binop ~name:"union" ( lor ) a b
let inter a b = binop ~name:"inter" ( land ) a b
let diff a b = binop ~name:"diff" (fun x y -> x land lnot y) a b

let equal a b = a.size = b.size && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.size b.size in
  if c <> 0 then c else Stdlib.compare a.words b.words

let subset a b =
  if a.size <> b.size then invalid_arg "Bitset.subset: size mismatch";
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

(* FNV-1a-style mix over every word: unlike [Hashtbl.hash], which only
   inspects a bounded prefix of the structure, this hashes the whole set so
   large universes do not degenerate into collision chains. *)
let hash t =
  let h = ref 0x811c9dc5 in
  Array.iter
    (fun w ->
      (* fold the 63-bit word in two halves to keep the mix cheap *)
      h := (!h lxor (w land 0x3fffffff)) * 0x01000193;
      h := (!h lxor (w lsr 30)) * 0x01000193)
    t.words;
  !h land max_int

let iter f t =
  Array.iteri
    (fun wi w ->
      let x = ref w in
      while !x <> 0 do
        let b = !x land - !x in
        let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
        f ((wi * word_bits) + log2 b 0);
        x := !x land (!x - 1)
      done)
    t.words

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let exists p t =
  try
    iter (fun i -> if p i then raise Exit) t;
    false
  with Exit -> true

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int
                                                  (to_list t)))

module H = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Hash-consing interner: maps each distinct bitset to a dense id in
   insertion order. Interned sets must not be mutated afterwards (the
   table aliases them). *)
module Interner = struct
  type bitset = t

  type t = { table : int H.t; mutable sets : bitset array; mutable count : int }

  let create ?(expected = 64) () =
    { table = H.create expected; sets = [||]; count = 0 }

  let count t = t.count

  let grow t set =
    let cap = Array.length t.sets in
    if t.count >= cap then begin
      let sets = Array.make (max 8 (2 * cap)) set in
      Array.blit t.sets 0 sets 0 cap;
      t.sets <- sets
    end;
    t.sets.(t.count) <- set;
    t.count <- t.count + 1

  let intern t set =
    match H.find_opt t.table set with
    | Some i -> i
    | None ->
        let i = t.count in
        H.add t.table set i;
        grow t set;
        i

  let find_opt t set = H.find_opt t.table set

  let get t i =
    if i < 0 || i >= t.count then invalid_arg "Bitset.Interner.get";
    t.sets.(i)

  let iteri f t =
    for i = 0 to t.count - 1 do
      f i t.sets.(i)
    done
end
