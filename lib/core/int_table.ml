(* Open addressing over two int arrays: [keys.(i)] is -1 when slot [i]
   is free. Keys are dense nonnegative ints (trace ids, or keys built
   from them), so a key is its own hash, and the keys of a run of new
   traces land in neighbouring slots. The table stays at most half
   full, so a probe always ends. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable used : int;  (* slots not free *)
}

let create () = { keys = Array.make 64 (-1); vals = Array.make 64 0; used = 0 }
let length t = t.used

(* The slot holding [key], or the free slot that ends its probe. *)
let slot keys key =
  let mask = Array.length keys - 1 in
  let h = ref (key land mask) in
  while
    let k = Array.unsafe_get keys !h in
    k <> key && k <> -1
  do
    h := (!h + 1) land mask
  done;
  !h

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  let nkeys = Array.make cap (-1) and nvals = Array.make cap 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let h = slot nkeys k in
        nkeys.(h) <- k;
        nvals.(h) <- vals.(i)
      end)
    keys;
  t.keys <- nkeys;
  t.vals <- nvals

(* Claim [key]'s slot, growing first if a new key would fill the table
   past half. *)
let claim t key =
  let h = slot t.keys key in
  if Array.unsafe_get t.keys h = key then h
  else begin
    if 2 * (t.used + 1) > Array.length t.keys then grow t;
    let h = slot t.keys key in
    t.keys.(h) <- key;
    t.vals.(h) <- 0;
    t.used <- t.used + 1;
    h
  end

(* A key present in its home slot, as dense ids mostly are, costs one
   load and one compare, with no call: the caller passes a whole batch
   of keys. Any other key goes through [claim]. *)
let add_all t a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Int_table.add_all";
  for k = 0 to len - 1 do
    let key = Array.unsafe_get a k and keys = t.keys in
    if key < 0 || Array.unsafe_get keys (key land (Array.length keys - 1)) <> key
    then begin
      if key < 0 then invalid_arg "Int_table.add_all: negative key";
      ignore (claim t key)
    end
  done

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  t.vals.(claim t key) <- v

let find t key =
  if key < 0 then raise Not_found;
  let h = slot t.keys key in
  if t.keys.(h) = key then t.vals.(h) else raise Not_found

let keys t =
  let out = Array.make t.used 0 and n = ref 0 in
  Array.iter
    (fun k ->
      if k >= 0 then begin
        out.(!n) <- k;
        incr n
      end)
    t.keys;
  out

let clear t =
  if t.used > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.used <- 0
  end
