module Dfa = Sl_nfa.Dfa
module Digraph = Sl_core.Digraph
module Wire = Sl_core.Wire
module Monitor = Sl_buchi.Monitor

type t = {
  alphabet : int;
  nstates : int;
  trans : int array;
  accepting : bool array;
  can_trip : bool array;
  pre_tripped : bool;
  vacuous : bool;
  key : string;
}

let start = 0

(* BFS renumbering from the start, trying symbols in ascending order.
   On a minimal DFA (unique up to isomorphism, every state reachable)
   this yields the canonical state numbering: language-equal monitors
   compile to identical packed tables, which is what lets the registry
   hash-cons them by [key]. *)
let canonical_order (d : Dfa.t) =
  let order = Array.make d.Dfa.nstates (-1) in
  let queue = Queue.create () in
  let next = ref 0 in
  order.(d.Dfa.start) <- 0;
  incr next;
  Queue.push d.Dfa.start queue;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    Array.iter
      (fun q' ->
        if order.(q') = -1 then begin
          order.(q') <- !next;
          incr next;
          Queue.push q' queue
        end)
      d.Dfa.delta.(q)
  done;
  order

let key_of ~alphabet ~trans ~accepting =
  let buf = Buffer.create (16 + (4 * Array.length trans)) in
  Buffer.add_string buf (string_of_int alphabet);
  Array.iter
    (fun q ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int q))
    trans;
  Array.iter (fun a -> Buffer.add_char buf (if a then '*' else '.')) accepting;
  Buffer.contents buf

(* Everything beyond (alphabet, trans, accepting) is a pure function of
   those three fields. A monitor can still trip in state q iff some
   rejecting state is reachable from q (backward reachability on the
   packed graph); once that fails the monitor is admissible forever and
   the engine retires it. Vacuity (a pure-liveness property: the safety
   part is universal) is the special case at the start state. Sharing
   this derivation between [pack] and [decode] is what makes a decoded
   artifact field-for-field identical to a fresh compile. *)
let derive ~alphabet ~nstates ~trans ~accepting =
  let delta2 =
    Array.init nstates (fun q ->
        Array.init alphabet (fun s -> trans.((q * alphabet) + s)))
  in
  let g = Digraph.of_array_delta delta2 in
  let can_trip =
    Digraph.reachable_from (Digraph.reverse g) (Array.map not accepting)
  in
  let pre_tripped = not accepting.(0) in
  let vacuous = accepting.(0) && not can_trip.(0) in
  { alphabet; nstates; trans; accepting; can_trip; pre_tripped; vacuous;
    key = key_of ~alphabet ~trans ~accepting }

let pack (d : Dfa.t) =
  let d = Dfa.minimize d in
  (* [minimize] keeps exactly the reachable classes, so the BFS order is
     total over the states. *)
  let order = canonical_order d in
  let n = d.Dfa.nstates in
  let alphabet = d.Dfa.alphabet in
  let trans = Array.make (n * alphabet) 0 in
  let accepting = Array.make n false in
  Array.iteri
    (fun q nq ->
      accepting.(nq) <- d.Dfa.accepting.(q);
      Array.iteri
        (fun s q' -> trans.((nq * alphabet) + s) <- order.(q'))
        d.Dfa.delta.(q))
    order;
  derive ~alphabet ~nstates:n ~trans ~accepting

(* The empty property: even the empty prefix is bad. The prefix DFA the
   monitor pipeline produces is not meaningful in this corner
   ([Buchi.to_prefix_nfa] marks all states of the trimmed-empty automaton
   accepting), so all empty properties share one canonical one-state
   rejecting table. *)
let empty ~alphabet =
  let trans = Array.make alphabet 0 in
  let accepting = [| false |] in
  { alphabet; nstates = 1; trans; accepting; can_trip = [| true |];
    pre_tripped = true; vacuous = false;
    key = key_of ~alphabet ~trans ~accepting }

let of_monitor m =
  let dfa = Monitor.dfa m in
  if Monitor.empty_property m then empty ~alphabet:dfa.Dfa.alphabet
  else pack dfa

let of_buchi b = of_monitor (Monitor.create b)

let of_dfa = pack

let step pd q symbol = pd.trans.((q * pd.alphabet) + symbol)
let is_accepting pd q = pd.accepting.(q)
let can_trip pd q = pd.can_trip.(q)
let key pd = pd.key

(* The monitor's certificate: BFS over the flat table from the start,
   trying symbols in ascending order, stopping at the first rejecting
   state discovered. Words are discovered in (length, lexicographic)
   order, so the path found is the least of the shortest bad prefixes —
   a function of the language alone, unchanged by minimization. *)
let shortest_bad_prefix pd =
  if pd.pre_tripped then Some []
  else if pd.vacuous then None
  else begin
    let parent = Array.make pd.nstates (-1) in
    let queue = Queue.create () in
    parent.(start) <- start;
    Queue.push start queue;
    let found = ref (-1) in
    while !found < 0 do
      let q = Queue.pop queue in
      for s = 0 to pd.alphabet - 1 do
        let q' = step pd q s in
        if !found < 0 && parent.(q') < 0 then begin
          parent.(q') <- (q * pd.alphabet) + s;
          if not pd.accepting.(q') then found := q';
          Queue.push q' queue
        end
      done
    done;
    let rec unwind q acc =
      if q = start then acc
      else
        let e = parent.(q) in
        unwind (e / pd.alphabet) ((e mod pd.alphabet) :: acc)
    in
    Some (unwind !found [])
  end

(* Fused megatable: every monitor's transition rows concatenated into
   one contiguous array, each entry carrying the successor together
   with its verdict-relevant bits — [(s' lsl 2) lor (can_trip(s') lsl
   1) lor accepting(s')]. A per-monitor stepping loop then decides
   trip/continue/retire from a single array read per live monitor
   instead of three reads through a per-monitor record. Callers must
   pass a uniform-alphabet array (the registry guarantees it). *)
let fuse_entry pd s' =
  (s' lsl 2)
  lor (if pd.can_trip.(s') then 2 else 0)
  lor (if pd.accepting.(s') then 1 else 0)

let fuse monitors =
  let base = Array.make (max (Array.length monitors) 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun m pd ->
      base.(m) <- !total;
      total := !total + Array.length pd.trans)
    monitors;
  let mega = Array.make (max !total 1) 0 in
  Array.iteri
    (fun m pd ->
      Array.iteri
        (fun k s' -> mega.(base.(m) + k) <- fuse_entry pd s')
        pd.trans)
    monitors;
  (mega, base)

(* Serialization: only the three defining fields (plus the canonical
   key, for cheap identity checks without decoding the arrays) go to
   disk; [can_trip]/[pre_tripped]/[vacuous] are rederived on decode, so
   stale bytes cannot desynchronize a monitor's retirement logic from
   its transition table. *)

let encode w pd =
  Wire.put_string w pd.key;
  Wire.put_int w pd.alphabet;
  Wire.put_int w pd.nstates;
  Wire.put_int_array w pd.trans;
  Wire.put_bool_array w pd.accepting

let decode r =
  let fail fmt = Printf.ksprintf (fun s -> raise (Wire.Corrupt s)) fmt in
  let key = Wire.get_string r in
  let alphabet = Wire.get_int r in
  let nstates = Wire.get_int r in
  let trans = Wire.get_int_array r in
  let accepting = Wire.get_bool_array r in
  if alphabet < 1 then fail "packed_dfa: bad alphabet %d" alphabet;
  if nstates < 1 then fail "packed_dfa: bad state count %d" nstates;
  if Array.length trans <> nstates * alphabet then
    fail "packed_dfa: %d transitions for %d states x %d symbols"
      (Array.length trans) nstates alphabet;
  Array.iter
    (fun q -> if q < 0 || q >= nstates then fail "packed_dfa: successor %d" q)
    trans;
  if Array.length accepting <> nstates then
    fail "packed_dfa: %d acceptance bits for %d states"
      (Array.length accepting) nstates;
  let pd = derive ~alphabet ~nstates ~trans ~accepting in
  (* The stored key must be the canonical key of the stored table —
     catches artifacts whose key and table were mixed up even when each
     half is well-formed on its own. *)
  if not (String.equal key pd.key) then fail "packed_dfa: key mismatch";
  pd

let pp fmt pd =
  Format.fprintf fmt "packed-dfa(%d states, alphabet %d%s%s)" pd.nstates
    pd.alphabet
    (if pd.vacuous then ", vacuous" else "")
    (if pd.pre_tripped then ", pre-tripped" else "")
