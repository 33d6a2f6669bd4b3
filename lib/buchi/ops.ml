let union (a : Buchi.t) (b : Buchi.t) =
  if a.alphabet <> b.alphabet then invalid_arg "Ops.union: alphabets differ";
  (* New state 0 is the fresh start; a's states shift by 1, b's by
     1 + a.nstates. *)
  let shift_a = 1 and shift_b = 1 + a.nstates in
  let nstates = 1 + a.nstates + b.nstates in
  let delta = Array.make_matrix nstates a.alphabet [] in
  for s = 0 to a.alphabet - 1 do
    delta.(0).(s) <-
      List.map (( + ) shift_a) a.delta.(a.start).(s)
      @ List.map (( + ) shift_b) b.delta.(b.start).(s)
  done;
  Array.iteri
    (fun q row ->
      Array.iteri
        (fun s l -> delta.(q + shift_a).(s) <- List.map (( + ) shift_a) l)
        row)
    a.delta;
  Array.iteri
    (fun q row ->
      Array.iteri
        (fun s l -> delta.(q + shift_b).(s) <- List.map (( + ) shift_b) l)
        row)
    b.delta;
  let accepting = Array.make nstates false in
  Array.iteri (fun q acc -> accepting.(q + shift_a) <- acc) a.accepting;
  Array.iteri (fun q acc -> accepting.(q + shift_b) <- acc) b.accepting;
  (* The fresh start is never revisited, so its acceptance is irrelevant;
     leave it rejecting. Every successor is a shifted state of a validated
     automaton, so skip the [Buchi.make] re-validation pass. *)
  { Buchi.alphabet = a.alphabet; nstates; start = 0; delta; accepting }

(* State (qa, qb, phase): phase 0 waits for an accepting state of [a],
   phase 1 for one of [b]; acceptance on the 0->1 switch points. *)

(* The seed's materialized product, kept verbatim as the reference
   implementation: it allocates all [na * nb * 2] states whether or not
   they are reachable. Property tests check [intersect] against it and the
   bench harness times it as the seed baseline. *)
let intersect_full (a : Buchi.t) (b : Buchi.t) =
  if a.alphabet <> b.alphabet then
    invalid_arg "Ops.intersect: alphabets differ";
  let na = a.nstates and nb = b.nstates in
  let encode qa qb ph = (((qa * nb) + qb) * 2) + ph in
  let nstates = na * nb * 2 in
  let delta = Array.make_matrix nstates a.alphabet [] in
  for qa = 0 to na - 1 do
    for qb = 0 to nb - 1 do
      for ph = 0 to 1 do
        let next_phase =
          if ph = 0 && a.accepting.(qa) then 1
          else if ph = 1 && b.accepting.(qb) then 0
          else ph
        in
        for s = 0 to a.alphabet - 1 do
          delta.(encode qa qb ph).(s) <-
            List.concat_map
              (fun qa' ->
                List.map (fun qb' -> encode qa' qb' next_phase)
                  b.delta.(qb).(s))
              a.delta.(qa).(s)
        done
      done
    done
  done;
  let accepting =
    Array.init nstates (fun code ->
        let ph = code land 1 in
        let qa = code / 2 / nb in
        ph = 0 && a.accepting.(qa))
  in
  Buchi.make ~alphabet:a.alphabet ~nstates
    ~start:(encode a.start b.start 0)
    ~delta ~accepting

(* On-the-fly product: breadth-first exploration from the start state, so
   only reachable product states are numbered and given transition rows.
   The scratch id table costs one word per *potential* state; the seed
   paid a full transition row (an [alphabet]-array of successor lists) for
   each of them. *)
let intersect (a : Buchi.t) (b : Buchi.t) =
  if a.alphabet <> b.alphabet then
    invalid_arg "Ops.intersect: alphabets differ";
  let na = a.nstates and nb = b.nstates in
  let encode qa qb ph = ((((qa * nb) + qb) * 2) + ph : int) in
  let id = Array.make (na * nb * 2) (-1) in
  let count = ref 0 in
  let rev_order = ref [] in
  let queue = Queue.create () in
  let visit c =
    if id.(c) = -1 then begin
      id.(c) <- !count;
      incr count;
      rev_order := c :: !rev_order;
      Queue.push c queue
    end
  in
  let next_phase qa qb ph =
    if ph = 0 && a.accepting.(qa) then 1
    else if ph = 1 && b.accepting.(qb) then 0
    else ph
  in
  visit (encode a.start b.start 0);
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    let ph = c land 1 in
    let qa = c / 2 / nb and qb = c / 2 mod nb in
    let ph' = next_phase qa qb ph in
    for s = 0 to a.alphabet - 1 do
      List.iter
        (fun qa' ->
          List.iter (fun qb' -> visit (encode qa' qb' ph')) b.delta.(qb).(s))
        a.delta.(qa).(s)
    done
  done;
  let nstates = !count in
  let codes = Array.make nstates 0 in
  List.iter (fun c -> codes.(id.(c)) <- c) !rev_order;
  let delta =
    Array.init nstates (fun i ->
        let c = codes.(i) in
        let ph = c land 1 in
        let qa = c / 2 / nb and qb = c / 2 mod nb in
        let ph' = next_phase qa qb ph in
        Array.init a.alphabet (fun s ->
            List.concat_map
              (fun qa' ->
                List.map (fun qb' -> id.(encode qa' qb' ph')) b.delta.(qb).(s))
              a.delta.(qa).(s)))
  in
  let accepting =
    Array.init nstates (fun i ->
        let c = codes.(i) in
        c land 1 = 0 && a.accepting.(c / 2 / nb))
  in
  Buchi.make ~alphabet:a.alphabet ~nstates ~start:0 ~delta ~accepting

let union_list ~alphabet = function
  | [] -> Buchi.empty_language ~alphabet
  | x :: rest -> List.fold_left union x rest
