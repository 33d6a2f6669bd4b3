type t = {
  original : Buchi.t;
  safety : Buchi.t;
  liveness : Buchi.t;
}

let lcl = Closure.bcl

let decompose b =
  let safety = Closure.bcl b in
  let liveness = Ops.union b (Complement.complement_closed safety) in
  { original = b; safety; liveness }

let check_claims ~intersection_ok d =
  let failures = ref [] in
  let record claim diag = failures := (claim, diag) :: !failures in
  if not (Lang.equal d.safety (Closure.bcl d.safety)) then
    record "safety part not closed" "L(B_S) <> lcl L(B_S)";
  if not (Buchi.is_empty (Complement.complement_closed (Closure.bcl d.liveness)))
  then record "liveness part not dense" "lcl L(B_L) <> universal";
  (match intersection_ok () with
  | None -> ()
  | Some diag -> record "intersection does not recover L(B)" diag);
  List.rev !failures

let verify_via_negation d ~negation =
  check_claims d ~intersection_ok:(fun () ->
      (* Exact equality L(B_S) ∩ L(B_L) = L(B) without ever complementing
         the (large) liveness automaton. Given ¬B: since decompose builds
         B_L = B ∪ ¬B_S with ¬B_S deterministic, ¬L(B_L) = ¬L(B) ∩ L(B_S),
         so

         - meet ⊆ B       reduces to  meet ∩ ¬B = ∅;
         - B ⊆ B_S        is a subset test against a closed language;
         - B ⊆ B_L        reduces to  B ∩ ¬B ∩ B_S = ∅ (trivial once ¬B is
           correct, but checked anyway to keep the claim honest). *)
      let meet = Ops.intersect d.safety d.liveness in
      if not (Buchi.is_empty (Ops.intersect meet negation)) then
        Some "L(B_S) /\\ L(B_L) not included in L(B)"
      else if not (Lang.subset d.original d.safety) then
        Some "L(B) not included in L(B_S)"
      else if
        not
          (Buchi.is_empty
             (Ops.intersect d.original (Ops.intersect negation d.safety)))
      then Some "L(B) not included in L(B_L)"
      else None)

let verify_exact d =
  verify_via_negation d ~negation:(Complement.negate d.original)

let verify_sampled ~max_prefix ~max_cycle d =
  check_claims d ~intersection_ok:(fun () ->
      let meet = Ops.intersect d.safety d.liveness in
      match Lang.separating_lasso ~max_prefix ~max_cycle meet d.original with
      | None -> None
      | Some w ->
          Some
            (Printf.sprintf "disagree on %s" (Sl_word.Lasso.to_string w)))

type classification = Safety | Liveness | Both | Neither

let classification_to_string = function
  | Safety -> "safety"
  | Liveness -> "liveness"
  | Both -> "both (Sigma^omega)"
  | Neither -> "neither"

(* Over [closure] = bcl B: B is liveness iff lcl L(B) is universal,
   and, since L(B) ⊆ lcl L(B) always, safety iff lcl L(B) ∩ ¬L(B) = ∅. *)
let dense closure = Buchi.is_empty (Complement.complement_closed closure)

let closed_against closure negation =
  Buchi.is_empty (Ops.intersect closure negation)

let is_liveness b = dense (Closure.bcl b)

(* The one classifier body, over a given ¬B. *)
let classify_against b ~negation =
  let closure = Closure.bcl b in
  match (closed_against closure negation, dense closure) with
  | true, true -> Both
  | true, false -> Safety
  | false, true -> Liveness
  | false, false -> Neither

let is_safety b = closed_against (Closure.bcl b) (Complement.negate b)
let classify b = classify_against b ~negation:(Complement.negate b)

let classify_via_negation b ~negation =
  (* Sanity: a genuine complement is disjoint from the automaton. (The
     converse inclusion cannot be checked cheaply; the caller vouches.) *)
  if not (Buchi.is_empty (Ops.intersect b negation)) then
    invalid_arg "Decompose.classify_via_negation: negation overlaps language";
  classify_against b ~negation

let language_lattice ~alphabet :
    (module Sl_core.Theory.COMPLEMENTED with type t = Buchi.t) =
  (module struct
    type nonrec t = Buchi.t

    let equal = Lang.equal
    let leq = Lang.subset
    let meet = Ops.intersect
    let join = Ops.union
    let bot = Buchi.empty_language ~alphabet
    let top = Buchi.universal ~alphabet

    let pp fmt b =
      Format.fprintf fmt "<buchi %s>" (Buchi.size_info b)

    let complement b =
      match Complement.negate b with
      | c -> Some c
      | exception Complement.Too_large _ -> None
  end)
