module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val leq : t -> t -> bool
  val meet : t -> t -> t
  val join : t -> t -> t
  val bot : t
  val top : t
  val pp : Format.formatter -> t -> unit
end

module type COMPLEMENTED = sig
  include LATTICE

  val complement : t -> t option
end

type 'a decomposition = { element : 'a; safety : 'a; liveness : 'a }

module Make (L : COMPLEMENTED) = struct
  type closure = L.t -> L.t

  let is_safety cl a = L.equal a (cl a)
  let is_liveness cl a = L.equal (cl a) L.top

  let decompose ?cl1 ~cl2 a =
    let closed = cl2 a in
    match L.complement closed with
    | None -> None
    | Some b ->
        let safety = match cl1 with None -> closed | Some cl1 -> cl1 a in
        Some { element = a; safety; liveness = L.join a b }

  let verify ~cl1 ~cl2 d =
    let failures = ref [] in
    let record claim witness = failures := (claim, witness) :: !failures in
    if not (L.equal (L.meet d.safety d.liveness) d.element) then
      record "meet does not recover element" (L.meet d.safety d.liveness);
    if not (is_safety cl1 d.safety) then
      record "safety part not cl1-closed" (cl1 d.safety);
    if not (is_liveness cl2 d.liveness) then
      record "liveness part not cl2-dense" (cl2 d.liveness);
    List.rev !failures

  let lemma3_holds cl a b = L.leq (cl (L.meet a b)) (L.meet (cl a) (cl b))

  let lemma4_holds ~cl ~a ~b = is_liveness cl (L.join a b)

  let lemma5_holds a b c =
    (* a <= b and c in cmp b imply a ^ c = 0. *)
    (not (L.leq a b && L.equal (L.meet b c) L.bot && L.equal (L.join b c) L.top))
    || L.equal (L.meet a c) L.bot

  let theorem6_bound ~cl1 ~a ~s = L.leq (cl1 a) s

  let theorem7_bound ~a ~b ~z = L.leq z (L.join a b)

  let is_machine_closed ~cl ~spec ~safety = L.equal safety (cl spec)

  let theorem5_hypotheses ~cl1 ~cl2 a =
    L.equal (cl2 a) L.top && not (L.equal (cl1 a) L.top)

  let theorem5_refutes ~cl1 ~cl2 ~a ~s ~l =
    not
      (is_safety cl2 s && is_liveness cl1 l && L.equal (L.meet s l) a)

  let gumm_join_preservation_violation cl ~sample =
    let bad = ref None in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if
              !bad = None
              && not (L.equal (cl (L.join a b)) (L.join (cl a) (cl b)))
            then bad := Some (a, b))
          sample)
      sample;
    !bad
end
