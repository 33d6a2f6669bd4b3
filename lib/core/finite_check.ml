module Lattice = Sl_lattice.Lattice
module Closure = Sl_lattice.Closure
module Named = Sl_lattice.Named

type report = (unit, string) result

let failf fmt = Format.kasprintf (fun s -> Error s) fmt

let as_complemented l : (module Theory.COMPLEMENTED with type t = Lattice.elt)
    =
  (module struct
    type t = Lattice.elt

    let equal = Int.equal
    let leq = Lattice.leq l
    let meet = Lattice.meet l
    let join = Lattice.join l
    let bot = Lattice.bot l
    let top = Lattice.top l
    let pp = Format.pp_print_int

    let complement a =
      match Lattice.complements l a with [] -> None | b :: _ -> Some b
  end)

let check_hypotheses_fresh ~need_distributive l =
  if not (Lattice.is_complemented l) then
    failf "lattice not complemented (elements %s lack complements)"
      (String.concat ","
         (List.map string_of_int (Lattice.uncomplemented l)))
  else if need_distributive && not (Lattice.is_distributive l) then
    (match Lattice.distributivity_violation l with
    | Some (a, b, c) -> failf "lattice not distributive at (%d,%d,%d)" a b c
    | None -> assert false)
  else if (not need_distributive) && not (Lattice.is_modular l) then
    (match Lattice.modularity_violation l with
    | Some (a, b, c) -> failf "lattice not modular at (%d,%d,%d)" a b c
    | None -> assert false)
  else Ok ()

(* Hypothesis verification is pure in the lattice but costs O(n^3); the
   exhaustive sweeps and benches re-verify the same lattice once per
   closure (resp. per pair), so verdicts are memoized by physical
   identity. The cap keeps throwaway lattices from property tests from
   growing a memo unboundedly. *)
let memo_cap = 16

let memo_find memo l =
  List.find_map (fun (l', r) -> if l' == l then Some r else None) !memo

let memo_add memo l r =
  memo := (l, r) :: List.filteri (fun i _ -> i < memo_cap - 1) !memo

let modular_hypotheses_memo : (Lattice.t * report) list ref = ref []
let distributive_hypotheses_memo : (Lattice.t * report) list ref = ref []

let check_hypotheses ?(need_distributive = false) l =
  let memo =
    if need_distributive then distributive_hypotheses_memo
    else modular_hypotheses_memo
  in
  match memo_find memo l with
  | Some r -> r
  | None ->
      let r = check_hypotheses_fresh ~need_distributive l in
      memo_add memo l r;
      r

let check_theorem3 l ~cl1 ~cl2 =
  match check_hypotheses l with
  | Error _ as e -> e
  | Ok () ->
      if not (Closure.pointwise_leq cl1 cl2) then
        failf "cl1 not pointwise below cl2"
      else begin
        let module L = (val as_complemented l) in
        let module T = Theory.Make (L) in
        let f1 = Closure.apply cl1 and f2 = Closure.apply cl2 in
        let bad =
          List.find_map
            (fun a ->
              match T.decompose ~cl1:f1 ~cl2:f2 a with
              | None -> Some (a, [ ("no complement for cl2 a", f2 a) ])
              | Some d -> (
                  match T.verify ~cl1:f1 ~cl2:f2 d with
                  | [] -> None
                  | fails -> Some (a, fails)))
            (Lattice.elements l)
        in
        match bad with
        | None -> Ok ()
        | Some (a, fails) ->
            failf "element %d: %s" a
              (String.concat "; "
                 (List.map
                    (fun (claim, w) -> Printf.sprintf "%s (witness %d)" claim w)
                    fails))
      end

let check_theorem2 l cl = check_theorem3 l ~cl1:cl ~cl2:cl

let check_theorem5 l ~cl1 ~cl2 =
  let module L = (val as_complemented l) in
  let module T = Theory.Make (L) in
  let f1 = Closure.apply cl1 and f2 = Closure.apply cl2 in
  let elems = Lattice.elements l in
  let bad =
    List.find_map
      (fun a ->
        if not (T.theorem5_hypotheses ~cl1:f1 ~cl2:f2 a) then None
        else
          List.find_map
            (fun s ->
              List.find_map
                (fun lv ->
                  if T.theorem5_refutes ~cl1:f1 ~cl2:f2 ~a ~s ~l:lv then None
                  else Some (a, s, lv))
                elems)
            elems)
      elems
  in
  match bad with
  | None -> Ok ()
  | Some (a, s, lv) ->
      failf "theorem 5 violated: a=%d decomposes as s=%d, l=%d" a s lv

let check_theorem6 l ~cl1 ~cl2 =
  if not (Closure.pointwise_leq cl1 cl2) then
    failf "cl1 not pointwise below cl2"
  else begin
    let module L = (val as_complemented l) in
    let module T = Theory.Make (L) in
    let f1 = Closure.apply cl1 and f2 = Closure.apply cl2 in
    let elems = Lattice.elements l in
    let bad =
      List.find_map
        (fun s ->
          if not (T.is_safety f1 s || T.is_safety f2 s) then None
          else
            List.find_map
              (fun z ->
                let a = Lattice.meet l s z in
                if T.theorem6_bound ~cl1:f1 ~a ~s then None
                else Some (a, s, z))
              elems)
        elems
    in
    match bad with
    | None -> Ok ()
    | Some (a, s, z) ->
        failf "theorem 6 violated: a=%d = s(%d) ^ z(%d) but cl1 a > s" a s z
  end

let check_theorem7 l ~cl1 ~cl2 =
  match check_hypotheses ~need_distributive:true l with
  | Error _ as e -> e
  | Ok () ->
      if not (Closure.pointwise_leq cl1 cl2) then
        failf "cl1 not pointwise below cl2"
      else begin
        let module L = (val as_complemented l) in
        let module T = Theory.Make (L) in
        let f1 = Closure.apply cl1 and f2 = Closure.apply cl2 in
        let elems = Lattice.elements l in
        let bad =
          List.find_map
            (fun s ->
              if not (T.is_safety f1 s || T.is_safety f2 s) then None
              else
                List.find_map
                  (fun z ->
                    let a = Lattice.meet l s z in
                    List.find_map
                      (fun b ->
                        if T.theorem7_bound ~a ~b ~z then None
                        else Some (a, s, z, b))
                      (Lattice.complements l (f1 a)))
                  elems)
            elems
        in
        match bad with
        | None -> Ok ()
        | Some (a, s, z, b) ->
            failf
              "theorem 7 violated: a=%d = s(%d) ^ z(%d), b=%d in cmp(cl1 a) \
               but z </= a v b"
              a s z b
      end

let check_theorem8 l ~cl1 ~cl2 =
  match check_hypotheses ~need_distributive:true l with
  | Error _ as e -> e
  | Ok () ->
      if not (Closure.pointwise_leq cl1 cl2) then
        failf "cl1 not pointwise below cl2"
      else begin
        let module L = (val as_complemented l) in
        let module T = Theory.Make (L) in
        let f1 = Closure.apply cl1 and f2 = Closure.apply cl2 in
        let elems = Lattice.elements l in
        let bad =
          List.find_map
            (fun q ->
              if not (T.is_safety f1 q || T.is_safety f2 q) then None
              else
                List.find_map
                  (fun r ->
                    let p = Lattice.meet l q r in
                    if not (T.theorem6_bound ~cl1:f1 ~a:p ~s:q) then
                      Some (q, r, "cl1 p </= q")
                    else
                      List.find_map
                        (fun b ->
                          if T.theorem7_bound ~a:p ~b ~z:r then None
                          else Some (q, r, "r </= p v b"))
                        (Lattice.complements l (f1 p)))
                  elems)
            elems
        in
        match bad with
        | None -> Ok ()
        | Some (q, r, what) ->
            failf "theorem 8 violated at q=%d, r=%d: %s" q r what
      end

(* The exhaustive sweep quantifies over every closure operator, then
   every ordered pair of them, reporting failures in that order. *)
let check_all_closures l =
  let closures = Array.of_list (Closure.all l) in
  let nc = Array.length closures in
  let distributive = Lattice.is_distributive l in
  let note label r = match r with Ok () -> [] | Error _ -> [ (label, r) ] in
  let single i =
    let cl = closures.(i) in
    List.concat
      [ note (Printf.sprintf "thm2[cl%d]" i) (check_theorem2 l cl);
        note (Printf.sprintf "thm6[cl%d]" i) (check_theorem6 l ~cl1:cl ~cl2:cl);
        (if distributive then
           note (Printf.sprintf "thm7[cl%d]" i) (check_theorem7 l ~cl1:cl ~cl2:cl)
         else []);
        (if distributive then
           note (Printf.sprintf "thm8[cl%d]" i) (check_theorem8 l ~cl1:cl ~cl2:cl)
         else []) ]
  in
  let pair k =
    let i = k / nc and j = k mod nc in
    let cl1 = closures.(i) and cl2 = closures.(j) in
    if not (Closure.pointwise_leq cl1 cl2) then []
    else
      note (Printf.sprintf "thm3[cl%d<=cl%d]" i j) (check_theorem3 l ~cl1 ~cl2)
      @ note (Printf.sprintf "thm5[cl%d<=cl%d]" i j) (check_theorem5 l ~cl1 ~cl2)
  in
  let failures =
    List.concat (List.init nc single @ List.init (nc * nc) pair)
  in
  match failures with [] -> [ ("all", Ok ()) ] | fs -> fs

(* The two figure checks are called in benchmark and test hot loops, so
   the first-class-module unpacking and [Theory.Make] functor
   application — pure setup over fixed named lattices — are hoisted out
   of the per-call closure; each call pays only for the exhaustive
   search itself. *)
let lemma6_fig1 =
  let l = Named.n5 in
  let cl = Closure.apply Sl_lattice.Closure.fig1 in
  let module L = (val as_complemented l) in
  let module T = Theory.Make (L) in
  fun () ->
  let a = Named.n5_a in
  let elems = Lattice.elements l in
  let decomposition_exists =
    List.exists
      (fun s ->
        List.exists
          (fun lv ->
            T.is_safety cl s && T.is_liveness cl lv
            && Lattice.meet l s lv = a)
          elems)
      elems
  in
  if decomposition_exists then
    failf "Figure 1: element a unexpectedly decomposes"
  else Ok ()

let fig2_theorem7_failure =
  let l = Named.m3 in
  let module L = (val as_complemented l) in
  let module T = Theory.Make (L) in
  fun () ->
  let a = Named.m3_a and s = Named.m3_s and z = Named.m3_z
  and b = Named.m3_b in
  match Sl_lattice.Closure.fig2_candidates with
  | [] -> failf "Figure 2: no closure maps a to s"
  | candidates ->
      let all_fail =
        List.for_all
          (fun cl ->
            let f = Closure.apply cl in
            (* Paper's setup: s is a safety element, a = s ^ z, b is a
               complement of cl a; conclusion z <= a v b must fail. *)
            T.is_safety f s
            && Lattice.meet l s z = a
            && List.mem b (Lattice.complements l (f a))
            && not (T.theorem7_bound ~a ~b ~z))
          candidates
      in
      if all_fail then Ok ()
      else failf "Figure 2: some closure satisfies Theorem 7's conclusion"

let modularity_is_needed () =
  match check_theorem2 Named.n5 Sl_lattice.Closure.fig1 with
  | Ok () -> failf "N5 unexpectedly satisfies Theorem 2"
  | Error _ ->
      (* The failure must be attributed to modularity: N5 is complemented,
         so the hypothesis check reports non-modularity. *)
      if Lattice.is_modular Named.n5 then failf "N5 unexpectedly modular"
      else Ok ()
