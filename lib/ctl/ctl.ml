module Kripke = Sl_kripke.Kripke

type t =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | EX of t
  | AX of t
  | EF of t
  | AF of t
  | EG of t
  | AG of t
  | EU of t * t
  | AU of t * t

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Prop p -> Format.pp_print_string fmt p
  | Not f -> Format.fprintf fmt "!%a" pp_atom f
  | And (a, b) -> Format.fprintf fmt "%a & %a" pp_atom a pp_atom b
  | Or (a, b) -> Format.fprintf fmt "%a | %a" pp_atom a pp_atom b
  | Implies (a, b) -> Format.fprintf fmt "%a -> %a" pp_atom a pp_atom b
  | EX f -> Format.fprintf fmt "EX %a" pp_atom f
  | AX f -> Format.fprintf fmt "AX %a" pp_atom f
  | EF f -> Format.fprintf fmt "EF %a" pp_atom f
  | AF f -> Format.fprintf fmt "AF %a" pp_atom f
  | EG f -> Format.fprintf fmt "EG %a" pp_atom f
  | AG f -> Format.fprintf fmt "AG %a" pp_atom f
  | EU (a, b) -> Format.fprintf fmt "E (%a U %a)" pp a pp b
  | AU (a, b) -> Format.fprintf fmt "A (%a U %a)" pp a pp b

and pp_atom fmt f =
  match f with
  | True | False | Prop _ | Not _ | EX _ | AX _ | EF _ | AF _ | EG _
  | AG _ ->
      pp fmt f
  | _ -> Format.fprintf fmt "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f

let rec size = function
  | True | False | Prop _ -> 1
  | Not f | EX f | AX f | EF f | AF f | EG f | AG f -> 1 + size f
  | And (a, b) | Or (a, b) | Implies (a, b) | EU (a, b) | AU (a, b) ->
      1 + size a + size b

let propositions f =
  let rec go acc = function
    | True | False -> acc
    | Prop p -> p :: acc
    | Not f | EX f | AX f | EF f | AF f | EG f | AG f -> go acc f
    | And (a, b) | Or (a, b) | Implies (a, b) | EU (a, b) | AU (a, b) ->
        go (go acc a) b
  in
  List.sort_uniq String.compare (go [] f)

(* --- Parser --- *)

type token =
  | TTrue | TFalse | TIdent of string
  | TNot | TAnd | TOr | TImplies
  | TEX | TAX | TEF | TAF | TEG | TAG | TE | TA | TU
  | TLparen | TRparen | TEnd

exception Syntax of string

let tokenize input =
  let n = String.length input in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  let rec go i acc =
    if i >= n then List.rev (TEnd :: acc)
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' -> go (i + 1) (TLparen :: acc)
      | ')' -> go (i + 1) (TRparen :: acc)
      | '!' -> go (i + 1) (TNot :: acc)
      | '&' -> go (i + 1) (TAnd :: acc)
      | '|' -> go (i + 1) (TOr :: acc)
      | '-' ->
          if i + 1 < n && input.[i + 1] = '>' then go (i + 2) (TImplies :: acc)
          else raise (Syntax (Printf.sprintf "stray '-' at %d" i))
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char input.[!j] do
            incr j
          done;
          let word = String.sub input i (!j - i) in
          let tok =
            match word with
            | "true" -> TTrue
            | "false" -> TFalse
            | "EX" -> TEX
            | "AX" -> TAX
            | "EF" -> TEF
            | "AF" -> TAF
            | "EG" -> TEG
            | "AG" -> TAG
            | "E" -> TE
            | "A" -> TA
            | "U" -> TU
            | _ -> TIdent word
          in
          go !j (tok :: acc)
      | c -> raise (Syntax (Printf.sprintf "unexpected '%c' at %d" c i))
  in
  go 0 []

let parse input =
  try
    let tokens = ref (tokenize input) in
    let peek () = match !tokens with [] -> TEnd | t :: _ -> t in
    let advance () =
      match !tokens with [] -> () | _ :: rest -> tokens := rest
    in
    let expect t what =
      if peek () = t then advance () else raise (Syntax ("expected " ^ what))
    in
    let rec implies () =
      let lhs = or_ () in
      if peek () = TImplies then begin
        advance ();
        Implies (lhs, implies ())
      end
      else lhs
    and or_ () =
      let lhs = ref (and_ ()) in
      while peek () = TOr do
        advance ();
        lhs := Or (!lhs, and_ ())
      done;
      !lhs
    and and_ () =
      let lhs = ref (unary ()) in
      while peek () = TAnd do
        advance ();
        lhs := And (!lhs, unary ())
      done;
      !lhs
    and unary () =
      match peek () with
      | TNot -> advance (); Not (unary ())
      | TEX -> advance (); EX (unary ())
      | TAX -> advance (); AX (unary ())
      | TEF -> advance (); EF (unary ())
      | TAF -> advance (); AF (unary ())
      | TEG -> advance (); EG (unary ())
      | TAG -> advance (); AG (unary ())
      | TE -> advance (); quantified_until (fun a b -> EU (a, b))
      | TA -> advance (); quantified_until (fun a b -> AU (a, b))
      | _ -> atom ()
    and quantified_until build =
      expect TLparen "'(' after path quantifier";
      let a = implies () in
      expect TU "'U'";
      let b = implies () in
      expect TRparen "')'";
      build a b
    and atom () =
      match peek () with
      | TTrue -> advance (); True
      | TFalse -> advance (); False
      | TIdent p -> advance (); Prop p
      | TLparen ->
          advance ();
          let f = implies () in
          expect TRparen "')'";
          f
      | _ -> raise (Syntax "expected a formula")
    in
    let f = implies () in
    expect TEnd "end of input";
    Ok f
  with Syntax msg -> Error msg

let parse_exn input =
  match parse input with
  | Ok f -> f
  | Error msg -> invalid_arg ("Ctl.parse_exn: " ^ msg)

(* --- Model checking --- *)

(* Least fixpoint of  b v (a ^ EX Z), swept until stable. *)
let eu (k : Kripke.t) a b =
  let v = Array.copy b in
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to k.nstates - 1 do
      if
        (not v.(q)) && a.(q)
        && List.exists (fun q' -> v.(q')) k.successors.(q)
      then begin
        v.(q) <- true;
        changed := true
      end
    done
  done;
  v

(* Greatest fixpoint of  a ^ EX Z, swept until stable. *)
let eg (k : Kripke.t) a =
  let v = Array.copy a in
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to k.nstates - 1 do
      if v.(q) && not (List.exists (fun q' -> v.(q')) k.successors.(q))
      then begin
        v.(q) <- false;
        changed := true
      end
    done
  done;
  v

let label (k : Kripke.t) ~fair ~eg formula =
  let n = k.nstates in
  let ex set =
    let set = fair set in
    Array.init n (fun q -> List.exists (fun q' -> set.(q')) k.successors.(q))
  in
  let eu a b = eu k a (fair b) in
  let nota = Array.map not in
  let conj a b = Array.init n (fun q -> a.(q) && b.(q)) in
  let rec go = function
    | True -> Array.make n true
    | False -> Array.make n false
    | Prop p -> Array.init n (fun q -> Kripke.holds k q p)
    | Not f -> nota (go f)
    | And (a, b) -> conj (go a) (go b)
    | Or (a, b) ->
        let va = go a and vb = go b in
        Array.init n (fun q -> va.(q) || vb.(q))
    | Implies (a, b) ->
        let va = go a and vb = go b in
        Array.init n (fun q -> (not va.(q)) || vb.(q))
    | EX f -> ex (go f)
    | AX f -> nota (ex (nota (go f)))
    | EF f -> eu (Array.make n true) (go f)
    | AF f -> nota (eg (nota (go f)))
    | EG f -> eg (go f)
    | AG f -> nota (eu (Array.make n true) (nota (go f)))
    | EU (a, b) -> eu (go a) (go b)
    | AU (a, b) ->
        (* A(a U b) = !E(!b U (!a & !b)) & !EG !b *)
        let va = go a and vb = go b in
        let nb = nota vb in
        let bad = eu nb (conj (nota va) nb) in
        let eg_nb = eg nb in
        Array.init n (fun q -> (not bad.(q)) && not eg_nb.(q))
  in
  go formula

let sat k formula = label k ~fair:Fun.id ~eg:(eg k) formula

let holds_at k f q = (sat k f).(q)
let holds (k : Kripke.t) f = holds_at k f k.initial

let witnesses k f =
  let v = sat k f in
  List.filter (fun q -> v.(q)) (List.init (Array.length v) Fun.id)
