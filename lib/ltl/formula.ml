type t =
  | True
  | False
  | Prop of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Next of t
  | Until of t * t
  | Release of t * t
  | Eventually of t
  | Always of t

let prop p = Prop p
let neg f = Not f
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let ( ==> ) a b = Implies (a, b)
let x f = Next f
let f f' = Eventually f'
let g f' = Always f'
let u a b = Until (a, b)
let r a b = Release (a, b)

let equal = ( = )
let compare = Stdlib.compare

let rec size = function
  | True | False | Prop _ -> 1
  | Not f | Next f | Eventually f | Always f -> 1 + size f
  | And (a, b) | Or (a, b) | Implies (a, b) | Until (a, b) | Release (a, b)
    -> 1 + size a + size b

let propositions f =
  let rec go acc = function
    | True | False -> acc
    | Prop p -> p :: acc
    | Not f | Next f | Eventually f | Always f -> go acc f
    | And (a, b) | Or (a, b) | Implies (a, b) | Until (a, b)
    | Release (a, b) -> go (go acc a) b
  in
  List.sort_uniq String.compare (go [] f)

let subformulas f =
  let rec go acc f =
    let acc = if List.mem f acc then acc else f :: acc in
    match f with
    | True | False | Prop _ -> acc
    | Not g | Next g | Eventually g | Always g -> go acc g
    | And (a, b) | Or (a, b) | Implies (a, b) | Until (a, b)
    | Release (a, b) -> go (go acc a) b
  in
  List.rev (go [] f)

type core =
  | CTrue
  | CProp of string
  | CNot of core
  | CAnd of core * core
  | CNext of core
  | CUntil of core * core

(* Smart negation collapses double negations so that the closure stays
   small and "¬ψ ∈ B" can be represented as "ψ ∉ B". *)
let cnot = function CNot f -> f | f -> CNot f
let cand a b = CAnd (a, b)
let cor a b = cnot (CAnd (cnot a, cnot b))

let rec to_core = function
  | True -> CTrue
  | False -> CNot CTrue
  | Prop p -> CProp p
  | Not f -> cnot (to_core f)
  | And (a, b) -> cand (to_core a) (to_core b)
  | Or (a, b) -> cor (to_core a) (to_core b)
  | Implies (a, b) -> cor (cnot (to_core a)) (to_core b)
  | Next f -> CNext (to_core f)
  | Until (a, b) -> CUntil (to_core a, to_core b)
  | Release (a, b) -> cnot (CUntil (cnot (to_core a), cnot (to_core b)))
  | Eventually f -> CUntil (CTrue, to_core f)
  | Always f -> cnot (CUntil (CTrue, cnot (to_core f)))

let core_equal = ( = )

let core_subformulas f =
  let rec go acc f =
    let acc = if List.mem f acc then acc else f :: acc in
    match f with
    | CTrue | CProp _ -> acc
    | CNot g | CNext g -> go acc g
    | CAnd (a, b) | CUntil (a, b) -> go (go acc a) b
  in
  List.rev (go [] f)

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Prop p -> Format.pp_print_string fmt p
  | Not f -> Format.fprintf fmt "!%a" pp_atom f
  | And (a, b) -> Format.fprintf fmt "%a & %a" pp_atom a pp_atom b
  | Or (a, b) -> Format.fprintf fmt "%a | %a" pp_atom a pp_atom b
  | Implies (a, b) -> Format.fprintf fmt "%a -> %a" pp_atom a pp_atom b
  | Next f -> Format.fprintf fmt "X %a" pp_atom f
  | Until (a, b) -> Format.fprintf fmt "%a U %a" pp_atom a pp_atom b
  | Release (a, b) -> Format.fprintf fmt "%a R %a" pp_atom a pp_atom b
  | Eventually f -> Format.fprintf fmt "F %a" pp_atom f
  | Always f -> Format.fprintf fmt "G %a" pp_atom f

and pp_atom fmt f =
  match f with
  | True | False | Prop _ -> pp fmt f
  | Not _ | Next _ | Eventually _ | Always _ -> pp fmt f
  | _ -> Format.fprintf fmt "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f

(* --- Parser: hand-written recursive descent. --- *)

type token =
  | TTrue | TFalse | TIdent of string
  | TNot | TAnd | TOr | TImplies
  | TNext | TEventually | TAlways | TUntil | TRelease
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
            | "X" -> TNext
            | "F" -> TEventually
            | "G" -> TAlways
            | "U" -> TUntil
            | "R" -> TRelease
            | _ -> TIdent word
          in
          go !j (tok :: acc)
      | c -> raise (Syntax (Printf.sprintf "unexpected '%c' at %d" c i))
  in
  go 0 []

(* Grammar, loosest binding first:
     implies := or ('->' implies)?
     or      := and ('|' and)*
     and     := until ('&' until)*
     until   := unary (('U' | 'R') until)?
     unary   := ('!' | 'X' | 'F' | 'G') unary | atom
     atom    := 'true' | 'false' | ident | '(' implies ')'         *)
let parse input =
  try
    let tokens = ref (tokenize input) in
    let peek () = match !tokens with [] -> TEnd | t :: _ -> t in
    let advance () =
      match !tokens with [] -> () | _ :: rest -> tokens := rest
    in
    let expect t what =
      if peek () = t then advance ()
      else raise (Syntax ("expected " ^ what))
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
      let lhs = ref (until ()) in
      while peek () = TAnd do
        advance ();
        lhs := And (!lhs, until ())
      done;
      !lhs
    and until () =
      let lhs = unary () in
      match peek () with
      | TUntil ->
          advance ();
          Until (lhs, until ())
      | TRelease ->
          advance ();
          Release (lhs, until ())
      | _ -> lhs
    and unary () =
      match peek () with
      | TNot -> advance (); Not (unary ())
      | TNext -> advance (); Next (unary ())
      | TEventually -> advance (); Eventually (unary ())
      | TAlways -> advance (); Always (unary ())
      | _ -> atom ()
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
  | Error msg -> invalid_arg ("Formula.parse_exn: " ^ msg)
