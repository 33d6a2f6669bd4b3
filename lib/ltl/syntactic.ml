type nnf =
  | Lit of string * bool
  | NTrue
  | NFalse
  | NAnd of nnf * nnf
  | NOr of nnf * nnf
  | NNext of nnf
  | NUntil of nnf * nnf
  | NRelease of nnf * nnf

(* Two mutually recursive passes: positive and negated translation. *)
let rec pos (f : Formula.t) =
  match f with
  | True -> NTrue
  | False -> NFalse
  | Prop p -> Lit (p, true)
  | Not g -> neg g
  | And (a, b) -> NAnd (pos a, pos b)
  | Or (a, b) -> NOr (pos a, pos b)
  | Implies (a, b) -> NOr (neg a, pos b)
  | Next g -> NNext (pos g)
  | Until (a, b) -> NUntil (pos a, pos b)
  | Release (a, b) -> NRelease (pos a, pos b)
  | Eventually g -> NUntil (NTrue, pos g)
  | Always g -> NRelease (NFalse, pos g)

and neg (f : Formula.t) =
  match f with
  | True -> NFalse
  | False -> NTrue
  | Prop p -> Lit (p, false)
  | Not g -> pos g
  | And (a, b) -> NOr (neg a, neg b)
  | Or (a, b) -> NAnd (neg a, neg b)
  | Implies (a, b) -> NAnd (pos a, neg b)
  | Next g -> NNext (neg g)
  | Until (a, b) -> NRelease (neg a, neg b)
  | Release (a, b) -> NUntil (neg a, neg b)
  | Eventually g -> NRelease (NFalse, neg g)
  | Always g -> NUntil (NTrue, neg g)

let nnf = pos

let rec of_nnf = function
  | Lit (p, true) -> Formula.Prop p
  | Lit (p, false) -> Formula.Not (Formula.Prop p)
  | NTrue -> Formula.True
  | NFalse -> Formula.False
  | NAnd (a, b) -> Formula.And (of_nnf a, of_nnf b)
  | NOr (a, b) -> Formula.Or (of_nnf a, of_nnf b)
  | NNext a -> Formula.Next (of_nnf a)
  | NUntil (a, b) -> Formula.Until (of_nnf a, of_nnf b)
  | NRelease (a, b) -> Formula.Release (of_nnf a, of_nnf b)

let rec until_free = function
  | Lit _ | NTrue | NFalse -> true
  | NNext a -> until_free a
  | NAnd (a, b) | NOr (a, b) | NRelease (a, b) ->
      until_free a && until_free b
  | NUntil _ -> false

let rec release_free = function
  | Lit _ | NTrue | NFalse -> true
  | NNext a -> release_free a
  | NAnd (a, b) | NOr (a, b) | NUntil (a, b) ->
      release_free a && release_free b
  | NRelease _ -> false

let is_syntactically_safe f = until_free (nnf f)
let is_syntactically_cosafe f = release_free (nnf f)
