module Lasso = Sl_word.Lasso

let negate ?max_states (b : Buchi.t) =
  if Buchi.is_empty b then Buchi.universal ~alphabet:b.alphabet
  else if Closure.is_closure_shaped b then Complement.complement_closed b
  else Complement.rank_based ?max_states b

let subset ?max_states a b =
  Buchi.is_empty (Ops.intersect a (negate ?max_states b))

let equal ?max_states a b = subset ?max_states a b && subset ?max_states b a

let is_universal ?max_states (b : Buchi.t) =
  subset ?max_states (Buchi.universal ~alphabet:b.alphabet) b

let separating_lasso ~max_prefix ~max_cycle (a : Buchi.t) (b : Buchi.t) =
  List.find_opt
    (fun w -> Buchi.accepts_lasso a w <> Buchi.accepts_lasso b w)
    (Lasso.enumerate ~alphabet:a.alphabet ~max_prefix ~max_cycle)

let sampled_equal ~max_prefix ~max_cycle a b =
  separating_lasso ~max_prefix ~max_cycle a b = None

let sampled_subset ~max_prefix ~max_cycle (a : Buchi.t) (b : Buchi.t) =
  List.for_all
    (fun w -> (not (Buchi.accepts_lasso a w)) || Buchi.accepts_lasso b w)
    (Lasso.enumerate ~alphabet:a.alphabet ~max_prefix ~max_cycle)
