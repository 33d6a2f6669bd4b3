module Lasso = Sl_word.Lasso

let subset a b = Buchi.is_empty (Ops.intersect a (Complement.negate b))

let equal a b = subset a b && subset b a

let is_universal (b : Buchi.t) =
  subset (Buchi.universal ~alphabet:b.alphabet) b

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
