module Nfa = Sl_nfa.Nfa

type t = {
  dfa : Sl_nfa.Dfa.t;
  empty_property : bool;  (** degenerate: even the empty prefix is bad *)
}

let create b =
  let safety = Closure.bcl b in
  let dfa = Nfa.determinize (Buchi.to_prefix_nfa safety) in
  (* Degenerate corner: the empty property has no admissible prefix at
     all — even the empty one is bad. *)
  { dfa; empty_property = Buchi.is_empty safety }

let dfa m = m.dfa
let empty_property m = m.empty_property
