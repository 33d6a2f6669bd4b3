(* The seed's one-trace runtime: the subset DFA that [Sl_buchi.Monitor]
   compiles, stepped one symbol at a time with the prefix seen so far.
   [Sl_runtime.Engine] now steps the minimized, packed table as part of
   a product; this is the reference it is pinned against
   (test/test_runtime.ml). The stepping loop is kept verbatim. *)

module Dfa = Sl_nfa.Dfa
module Monitor = Sl_buchi.Monitor

type verdict =
  | Admissible
  | Violation of int list
      (** the shortest bad prefix seen, ending at the first offending
          symbol; irrevocable *)

type t = {
  dfa : Dfa.t;
  mutable state : int;
  mutable seen : int list;  (** reversed prefix *)
  mutable tripped : int list option;  (** the bad prefix once found *)
}

let create b =
  let m = Monitor.create b in
  let dfa = Monitor.dfa m in
  let tripped = if Monitor.empty_property m then Some [] else None in
  { dfa; state = dfa.Dfa.start; seen = []; tripped }

let verdict m =
  match m.tripped with
  | Some bad -> Violation bad
  | None -> Admissible

let step m symbol =
  (match m.tripped with
  | Some _ -> ()
  | None ->
      m.seen <- symbol :: m.seen;
      m.state <- Dfa.step m.dfa m.state symbol;
      (* The prefix language is prefix-closed, so acceptance is lost at
         most once — at the end of the shortest bad prefix. *)
      if not m.dfa.Dfa.accepting.(m.state) then
        m.tripped <- Some (List.rev m.seen));
  verdict m
