(* Schneider's connection (Section 1 of the paper): "enforceable security
   properties correspond to safety properties and security automata ...
   correspond to Büchi automata that accept safe languages."

   A runtime execution monitor can only ever see a finite prefix, so it
   can enforce a policy exactly when the policy is safety: reject as soon
   as the prefix leaves the prefix language of the (closed) property.
   This example compiles the monitor from the safety part B_S of a
   policy's decomposition, steps it with the runtime engine, and shows
   that:

   - for the pure-safety policy "no grant before the first request" the
     monitor catches every violation at a finite point;
   - for request/response (a pure liveness property) the safety part is
     trivial: NO finite prefix is ever rejected — the policy is not
     enforceable by execution monitoring, matching Schneider's theorem.

   Run with:  dune exec examples/security_monitor.exe *)

module Patterns = Sl_buchi.Patterns
module Decompose = Sl_buchi.Decompose
module Alphabet = Sl_word.Alphabet
module Registry = Sl_runtime.Registry
module Engine = Sl_runtime.Engine

(* An execution monitor: the registry compiles the safety part B_S of the
   policy's decomposition to a minimal packed DFA, and the streaming
   engine steps it, one engine trace id per trace. *)
let run_policy policy_name policy traces =
  let r = Registry.create ~alphabet:(Alphabet.size Patterns.ap_alphabet) () in
  let monitor =
    Registry.monitor_of_prop r (Registry.add_buchi r ~name:policy_name policy)
  in
  let e = Engine.create ~monitors:(Registry.monitors r) () in
  List.iteri
    (fun id trace ->
      let n = List.length trace in
      Engine.feed e ~n ~traces:(Array.make n id)
        ~symbols:(Array.of_list trace) ();
      (* The prefix language is prefix-closed: acceptance is lost once, at
         the violation point, and every longer prefix is bad too. *)
      let tripped_at =
        match Engine.verdict e ~trace:id ~monitor with
        | Engine.Violation { position } -> position
        | Engine.Vacuous | Engine.Admissible -> max_int
      in
      Format.printf "@.policy %-32s trace:" policy_name;
      List.iteri
        (fun i symbol ->
          Format.printf " %s%s"
            (Alphabet.label Patterns.ap_alphabet symbol)
            (if i + 1 >= tripped_at then "!" else ""))
        trace;
      Format.printf "@.  verdict: %s@."
        (if tripped_at < max_int then "VIOLATION detected at a finite point"
         else
           "prefix admissible (monitor cannot and need not decide liveness)"))
    traces

let () =
  let quiet = 0 and req = 1 and grant = 2 in
  let traces =
    [ [ quiet; req; grant; quiet ];
      [ grant; quiet; quiet ] (* unsolicited grant *);
      [ req; quiet; quiet; quiet ] (* request never granted *) ]
  in
  Format.printf
    "Execution monitoring demo over the alphabet 2^{req, grant}@.";
  run_policy "no-grant-without-request" Patterns.no_grant_without_request
    traces;
  run_policy "G (req -> F grant)" Patterns.request_response traces;
  Format.printf
    "@.The liveness violation (request never granted) is invisible to \
     both monitors:@.no finite prefix refutes it — exactly why \
     enforceable policies = safety.@.";
  (* Quantify it: the request/response safety part is the universal
     property. *)
  let d = Decompose.decompose Patterns.request_response in
  Format.printf
    "request/response safety part is universal: %b (its monitor never \
     trips)@."
    (Sl_buchi.Lang.is_universal d.Decompose.safety)
