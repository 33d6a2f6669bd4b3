(** Hot registry reload without dropping in-flight traces.

    SIGHUP rebuilds the property registry off to the side and then
    carries the running session over to it:

    - {b changed alphabet}: refused. A trace's past events have no
      meaning over a different alphabet, so its monitor states cannot be
      carried; the daemon keeps serving the old registry.
    - {b same alphabet}: per-monitor carry-over. Compiled monitors are
      identified by their canonical {!Sl_runtime.Packed_dfa.key} (the
      same identity the registry uses to hash-cons); a new monitor
      whose key matches an old one inherits each trace's exact state —
      current DFA state, trip position, liveness — because
      language-equal monitors have identical packed tables. An
      identical registry (equal {!Sl_runtime.Registry.fingerprint})
      carries every monitor, which is exact continuation,
      byte-identical to not reloading at all. Monitors new to the
      registry start fresh at the start state on every existing trace
      (their verdict history begins at the reload; events before it are
      unjudged, which is the honest semantics for a property that did
      not exist then). The new session is built by
      {!Sl_runtime.Session.restore}, so its counters are the carried
      states' census; the trace-id interner is handed over as it is,
      so connections keep scanning into it across the reload. *)

val carry_over :
  old_session:Sl_runtime.Session.t ->
  registry:Sl_runtime.Registry.t ->
  unit ->
  (Sl_runtime.Session.t * int, string) result
(** Build a session over [registry] continuing [old_session]'s run.
    Returns the new session and the number of new-registry monitors
    that inherited state ([= nmonitors] for an identical registry).
    [Error] refuses the reload (alphabet change, or a carried trace
    that fails {!Sl_runtime.Engine.restore}'s validation). The new
    session shares the old one's interner; the old session is never
    modified either way. *)

val from_props_file :
  old_session:Sl_runtime.Session.t ->
  props_file:string ->
  unit ->
  (Sl_runtime.Session.t * int * string list, string) result
(** The SIGHUP entry point: re-read [props_file] into a fresh registry
    (same alphabet as startup) and
    {!carry_over}. Returns the session, carried-monitor count, and the
    per-line parse errors of the property file (skipped lines, reload
    not refused). A file that cannot be read (see
    {!Sl_runtime.Registry.load_file}) or has no well-formed properties
    refuses the reload. *)
