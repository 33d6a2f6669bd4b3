(** Hot registry reload without dropping in-flight traces.

    SIGHUP rebuilds the property registry off to the side (warm-started
    from the compile cache like any registry build) and then carries the
    running session over to it:

    - {b identical registry} (equal {!Sl_runtime.Registry.fingerprint}):
      the session round-trips through its own [sl-artifact/1] snapshot —
      exact continuation, byte-identical to not reloading at all.
    - {b changed alphabet}: refused. A trace's past events have no
      meaning over a different alphabet, so its monitor states cannot be
      carried; the daemon keeps serving the old registry.
    - {b changed properties, same alphabet}: per-monitor carry-over.
      Compiled monitors are identified by their canonical
      {!Sl_runtime.Packed_dfa.key} (the same identity the registry uses
      to hash-cons); a new monitor whose key matches an old one inherits
      each trace's exact state — current DFA state, trip position,
      liveness — because language-equal monitors have identical packed
      tables. Monitors new to the registry start fresh at the start
      state on every existing trace (their verdict history begins at the
      reload; events before it are unjudged, which is the honest
      semantics for a property that did not exist then). Counters are
      recomputed from the carried states; the trace-id interner carries
      over wholesale. *)

val carry_over :
  old_session:Sl_runtime.Session.t ->
  registry:Sl_runtime.Registry.t ->
  unit ->
  (Sl_runtime.Session.t * int, string) result
(** Build a session over [registry] continuing [old_session]'s run.
    Returns the new session and the number of new-registry monitors
    that inherited state ([= nmonitors] on the identical path).
    [Error] refuses the
    reload (alphabet change, or a corrupt round-trip) — the old session
    is never touched either way. *)

val from_props_file :
  old_session:Sl_runtime.Session.t ->
  props_file:string ->
  unit ->
  (Sl_runtime.Session.t * int * string list, string) result
(** The SIGHUP entry point: re-read [props_file] into a fresh registry
    (same alphabet and compile cache defaults as startup) and
    {!carry_over}. Returns the session, carried-monitor count, and the
    per-line parse errors of the property file (skipped lines, reload
    not refused). A file with no well-formed properties refuses the
    reload. *)
