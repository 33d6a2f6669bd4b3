module Wire = Sl_core.Wire
module Obs = Sl_obs.Obs

(* Session telemetry: snapshot/restore are rare, coarse operations, so
   they get spans plus whole-operation counters rather than anything on
   a hot path. *)
let m_snapshots = Obs.Metrics.counter "session_snapshots_total"
let m_restores = Obs.Metrics.counter "session_restores_total"
let h_snapshot_bytes = Obs.Metrics.histogram "session_snapshot_bytes"

(* A session owns everything mutable about one monitoring run: the
   engine's per-trace packed state and counters, and the ingest
   interner that maps external trace ids to the engine's dense ints.
   The registry is referenced, not owned — it is immutable once
   compiled, and the snapshot stores only its fingerprint. *)
type t = {
  registry : Registry.t;
  engine : Engine.t;
  ingest : Ingest.t;
}

type restore_error =
  | Fingerprint_mismatch of { snapshot : string; registry : string }
  | Corrupt of string

let create ~registry () =
  { registry;
    engine = Engine.create ~monitors:(Registry.monitors registry) ();
    ingest = Ingest.create () }

let restore ~registry ~ingest traces =
  { registry;
    engine = Engine.restore ~monitors:(Registry.monitors registry) traces;
    ingest }

(* The interner of a snapshot's name table: [names.(i)] gets id [i]. *)
let interner names =
  let ingest = Ingest.create () in
  Array.iteri
    (fun i name ->
      if Ingest.intern ingest name <> i then
        invalid_arg
          (Printf.sprintf "interner table not in first-seen order at %d" i))
    names;
  ingest

let registry t = t.registry
let engine t = t.engine
let ingest t = t.ingest

(* Payload layout (kind_session):
     fingerprint        string    registry structural identity
     nnames             int       interner table size
     names              string*   trace ids in first-seen order
     events             int       engine-global counters
     tripped            int
     retired_admissible int
     ntraces            int       engine trace-table extent
     per trace id:      bool + (int, int array, int array, int array)
                                  present; events, states, live list
                                  (ascending), trip positions
   Re-interning [names] in order into a fresh interner reproduces the
   id assignment, so dense trace ids survive the round trip without
   being written per trace. *)
let to_artifact t =
  let w = Wire.writer () in
  Wire.put_string w (Registry.fingerprint t.registry);
  let names = Ingest.names t.ingest in
  Wire.put_int w (Array.length names);
  Array.iter (Wire.put_string w) names;
  Wire.put_int w (Engine.events t.engine);
  Wire.put_int w (Engine.tripped t.engine);
  Wire.put_int w (Engine.retired_admissible t.engine);
  let ntr = Engine.ntraces t.engine in
  Wire.put_int w ntr;
  for id = 0 to ntr - 1 do
    match Engine.export_trace t.engine id with
    | None -> Wire.put_bool w false
    | Some ts ->
        Wire.put_bool w true;
        Wire.put_int w ts.Engine.ts_events;
        Wire.put_int_array w ts.Engine.ts_states;
        Wire.put_int_array w ts.Engine.ts_live;
        Wire.put_int_array w ts.Engine.ts_tripped_at
  done;
  Wire.to_artifact ~kind:Wire.kind_session w

let of_artifact ~registry blob =
  match
    let r = Wire.of_artifact_kind ~kind:Wire.kind_session blob in
    let snap_fp = Wire.get_string r in
    let reg_fp = Registry.fingerprint registry in
    if not (String.equal snap_fp reg_fp) then
      Error (Fingerprint_mismatch { snapshot = snap_fp; registry = reg_fp })
    else begin
      let nnames = Wire.get_int r in
      (* Each name costs at least its 8-byte length prefix. *)
      if nnames < 0 || nnames > Wire.remaining r / 8 then
        raise (Wire.Corrupt (Printf.sprintf "bad interner size %d" nnames));
      let names = Array.init nnames (fun _ -> Wire.get_string r) in
      let events = Wire.get_int r in
      let tripped = Wire.get_int r in
      let retired = Wire.get_int r in
      let ntr = Wire.get_int r in
      (* Engine trace ids only ever come from the interner. *)
      if ntr < 0 || ntr > nnames then
        raise (Wire.Corrupt (Printf.sprintf "bad trace count %d" ntr));
      let traces =
        Array.init ntr (fun _ ->
            if not (Wire.get_bool r) then None
            else
              let ts_events = Wire.get_int r in
              let ts_states = Wire.get_int_array r in
              let ts_live = Wire.get_int_array r in
              let ts_tripped_at = Wire.get_int_array r in
              Some { Engine.ts_events; ts_states; ts_live; ts_tripped_at })
      in
      Wire.expect_end r;
      let t = restore ~registry ~ingest:(interner names) traces in
      (* The stored counters are the census of the stored traces: a
         counter that is not was forged or corrupted. *)
      let check what stored derived =
        if stored <> derived then
          raise
            (Wire.Corrupt
               (Printf.sprintf "%s counter %d disagrees with the traces' %d"
                  what stored derived))
      in
      check "event" events (Engine.events t.engine);
      check "tripped" tripped (Engine.tripped t.engine);
      check "retired_admissible" retired (Engine.retired_admissible t.engine);
      Ok t
    end
  with
  | result -> result
  | exception Wire.Corrupt msg -> Error (Corrupt msg)
  | exception Invalid_argument msg -> Error (Corrupt msg)

(* Snapshot to disk through {!Wire.publish} (temp file, then
   rename): a crash mid-write leaves at worst a stray temp
   file, never a torn snapshot at [path]. *)
let save t ~path =
  let sp = Obs.Span.enter "session.snapshot" in
  match
    let blob = to_artifact t in
    Wire.publish ~path blob;
    String.length blob
  with
  | exception e ->
      Obs.Span.exit sp;
      raise e
  | bytes ->
      Obs.Metrics.incr m_snapshots;
      Obs.Metrics.observe h_snapshot_bytes bytes;
      Obs.Span.attr sp "bytes" bytes;
      Obs.Span.attr sp "traces" (Engine.ntraces t.engine);
      Obs.Span.attr sp "events" (Engine.events t.engine);
      Obs.Span.exit sp

let load ~registry ~path () =
  let sp = Obs.Span.enter "session.restore" in
  let result =
    match Wire.read ~path with
    | Error (`Open msg | `Read msg) ->
        Error (Corrupt (Printf.sprintf "cannot read snapshot: %s" msg))
    | Error `Truncated -> Error (Corrupt "snapshot truncated while reading")
    | Ok blob -> of_artifact ~registry blob
  in
  (match result with
  | Ok t ->
      Obs.Metrics.incr m_restores;
      Obs.Span.attr sp "traces" (Engine.ntraces t.engine);
      Obs.Span.attr sp "events" (Engine.events t.engine)
  | Error _ -> ());
  Obs.Span.exit sp;
  result

let restore_error_to_string = function
  | Fingerprint_mismatch { snapshot; registry } ->
      Printf.sprintf
        "snapshot was taken against a different registry (snapshot %s, \
         registry %s)"
        snapshot registry
  | Corrupt msg -> Printf.sprintf "corrupt snapshot: %s" msg
