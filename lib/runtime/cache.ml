module Formula = Sl_ltl.Formula
module Wire = Sl_core.Wire
module Obs = Sl_obs.Obs

(* Cache telemetry. The Obs counters surface in the Prometheus
   exposition (only recording while Sl_obs is enabled, like every other
   metric); the Atomics beside them are the always-on API counters that
   tests and benches read without turning observability on. Both are
   process-wide across all cache handles, and atomic because
   [Registry.compile_all] probes and stores from pool worker domains. *)
let m_hits = Obs.Metrics.counter "cache_hits_total"
let m_misses = Obs.Metrics.counter "cache_misses_total"
let m_stores = Obs.Metrics.counter "cache_stores_total"

let a_hits = Atomic.make 0
let a_misses = Atomic.make 0
let a_stores = Atomic.make 0

let hit_count () = Atomic.get a_hits
let miss_count () = Atomic.get a_misses
let store_count () = Atomic.get a_stores

let reset_counters () =
  Atomic.set a_hits 0;
  Atomic.set a_misses 0;
  Atomic.set a_stores 0

type t = { dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let create ~dir =
  mkdir_p dir;
  { dir }

let dir t = t.dir

(* Process default, [SLC_JOBS]-style: seeded from [SLC_CACHE] at
   startup, overridable by the CLI's [--cache]. [None] (the out-of-box
   state) disables caching entirely. *)
let default_dir =
  Atomic.make
    (match Sys.getenv_opt "SLC_CACHE" with
    | Some d when String.trim d <> "" -> Some (String.trim d)
    | _ -> None)

let set_default_dir d = Atomic.set default_dir d
let default () = Option.map (fun dir -> create ~dir) (Atomic.get default_dir)

(* The probe key is the property's *source* identity — everything the
   compile pipeline's output depends on: alphabet, the formula
   (normalized through its printer, so parses of equivalent
   concrete syntax agree), and the valuation's behaviour on exactly the
   propositions the formula mentions across exactly the alphabet's
   symbols. Valuations are functions and cannot be compared, but only
   their restriction to (propositions x symbols) can influence
   translation, so that bit table is a sound fingerprint. Fields are
   length-prefixed: no formula text can fake another key. *)
let probe_key ~alphabet ~valuation f =
  let buf = Buffer.create 128 in
  let field s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  field "slc-probe/1";
  field (string_of_int alphabet);
  field (Formula.to_string f);
  List.iter
    (fun p ->
      field p;
      for s = 0 to alphabet - 1 do
        Buffer.add_char buf (if valuation s p then '1' else '0')
      done;
      Buffer.add_char buf '|')
    (Formula.propositions f);
  Buffer.contents buf

let path t key = Filename.concat t.dir ("sl-" ^ Wire.fnv64_hex key ^ ".mon")

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception (Sys_error _ | End_of_file) -> None)

(* A cache entry is a [kind_packed_dfa] artifact whose payload leads
   with the probe key that produced it. File names are a 64-bit hash of
   that key, so the embedded copy is what rules out hash collisions
   (and mis-filed entries): key mismatch = miss, like every other
   defect. All decode failures funnel through [Wire.Corrupt] — a
   corrupt cache can cost a recompile, never an error. *)
let find t ~key =
  let result =
    match read_file (path t key) with
    | None -> None
    | Some s -> (
        match
          let r = Wire.of_artifact_kind ~kind:Wire.kind_packed_dfa s in
          let stored = Wire.get_string r in
          if not (String.equal stored key) then
            raise (Wire.Corrupt "probe key mismatch");
          let pd = Packed_dfa.decode r in
          Wire.expect_end r;
          pd
        with
        | pd -> Some pd
        | exception Wire.Corrupt _ -> None)
  in
  (match result with
  | Some _ ->
      Atomic.incr a_hits;
      Obs.Metrics.incr m_hits
  | None ->
      Atomic.incr a_misses;
      Obs.Metrics.incr m_misses);
  result

(* Atomic publish ({!Wire.publish}): concurrent readers (and concurrent
   writers, racing on the same property from [-j] workers or separate
   processes) see either the old complete file or the new complete
   file, never a torn one. Renaming over an
   existing entry also heals anything stale or corrupt. Storing is
   best-effort: a full disk or read-only directory degrades to an
   always-cold cache, it does not fail the compile. *)
let store t ~key pd =
  let w = Wire.writer () in
  Wire.put_string w key;
  Packed_dfa.encode w pd;
  let blob = Wire.to_artifact ~kind:Wire.kind_packed_dfa w in
  match Wire.publish ~path:(path t key) blob with
  | () ->
      Atomic.incr a_stores;
      Obs.Metrics.incr m_stores
  | exception Sys_error _ -> ()
