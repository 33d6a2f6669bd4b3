module Formula = Sl_ltl.Formula
module Translate = Sl_ltl.Translate
module Obs = Sl_obs.Obs

(* Registry telemetry (recorded only while Sl_obs is enabled): property
   compilations, hash-cons effectiveness, and per-property compile
   latency. Counters aggregate across all registries of the process. *)
let m_props = Obs.Metrics.counter "registry_props_total"
let m_monitors = Obs.Metrics.counter "registry_monitors_total"
let m_hashcons_hits = Obs.Metrics.counter "registry_hashcons_hits_total"
let h_compile_ns = Obs.Metrics.histogram "registry_compile_ns"

(* Formula-keyed table for the compile memo. The polymorphic hash
   stops after ten nodes, which for the nested [G !(l0 & X (l1 & ...))]
   word properties covers only their first letters; hashing up to 256
   nodes keeps the distinct words of one family in distinct buckets. *)
module Memo = Hashtbl.Make (struct
  type t = Formula.t

  let equal = Formula.equal
  let hash = Hashtbl.hash_param 256 256
end)

type prop = {
  id : int;
  name : string;
  formula : Formula.t option;
  monitor : int;
}

(* Declared before [t] so [t]'s own [props] field wins record-label
   disambiguation below. *)
type stats = {
  props : int;
  distinct_monitors : int;
  hashcons_hits : int;
}

type t = {
  alphabet : int;
  valuation : int -> string -> bool;
  packed : Packed_dfa.t Memo.t;
  mutable props : prop array;
  mutable nprops : int;
  mutable monitors : Packed_dfa.t array;
  mutable nmonitors : int;
  keys : (string, int) Hashtbl.t;
  mutable hits : int;
}

let default_valuation symbol p = String.equal p "a" && symbol = 0

let create ?(alphabet = 2) ?(valuation = default_valuation) () =
  if alphabet <= 0 then invalid_arg "Registry.create: alphabet must be > 0";
  { alphabet; valuation; packed = Memo.create 64; props = [||];
    nprops = 0; monitors = [||]; nmonitors = 0; keys = Hashtbl.create 64;
    hits = 0 }

let alphabet t = t.alphabet
let nprops t = t.nprops
let nmonitors t = t.nmonitors
let hits t = t.hits

let stats t =
  { props = t.nprops; distinct_monitors = t.nmonitors; hashcons_hits = t.hits }

(* The registry's structural identity, for snapshot compatibility: a
   session saved against one registry may only be restored against a
   registry with the same alphabet, the same properties in the same
   order, mapped to monitors with the same canonical BFS keys. The
   compile path is deterministic in all of these, so a recompiled
   registry fingerprints identically.
   Fields are length-prefixed so no concatenation of distinct
   registries can collide textually. *)
let fingerprint t =
  let b = Buffer.create 256 in
  let field s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  field "slc-registry/1";
  field (string_of_int t.alphabet);
  field (string_of_int t.nprops);
  for i = 0 to t.nprops - 1 do
    field t.props.(i).name;
    field (string_of_int t.props.(i).monitor)
  done;
  field (string_of_int t.nmonitors);
  for m = 0 to t.nmonitors - 1 do
    field (Packed_dfa.key t.monitors.(m))
  done;
  Sl_core.Wire.fnv64_hex (Buffer.contents b)
let prop t i = t.props.(i)
let monitor_of_prop t i = t.props.(i).monitor
let monitors t = Array.sub t.monitors 0 t.nmonitors
let props t = Array.to_list (Array.sub t.props 0 t.nprops)

let push_prop t p =
  if t.nprops = Array.length t.props then begin
    let cap = max 8 (2 * t.nprops) in
    let a = Array.make cap p in
    Array.blit t.props 0 a 0 t.nprops;
    t.props <- a
  end;
  t.props.(t.nprops) <- p;
  t.nprops <- t.nprops + 1

let intern_monitor t pd =
  match Hashtbl.find_opt t.keys (Packed_dfa.key pd) with
  | Some id ->
      t.hits <- t.hits + 1;
      Obs.Metrics.incr m_hashcons_hits;
      id
  | None ->
      Obs.Metrics.incr m_monitors;
      if t.nmonitors = Array.length t.monitors then begin
        let cap = max 8 (2 * t.nmonitors) in
        let a = Array.make cap pd in
        Array.blit t.monitors 0 a 0 t.nmonitors;
        t.monitors <- a
      end;
      let id = t.nmonitors in
      t.monitors.(id) <- pd;
      t.nmonitors <- id + 1;
      Hashtbl.add t.keys (Packed_dfa.key pd) id;
      id

(* The translate/decompose/minimize/pack pipeline for one formula,
   memoised per registry: the alphabet and valuation are fixed at
   [create], so the formula alone determines the packed table, and a
   repeated formula is a table lookup instead of a second translation.
   The memoised table still goes through [intern_monitor], so hash-cons
   hits, stats and the fingerprint are those of compiling it again. *)
let pack_formula t f () =
  match Memo.find_opt t.packed f with
  | Some pd -> pd
  | None ->
      let pd =
        Packed_dfa.of_buchi
          (Translate.translate ~alphabet:t.alphabet ~valuation:t.valuation f)
      in
      Memo.add t.packed f pd;
      pd

(* Compile one property under a [registry.compile] span, recording the
   compile latency and whether the packed table was a hash-cons hit. *)
let compile_prop t ~name ~formula ~pack =
  let sp = Obs.Span.enter "registry.compile" in
  let t0 = if Obs.is_enabled () then Obs.Clock.now_us () else 0. in
  match
    let pd = pack () in
    let hits0 = t.hits in
    let monitor = intern_monitor t pd in
    (pd, monitor, t.hits > hits0)
  with
  | exception e ->
      Obs.Span.exit sp;
      raise e
  | pd, monitor, hit ->
      if Obs.is_enabled () then begin
        Obs.Metrics.observe h_compile_ns
          (int_of_float ((Obs.Clock.now_us () -. t0) *. 1e3));
        Obs.Span.attr sp "monitor" monitor;
        Obs.Span.attr sp "states" pd.Packed_dfa.nstates;
        Obs.Span.attr sp "hashcons_hit" (if hit then 1 else 0)
      end;
      Obs.Metrics.incr m_props;
      Obs.Span.exit sp;
      let id = t.nprops in
      push_prop t { id; name; formula; monitor };
      id

let add_buchi t ~name b =
  compile_prop t ~name ~formula:None ~pack:(fun () -> Packed_dfa.of_buchi b)

let add_formula t ?name f =
  let name = match name with Some n -> n | None -> Formula.to_string f in
  compile_prop t ~name ~formula:(Some f) ~pack:(pack_formula t f)

let compile_all t named =
  List.map (fun (name, f) -> add_formula t ?name f) named

(* Property-file loading. One LTL formula per line; blank lines and
   '#'-comments are skipped. A malformed line, or one whose closure is
   past the tableau's cap (which [Translate] would refuse with
   [Invalid_argument]), is reported with its file/line position and
   skipped before the batch compiles — one bad property must not abort
   the whole monitoring run (the CLI turns a non-empty error list into a
   nonzero exit code). *)
let load_lines t ?(path = "<props>") lines =
  let errors = ref [] in
  let items = ref [] in
  let skip i msg =
    let e = Printf.sprintf "%s:%d: %s (line skipped)" path (i + 1) msg in
    errors := e :: !errors
  in
  List.iteri
    (fun i raw ->
      let s = String.trim raw in
      if String.length s > 0 && s.[0] <> '#' then
        match Formula.parse s with
        | Ok f when Translate.closure_size f > Translate.max_closure ->
            skip i "formula closure too large"
        | Ok f -> items := (Some s, f) :: !items
        | Error e -> skip i ("parse error: " ^ e))
    lines;
  ignore (compile_all t (List.rev !items));
  List.rev !errors

(* A read can fail after a successful open — [open_in] accepts a
   directory, and reading it raises [Sys_error "Is a directory"] — so
   the whole read sits inside the handler, and nothing is compiled
   unless every line was read. *)
let load_file t path =
  match if path = "-" then stdin else open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> if ic != stdin then close_in_noerr ic)
          (fun () -> In_channel.input_lines ic)
      with
      | exception Sys_error msg -> Error (path ^ ": " ^ msg)
      | lines -> Ok (load_lines t ~path lines))
