(* slc — safety/liveness classifier.

   Command-line front end for the library: classify and decompose LTL
   properties (Section 2 of the paper), regenerate the example tables
   (Sections 2.3 and 4.3), run the exhaustive lattice theorem checks
   (Section 3), and export the paper's Hasse diagrams. *)

open Cmdliner

module Formula = Sl_ltl.Formula
module Examples = Sl_ltl.Examples
module Translate = Sl_ltl.Translate
module Buchi = Sl_buchi.Buchi
module Decompose = Sl_buchi.Decompose
module Lattice = Sl_lattice.Lattice
module Named = Sl_lattice.Named
module Closure = Sl_lattice.Closure
module Finite_check = Sl_core.Finite_check

let formula_arg =
  let doc = "LTL formula over the proposition 'a' (e.g. \"a & F !a\")." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let parse_formula s =
  match Formula.parse s with
  | Ok f -> Ok f
  | Error e -> Error (`Msg ("parse error: " ^ e))

(* Observability plumbing, shared by every subcommand but top and
   version: [--metrics DEST]
   turns the Sl_obs kernel on for the run and writes the Prometheus text
   exposition after the subcommand's own output; [--trace-out FILE]
   dumps the buffered spans as trace-event JSON lines. With neither flag
   the kernel stays dark and subcommands behave exactly as before. *)
module Obs = Sl_obs.Obs
module Pool = Sl_core.Pool

let jobs_arg =
  let doc =
    "Registry compilation fans out over $(docv) domains, at most the \
     core count. Output is byte-identical at every value. Defaults to \
     the $(b,SLC_JOBS) environment variable, else 1."
  in
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Warm-start compile cache: probe $(docv) for previously compiled \
     monitors before translating a property, and store fresh compiles \
     there as versioned sl-artifact blobs (created if missing; corrupt \
     or stale entries are recompiled and healed, never an error). \
     Defaults to the $(b,SLC_CACHE) environment variable, else no \
     caching."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let metrics_arg =
  let doc =
    "Enable the observability kernel for this run and, after the \
     subcommand finishes, write every collected metric in the Prometheus \
     text exposition format to $(docv) ('-' for stdout)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"DEST" ~doc)

let trace_out_arg =
  let doc =
    "Enable the observability kernel for this run and write the collected \
     spans as trace-event JSON lines (one chrome://tracing complete event \
     per line) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let dump_metrics dest =
  match dest with
  | "-" -> print_string (Obs.Metrics.to_prometheus ()); flush stdout
  | file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Obs.Metrics.to_prometheus ()))

let dump_trace file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Obs.Span.write_jsonl oc)

let with_obs metrics trace_out run =
  match (metrics, trace_out) with
  | None, None -> run ()
  | _ ->
      Obs.enable ();
      let code =
        match run () with
        | code -> code
        | exception e ->
            Obs.disable ();
            raise e
      in
      flush stdout;
      Option.iter dump_metrics metrics;
      Option.iter dump_trace trace_out;
      Obs.disable ();
      code

(* Lift a [unit -> int] subcommand term into one that honours
   [--metrics]/[--trace-out]: the run is wrapped in the observability
   kernel. *)
let obs_term term =
  Term.(const with_obs $ metrics_arg $ trace_out_arg $ term)

(* The subcommands that compile a registry (monitor, pack, serve) also
   take [-j], the process-wide default pool width, and [--cache], the
   default compile-cache directory; both are set before the run. *)
let compile_term term =
  let with_compile jobs cache metrics trace_out run =
    if jobs < 1 then begin
      Format.eprintf "slc: --jobs must be >= 1@.";
      124
    end
    else begin
      Pool.set_default_jobs jobs;
      (* [--cache DIR] overrides the [SLC_CACHE]-seeded process default. *)
      Option.iter (fun d -> Sl_runtime.Cache.set_default_dir (Some d)) cache;
      with_obs metrics trace_out run
    end
  in
  Term.(
    const with_compile $ jobs_arg $ cache_arg $ metrics_arg $ trace_out_arg
    $ term)

let classify_cmd =
  let run s =
    match parse_formula s with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok f ->
        let cls = Examples.classify f in
        Format.printf "%s: %s@." (Formula.to_string f)
          (Decompose.classification_to_string cls);
        0
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify an LTL property as safety/liveness")
    (obs_term Term.(const (fun s () -> run s) $ formula_arg))

let decompose_cmd =
  let run s =
    match parse_formula s with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok f ->
        let b = Examples.automaton f in
        let d = Decompose.decompose b in
        Format.printf "property: %s@." (Formula.to_string f);
        Format.printf "@.B (translated): %s@.%a@." (Buchi.size_info b)
          Buchi.pp b;
        Format.printf "@.B_S = bcl B (safety): %s@.%a@."
          (Buchi.size_info d.Decompose.safety) Buchi.pp d.Decompose.safety;
        Format.printf "@.B_L = B ∪ ¬B_S (liveness): %s@.%a@."
          (Buchi.size_info d.Decompose.liveness)
          Buchi.pp d.Decompose.liveness;
        (match Decompose.verify_exact d with
        | [] -> Format.printf "@.L(B) = L(B_S) ∩ L(B_L): verified@."; 0
        | fails ->
            List.iter
              (fun (c, diag) -> Format.printf "FAILED %s (%s)@." c diag)
              fails;
            1)
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Decompose an LTL property into safety and liveness automata")
    (obs_term Term.(const (fun s () -> run s) $ formula_arg))

let stats_cmd =
  let run s =
    match parse_formula s with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok f ->
        let b = Examples.automaton f in
        let g = Buchi.graph b in
        let r = Sl_core.Digraph.sccs g in
        let nontrivial =
          Array.fold_left
            (fun acc nt -> if nt then acc + 1 else acc)
            0 r.Sl_core.Digraph.nontrivial
        in
        let reach = Buchi.reachable b in
        let live = Buchi.live_states b in
        let count a = Array.fold_left (fun acc x ->
            if x then acc + 1 else acc) 0 a in
        Format.printf "property:        %s@." (Formula.to_string f);
        Format.printf "states:          %d@." b.Buchi.nstates;
        Format.printf "transitions:     %d@." (Sl_core.Digraph.nedges g);
        Format.printf "reachable:       %d@." (count reach);
        Format.printf "live:            %d@." (count live);
        Format.printf "sccs:            %d (%d nontrivial)@."
          r.Sl_core.Digraph.count nontrivial;
        Format.printf "classification:  %s@."
          (Decompose.classification_to_string (Decompose.classify b));
        0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print transition-graph statistics (states, edges, SCCs) and the \
          classification of an LTL property's automaton")
    (obs_term Term.(const (fun s () -> run s) $ formula_arg))

let rem_cmd =
  let run () =
    Examples.pp_table Format.std_formatter (Examples.table ());
    0
  in
  Cmd.v
    (Cmd.info "rem-table" ~doc:"Regenerate the Section 2.3 example table")
    (obs_term (Term.const run))

let ctl_cmd =
  let run () =
    Sl_ctl.Examples.pp_table Format.std_formatter
      (Sl_ctl.Examples.table ());
    0
  in
  Cmd.v
    (Cmd.info "ctl-table" ~doc:"Regenerate the Section 4.3 example table")
    (obs_term (Term.const run))

let lattice_names =
  [ ("n5", (Named.n5, Named.n5_label)); ("m3", (Named.m3, Named.m3_label));
    ("bool3", (Named.boolean 3, string_of_int));
    ("div30", (fst (Named.divisor 30), string_of_int)) ]

let dot_cmd =
  let name_arg =
    let doc = "Lattice name: n5, m3, bool3, div30." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LATTICE" ~doc)
  in
  let run name =
    match List.assoc_opt name lattice_names with
    | None ->
        Format.eprintf "unknown lattice %s (try: %s)@." name
          (String.concat ", " (List.map fst lattice_names));
        1
    | Some (l, label) ->
        print_string (Lattice.to_dot ~label l);
        0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print a lattice's Hasse diagram in GraphViz form")
    (obs_term Term.(const (fun name () -> run name) $ name_arg))

let theorems_cmd =
  let run () =
    let ok = ref 0 and failed = ref 0 and skipped = ref [] in
    List.iter
      (fun (name, l) ->
        (* The theorems assume modular complemented lattices; lattices
           outside the hypotheses are reported as skipped, not failed. *)
        if Lattice.size l > 8 then skipped := (name ^ " (size)") :: !skipped
        else if not (Lattice.is_complemented l) then
          skipped := (name ^ " (not complemented)") :: !skipped
        else if not (Lattice.is_modular l) then
          skipped := (name ^ " (not modular)") :: !skipped
        else begin
          let reports = Finite_check.check_all_closures l in
          List.iter
            (fun (label, r) ->
              match r with
              | Ok () -> incr ok
              | Error e ->
                  incr failed;
                  Format.printf "%s/%s: %s@." name label e)
            reports
        end)
      Named.all_small;
    Format.printf
      "theorem checks across the lattice corpus: %d groups ok, %d failed@."
      !ok !failed;
    Format.printf "outside the hypotheses (skipped): %s@."
      (String.concat ", " (List.rev !skipped));
    (* Counterexample lattices behave as the paper says. *)
    List.iter
      (fun (what, r) ->
        Format.printf "%s: %s@." what
          (match r with Ok () -> "as the paper claims" | Error e -> e))
      [ ("Figure 1 / Lemma 6", Finite_check.lemma6_fig1 ());
        ("Figure 2 / Theorem 7", Finite_check.fig2_theorem7_failure ());
        ("modularity necessity", Finite_check.modularity_is_needed ()) ];
    if !failed = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "theorems"
       ~doc:"Exhaustively check Theorems 2/3/5/6/7 on the lattice corpus")
    (obs_term (Term.const run))

(* One-shot mode, kept from the original CLI: one formula, the trace
   inline on the command line. *)
let monitor_oneshot s trace =
  match parse_formula s with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok f ->
      let b = Examples.automaton f in
      let m = Sl_buchi.Monitor.create b in
      (match Sl_buchi.Monitor.shortest_bad_prefix b with
      | None ->
          Format.printf
            "property is liveness-only: the monitor is vacuous@."
      | Some bad ->
          Format.printf "shortest bad prefix: [%s]@."
            (String.concat "; " (List.map string_of_int bad)));
      (match Sl_buchi.Monitor.feed m trace with
      | Sl_buchi.Monitor.Admissible ->
          Format.printf "trace admissible@.";
          0
      | Sl_buchi.Monitor.Violation bad ->
          Format.printf "VIOLATION at prefix [%s]@."
            (String.concat "; " (List.map string_of_int bad));
          1)

(* Streaming mode: compile a property file once into the registry
   (malformed lines are reported with file/line and skipped, turning the
   final exit code nonzero), then pump the trace file or stdin through
   the batched packed engine and render the verdict report.

   The run lives in a [Session] (engine state + trace-id interner), so
   it can be snapshotted to disk ([--snapshot], periodically with
   [--snapshot-every]) and resumed in a fresh process ([--resume]) with
   byte-identical verdicts. A snapshot that doesn't match this
   registry, or is corrupt, refuses to restore — exit 2, never a
   wrong-but-running session. *)
let monitor_stream ~props_file ~trace_file ~json ~snapshot ~snapshot_every
    ~resume =
  let module Registry = Sl_runtime.Registry in
  let module Engine = Sl_runtime.Engine in
  let module Ingest = Sl_runtime.Ingest in
  let module Session = Sl_runtime.Session in
  let module Verdict = Sl_runtime.Verdict in
  let alphabet = 2 in
  let flags_ok =
    match snapshot_every with
    | Some n when n <= 0 ->
        Format.eprintf "monitor: --snapshot-every must be positive@.";
        false
    | Some _ when snapshot = None ->
        Format.eprintf "monitor: --snapshot-every needs --snapshot FILE@.";
        false
    | _ -> true
  in
  if not flags_ok then 2
  else begin
  let registry = Registry.create ~alphabet () in
  let prop_errors =
    let ic = open_in props_file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Registry.load_channel registry ~path:props_file ic)
  in
  List.iter prerr_endline prop_errors;
  if Registry.nprops registry = 0 then begin
    Format.eprintf "%s: no well-formed properties@." props_file;
    2
  end
  else begin
    match
      match resume with
      | None -> Ok (Session.create ~registry ())
      | Some path -> Session.load ~registry ~path ()
    with
    | Error e ->
        Format.eprintf "%s: cannot resume: %s@."
          (Option.value ~default:"" resume)
          (Session.restore_error_to_string e);
        2
    | Ok session ->
    let engine = Session.engine session in
    let ingest = Session.ingest session in
    let trace_errors = ref 0 in
    let source, ic, close =
      match trace_file with
      | "-" -> ("<stdin>", stdin, fun () -> ())
      | f ->
          let ic = open_in f in
          (f, ic, fun () -> close_in_noerr ic)
    in
    let last_snap = ref (Engine.events engine) in
    let t0 = Sys.time () in
    match
      Fun.protect ~finally:close (fun () ->
          (* block reads + the zero-copy scanner; byte-identical
             events/errors/interning to [read_channel] *)
          Ingest.scan_channel ~alphabet ingest ic
            ~on_chunk:(fun c ->
              Engine.feed engine ~n:c.Ingest.len ~traces:c.Ingest.trace_ids
                ~symbols:c.Ingest.symbols ();
              match (snapshot, snapshot_every) with
              | Some path, Some every
                when Engine.events engine - !last_snap >= every ->
                  Session.save session ~path;
                  last_snap := Engine.events engine
              | _ -> ())
            ~on_error:(fun e ->
              incr trace_errors;
              Format.eprintf "%s: %s (line skipped)@." source
                (Ingest.error_to_string e)));
      Option.iter (fun path -> Session.save session ~path) snapshot
    with
    | exception Sys_error msg ->
        Format.eprintf "monitor: cannot write snapshot: %s@." msg;
        2
    | () ->
    let elapsed_s = Sys.time () -. t0 in
    let report = Verdict.of_session ~elapsed_s session () in
    (* Single exit path: render the whole report first (JSON or text),
       then one [finish] prints it, flushes stdout, and returns the
       code — so a partially written [--json] document can't be left
       unflushed behind a later metrics dump or an exit. *)
    let finish rendered code =
      print_string rendered;
      flush stdout;
      code
    in
    let rendered =
      if json then Verdict.to_json report
      else Format.asprintf "%a" Verdict.pp_text report
    in
    finish rendered
      (if prop_errors <> [] || !trace_errors > 0 then 2
       else if report.Verdict.counters.Verdict.violations > 0 then 1
       else 0)
  end
  end

let monitor_cmd =
  let formula_opt_arg =
    let doc =
      "LTL formula to monitor (one-shot mode; ignored with $(b,--props))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)
  in
  let trace_pos_arg =
    let doc =
      "Space-separated symbols (letter indices) of the observed prefix \
       (one-shot mode)."
    in
    Arg.(value & pos_right 0 int [] & info [] ~docv:"SYMBOLS" ~doc)
  in
  let props_arg =
    let doc =
      "Property file: one LTL formula per line ('#' comments); each is \
       compiled once and hash-consed into the monitor registry."
    in
    Arg.(value & opt (some file) None & info [ "props" ] ~docv:"FILE" ~doc)
  in
  let trace_file_arg =
    let doc =
      "Event log in the line protocol 'trace-id symbol', or '-' for \
       stdin. Events of different traces may interleave."
    in
    Arg.(value & opt string "-" & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Emit the verdict report as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let snapshot_arg =
    let doc =
      "Write the session state (engine state, trace-id table, counters) \
       to $(docv) as a sl-artifact blob when the stream ends, atomically. \
       A later run can $(b,--resume) it against the same property file."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let snapshot_every_arg =
    let doc =
      "Also rewrite the $(b,--snapshot) file during the run, after each \
       ingested chunk that crosses an $(docv)-event interval — bounds the \
       events lost to a crash."
    in
    Arg.(
      value & opt (some int) None & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume from a session snapshot before reading the trace. The \
       snapshot must have been taken against a structurally identical \
       registry (same properties, same order); a mismatched or corrupt \
       snapshot refuses to load (exit 2)."
    in
    Arg.(value & opt (some file) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let run props trace_file json snapshot snapshot_every resume formula trace =
    match (props, formula) with
    | Some props_file, _ ->
        monitor_stream ~props_file ~trace_file ~json ~snapshot
          ~snapshot_every ~resume
    | None, Some s -> monitor_oneshot s trace
    | None, None ->
        Format.eprintf
          "monitor: need either --props FILE or a positional FORMULA@.";
        2
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run runtime monitors of properties' safety parts over traces \
          (streaming with --props/--trace, or one-shot on a formula)")
    (compile_term
       Term.(
         const (fun props tf json snap every resume f tr () ->
             run props tf json snap every resume f tr)
         $ props_arg $ trace_file_arg $ json_arg $ snapshot_arg
         $ snapshot_every_arg $ resume_arg $ formula_opt_arg
         $ trace_pos_arg))

(* Offline compile phase: property file -> one monitor-pack artifact.
   The hot serve phase (unpack today, the monitoring daemon tomorrow)
   then loads compiled tables without an LTL pipeline in sight. *)
let pack_cmd =
  let props_arg =
    let doc =
      "Property file to compile: one LTL formula per line ('#' comments)."
    in
    Arg.(
      required & opt (some file) None & info [ "props" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output pack file (written atomically)." in
    Arg.(
      value & opt string "monitors.slpack"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run props_file out =
    let module Registry = Sl_runtime.Registry in
    let registry = Registry.create ~alphabet:2 () in
    let prop_errors =
      let ic = open_in props_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Registry.load_channel registry ~path:props_file ic)
    in
    List.iter prerr_endline prop_errors;
    if Registry.nprops registry = 0 then begin
      Format.eprintf "%s: no well-formed properties@." props_file;
      2
    end
    else begin
      let pk = Sl_runtime.Pack.of_registry registry in
      match Sl_runtime.Pack.write pk ~path:out with
      | () ->
          Format.printf
            "packed %d props (%d distinct monitors) into %s (%d bytes)@."
            (Registry.nprops registry)
            (Registry.nmonitors registry)
            out
            (String.length (Sl_runtime.Pack.to_artifact pk));
          if prop_errors <> [] then 2 else 0
      | exception Sys_error msg ->
          Format.eprintf "%s: %s@." out msg;
          2
    end
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Compile a property file into a single binary monitor-pack \
          artifact (the offline half of a compile-once/serve-hot split)")
    (compile_term Term.(const (fun p o () -> run p o) $ props_arg $ out_arg))

let unpack_cmd =
  let pack_arg =
    let doc = "Monitor pack written by $(b,slc pack)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PACK" ~doc)
  in
  let run path =
    match Sl_runtime.Pack.read ~path with
    | Error msg ->
        Format.eprintf "%s: not a loadable monitor pack: %s@." path msg;
        2
    | Ok pk ->
        Format.printf "pack: %s@." path;
        Format.printf "alphabet: %d@." pk.Sl_runtime.Pack.alphabet;
        Format.printf "props: %d, distinct monitors: %d@."
          (Array.length pk.Sl_runtime.Pack.props)
          (Array.length pk.Sl_runtime.Pack.monitors);
        Array.iter
          (fun (name, monitor) ->
            Format.printf "  %s -> monitor %d@." name monitor)
          pk.Sl_runtime.Pack.props;
        Array.iteri
          (fun i pd ->
            Format.printf "monitor %d: %a (key %s)@." i
              Sl_runtime.Packed_dfa.pp pd
              (Sl_core.Wire.fnv64_hex (Sl_runtime.Packed_dfa.key pd)))
          pk.Sl_runtime.Pack.monitors;
        0
  in
  Cmd.v
    (Cmd.info "unpack"
       ~doc:
         "Load a monitor pack and print its properties and compiled \
          monitors (validates the whole artifact)")
    (obs_term Term.(const (fun p () -> run p) $ pack_arg))

let complement_cmd =
  let max_states_arg =
    let doc = "Abort if the complement's construction exceeds $(docv) \
               ranking states." in
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~docv:"N" ~doc)
  in
  let run s max_states =
    match parse_formula s with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok f -> (
        let b = Examples.automaton f in
        match Sl_buchi.Complement.rank_based ~max_states b with
        | c ->
            let count a =
              Array.fold_left (fun n x -> if x then n + 1 else n) 0 a
            in
            Format.printf "property: %s@." (Formula.to_string f);
            Format.printf "B: %s@." (Buchi.size_info b);
            Format.printf "complement (rank-based): %s@.%a@."
              (Buchi.size_info c) Buchi.pp c;
            Format.printf "complement reachable: %d, live: %d@."
              (count (Buchi.reachable c))
              (count (Buchi.live_states c));
            0
        | exception Invalid_argument m -> prerr_endline m; 1)
  in
  Cmd.v
    (Cmd.info "complement"
       ~doc:
         "Complement an LTL property's Büchi automaton via the rank-based \
          construction and print the result")
    (obs_term
       Term.(const (fun s m () -> run s m) $ formula_arg $ max_states_arg))

let regex_cmd =
  let regex_arg =
    let doc = "An omega-regular expression, e.g. \"(a|b)*(b)^w\"." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OMEGA" ~doc)
  in
  let run s =
    match Sl_regex.Omega.parse s with
    | Error e -> prerr_endline ("parse error: " ^ e); 1
    | Ok o ->
        let b = Sl_regex.Omega.to_buchi ~alphabet:2 o in
        Format.printf "omega-regex: %s@." (Sl_regex.Omega.to_string o);
        Format.printf "buchi automaton: %s@." (Buchi.size_info b);
        Format.printf "classification: %s@."
          (Decompose.classification_to_string (Decompose.classify b));
        0
  in
  Cmd.v
    (Cmd.info "regex"
       ~doc:"Classify an omega-regular expression over {a, b}")
    (obs_term Term.(const (fun s () -> run s) $ regex_arg))

let modelcheck_cmd =
  let system_arg =
    let doc = "System: ring3, mutex, peterson, buffer3, philosophers3." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)
  in
  let spec_arg =
    let doc = "LTL specification over the system's propositions." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"LTL" ~doc)
  in
  let systems =
    [ ("ring3", fun () -> Sl_kripke.Kripke.token_ring 3);
      ("mutex", Sl_kripke.Kripke.mutex);
      ("peterson", Sl_kripke.Kripke.peterson);
      ("buffer3", fun () -> Sl_kripke.Kripke.bounded_buffer ~capacity:3);
      ("philosophers3", fun () -> Sl_kripke.Kripke.dining_philosophers 3) ]
  in
  let run system spec =
    match List.assoc_opt system systems with
    | None ->
        Format.eprintf "unknown system %s (try: %s)@." system
          (String.concat ", " (List.map fst systems));
        1
    | Some mk -> (
        match parse_formula spec with
        | Error (`Msg m) -> prerr_endline m; 1
        | Ok f ->
            let k = mk () in
            let props = Array.to_list k.Sl_kripke.Kripke.ap in
            let v = Sl_ltl.Semantics.subset_valuation props in
            let alphabet = 1 lsl List.length props in
            if alphabet > 1024 then begin
              Format.eprintf "system alphabet too large@.";
              1
            end
            else begin
              match Sl_ltl.Modelcheck.check k ~alphabet ~valuation:v f with
              | Sl_ltl.Modelcheck.Holds ->
                  Format.printf "HOLDS@.";
                  0
              | Sl_ltl.Modelcheck.Fails w ->
                  Format.printf "FAILS; counterexample %s@."
                    (Sl_word.Lasso.to_string w);
                  1
            end)
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:"Check an LTL specification against a built-in system")
    (obs_term
       Term.(const (fun sys spec () -> run sys spec) $ system_arg $ spec_arg))

(* Monitoring as a service: the slc monitor pipeline behind sockets.
   All daemon logic lives in Sl_serve; this is flag plumbing. *)
let serve_cmd =
  let props_arg =
    let doc =
      "Property file: one LTL formula per line ('#' comments). SIGHUP \
       re-reads it and hot-swaps the registry without dropping in-flight \
       traces (refused if the carried traces cannot survive the change)."
    in
    Arg.(
      required & opt (some file) None & info [ "props" ] ~docv:"FILE" ~doc)
  in
  let socket_arg =
    let doc =
      "Listen on a Unix-domain socket at $(docv) (stale socket files are \
       replaced). Clients speak the 'trace-id symbol' line protocol and \
       receive NDJSON verdict records; a first line starting with \
       $(b,GET /metrics) gets the Prometheus exposition instead."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Also listen on TCP 127.0.0.1:$(docv) (same protocol)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let snapshot_arg =
    let doc =
      "On graceful shutdown (SIGTERM/SIGINT), write the session state to \
       $(docv) as a sl-artifact blob; a later $(b,--resume) on it \
       continues the run byte-identically."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Restore the session from a snapshot before serving (must match the \
       property file's registry fingerprint; refused otherwise, exit 2)."
    in
    Arg.(value & opt (some file) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let max_line_arg =
    let doc =
      "Per-connection input line cap in bytes; longer lines are reported \
       as error records and skipped, never buffered."
    in
    Arg.(value & opt int 65536 & info [ "max-line" ] ~docv:"BYTES" ~doc)
  in
  let hwm_arg =
    let doc =
      "Per-connection output high-water mark in bytes: a connection whose \
       unsent verdict queue exceeds this stops being read until the \
       client drains it (back-pressure instead of unbounded memory)."
    in
    Arg.(value & opt int 262144 & info [ "hwm" ] ~docv:"BYTES" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress lifecycle notes on stderr." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run props socket port snapshot resume max_line hwm quiet =
    Sl_serve.Loop.run
      {
        Sl_serve.Loop.props_file = props;
        unix_socket = socket;
        tcp_port = port;
        jobs = None (* the -j obs wrapper already set the pool default *);
        snapshot;
        resume;
        max_line;
        hwm;
        quiet;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the monitoring daemon: many concurrent client streams \
          multiplexed onto one engine, incremental NDJSON \
          verdicts, SIGHUP hot reload, snapshot/resume lifecycle")
    (compile_term
       Term.(
         const (fun p s pt sn r ml hw q () -> run p s pt sn r ml hw q)
         $ props_arg $ socket_arg $ port_arg $ snapshot_arg $ resume_arg
         $ max_line_arg $ hwm_arg $ quiet_arg))

(* slc top: poll the daemon's /status endpoint over the same socket the
   clients stream on and render a refreshing dashboard (or emit the raw
   sl-status/1 JSON with --once --json for scripting). *)
let top_cmd =
  let module J = Sl_json.Json in
  let mem path v = J.member path v in
  let jint k v = Option.bind (mem k v) J.int_ |> Option.value ~default:0 in
  let jnum k v = Option.bind (mem k v) J.num |> Option.value ~default:0. in
  let jstr k v = Option.bind (mem k v) J.str |> Option.value ~default:"" in
  let jbool k v = Option.bind (mem k v) J.bool_ |> Option.value ~default:false in
  let jarr k v = Option.bind (mem k v) J.arr |> Option.value ~default:[] in
  let render ~target status monitors ~rate =
    let b = Buffer.create 2048 in
    let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    p "slc top — %s    uptime %.1fs    fingerprint %s\n" target
      (jnum "uptime_s" status)
      (jstr "fingerprint" status);
    let cache = Option.value ~default:J.Null (mem "cache" status) in
    p "props %d   monitors %d   jobs %d   cache hit %.1f%% (%d/%d)\n"
      (jint "props" status) (jint "monitors" status) (jint "jobs" status)
      (100. *. jnum "hit_ratio" cache)
      (jint "hits" cache)
      (jint "hits" cache + jint "misses" cache);
    p "events %d (%+.0f/s)   traces %d   live %d   tripped %d   retired %d\n"
      (jint "events" status) rate (jint "traces" status) (jint "live" status)
      (jint "tripped" status)
      (jint "retired_admissible" status);
    let reloads = Option.value ~default:J.Null (mem "reloads" status) in
    p "reloads %d (%d failed)   spans dropped %d\n" (jint "count" reloads)
      (jint "failures" reloads)
      (jint "spans_dropped" (Option.value ~default:J.Null (mem "obs" status)));
    let conns = jarr "connections" status in
    p "\nconnections (%d):\n" (List.length conns);
    p "  %4s %-8s %-5s %9s %9s %6s %9s %s\n" "ID" "LISTENER" "MODE" "LINES"
      "EVENTS" "ERRORS" "PENDING" "STALL";
    List.iteri
      (fun i c ->
        if i < 20 then
          p "  %4d %-8s %-5s %9d %9d %6d %9d %s\n" (jint "id" c)
            (jstr "listener" c) (jstr "mode" c) (jint "lines" c)
            (jint "events" c) (jint "errors" c) (jint "pending_out" c)
            (if jbool "stalled" c then "yes" else "-"))
      conns;
    (match monitors with
    | None -> ()
    | Some mons ->
        let rows = jarr "monitors" mons in
        let rows =
          List.sort
            (fun a b -> compare (jint "tripped" b) (jint "tripped" a))
            rows
        in
        p "\nmonitors (%d, by tripped):\n" (List.length rows);
        p "  %5s %-16s %6s %7s %7s %-9s %s\n" "INDEX" "KEY" "LIVE" "TRIP"
          "RETIRE" "KIND" "PROPS";
        List.iteri
          (fun i m ->
            if i < 20 then begin
              let props =
                jarr "props" m |> List.filter_map J.str |> String.concat ","
              in
              let kind =
                if jbool "vacuous" m then "vacuous"
                else if jbool "pre_tripped" m then "pretripped"
                else "monitored"
              in
              p "  %5d %-16s %6d %7d %7d %-9s %s\n" (jint "index" m)
                (jstr "key" m) (jint "live" m) (jint "tripped" m)
                (jint "retired_admissible" m) kind props
            end)
          rows);
    Buffer.contents b
  in
  let socket_arg =
    let doc = "Poll the daemon over the Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Poll the daemon over TCP 127.0.0.1:$(docv)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let interval_arg =
    let doc = "Refresh interval in seconds." in
    Arg.(value & opt float 2.0 & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    let doc = "Render a single snapshot and exit (no screen clearing)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let json_arg =
    let doc =
      "With $(b,--once): print the raw sl-status/1 JSON of /status instead \
       of the dashboard."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run socket port interval once json =
    if socket = None && port = None then begin
      prerr_endline "slc top: need --socket PATH or --port PORT";
      2
    end
    else begin
      let target, addr =
        match (socket, port) with
        | Some p, _ -> (p, Unix.ADDR_UNIX p)
        | None, Some p ->
            ( Printf.sprintf "127.0.0.1:%d" p,
              Unix.ADDR_INET (Unix.inet_addr_loopback, p) )
        | None, None -> assert false
      in
      let fetch path =
        let status, body = Sl_serve.Introspect.get addr path in
        match String.split_on_char ' ' status with
        | _ :: "200" :: _ -> body
        | _ :: code :: _ -> failwith ("HTTP " ^ code)
        | _ -> failwith "malformed HTTP status line"
      in
      let parse body =
        match J.parse body with
        | Ok v -> v
        | Error e -> failwith ("bad JSON from daemon: " ^ e)
      in
      try
        if once && json then begin
          print_string (fetch "/status");
          0
        end
        else if once then begin
          let status = parse (fetch "/status") in
          let monitors = parse (fetch "/monitors") in
          print_string (render ~target status (Some monitors) ~rate:0.);
          0
        end
        else begin
          let last = ref None in
          while true do
            let status = parse (fetch "/status") in
            let monitors = parse (fetch "/monitors") in
            let events = jint "events" status in
            let rate =
              match !last with
              | Some prev when interval > 0. ->
                  float_of_int (events - prev) /. interval
              | _ -> 0.
            in
            last := Some events;
            (* clear screen, home cursor *)
            print_string "\027[2J\027[H";
            print_string (render ~target status (Some monitors) ~rate);
            flush stdout;
            Unix.sleepf interval
          done;
          0
        end
      with
      | Failure msg ->
          prerr_endline ("slc top: " ^ msg);
          1
      | Unix.Unix_error (e, _, _) ->
          prerr_endline
            (Printf.sprintf "slc top: cannot reach %s: %s" target
               (Unix.error_message e));
          1
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running slc serve: polls GET /status and \
          GET /monitors (sl-status/1) and renders uptime, throughput, the \
          connection table and per-monitor verdict counts")
    Term.(
      const run $ socket_arg $ port_arg $ interval_arg $ once_arg $ json_arg)

let version_cmd =
  let module Wire = Sl_core.Wire in
  let run () =
    Format.printf "slc 1.0.0@.";
    Format.printf "artifact format: sl-artifact/%d@." Wire.format_version;
    Format.printf "artifact kinds: %s@."
      (String.concat ", "
         (List.map
            (fun (name, kind) -> Printf.sprintf "%s(%d)" name kind)
            [ ("dfa", Wire.kind_packed_dfa); ("buchi", Wire.kind_buchi);
              ("digraph", Wire.kind_digraph); ("pack", Wire.kind_pack);
              ("session", Wire.kind_session) ]));
    Format.printf "report schema: sl-monitor-report/1@.";
    Format.printf "status schema: sl-status/1@.";
    0
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the CLI version and the supported artifact kinds and \
          report schemas")
    Term.(const run $ const ())

let () =
  let doc = "the lattice-theoretic safety/liveness toolbox (PODC 2003)" in
  let info = Cmd.info "slc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ classify_cmd; decompose_cmd; stats_cmd; rem_cmd; ctl_cmd;
            dot_cmd; theorems_cmd; monitor_cmd; serve_cmd; top_cmd;
            pack_cmd; unpack_cmd; complement_cmd; regex_cmd;
            modelcheck_cmd; version_cmd ]))
