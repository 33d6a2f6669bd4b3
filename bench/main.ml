(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe              # all artifacts + all timings
     dune exec bench/main.exe ARTIFACT     # one artifact, no timings
     dune exec bench/main.exe bench        # timings only

   Artifacts (the paper's figures/tables, regenerated from scratch; see
   EXPERIMENTS.md for the mapping): fig1 fig2 rem ctl rabin
   lattice-theorems gumm

   The timing section prints one Bechamel estimate per row. The paper
   itself contains no performance numbers, so these rows document the
   cost of each reproduction algorithm (closure, decomposition,
   complementation, translation, model checking) and of the two
   ablations called out in DESIGN.md §5, plus the runtime paths the
   serving benchmark (perfbench/, BENCHMARK.json) does not drive end to
   end: the 100-property registry compile at 1 and 2 domains (the one
   Pool-parallel path), the compile cache cold vs warm, session
   snapshot/restore/resume, the two hot-reload commits, the
   observability dark-mode probes and the introspection renders. The
   rows are printed only; the engine, ingest and connection paths are
   measured by perfbench. *)

module Lattice = Sl_lattice.Lattice
module Named = Sl_lattice.Named
module Lclosure = Sl_lattice.Closure
module Finite_check = Sl_core.Finite_check
module Theory = Sl_core.Theory
module Lasso = Sl_word.Lasso
module Buchi = Sl_buchi.Buchi
module Bclosure = Sl_buchi.Closure
module Ops = Sl_buchi.Ops
module Complement = Sl_buchi.Complement
module Lang = Sl_buchi.Lang
module Bdecompose = Sl_buchi.Decompose
module Bpatterns = Sl_buchi.Patterns
module Formula = Sl_ltl.Formula
module Translate = Sl_ltl.Translate
module Semantics = Sl_ltl.Semantics
module Lexamples = Sl_ltl.Examples
module Kripke = Sl_kripke.Kripke
module Ctl = Sl_ctl.Ctl
module Cexamples = Sl_ctl.Examples
module Digraph = Sl_core.Digraph
module Gnba = Sl_buchi.Gnba
module Rabin = Sl_rabin.Rabin
module Rclosure = Sl_rabin.Closure
module Rdecompose = Sl_rabin.Decompose
module Rpatterns = Sl_rabin.Patterns

let section title = Format.printf "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let artifact_fig1 () =
  section "Figure 1 — pentagon N5 (non-modular)";
  Format.printf "%s" (Lattice.to_dot ~label:Named.n5_label Named.n5);
  Format.printf "modular: %b  complemented: %b@."
    (Lattice.is_modular Named.n5)
    (Lattice.is_complemented Named.n5);
  (match Lattice.modularity_violation Named.n5 with
  | Some (a, b, c) ->
      Format.printf "modularity violation at (%s, %s, %s)@."
        (Named.n5_label a) (Named.n5_label b) (Named.n5_label c)
  | None -> ());
  Format.printf "Lemma 6 (a has no decomposition under cl a = b): %s@."
    (match Finite_check.lemma6_fig1 () with
    | Ok () -> "verified by exhaustion"
    | Error e -> "FAILED: " ^ e)

let artifact_fig2 () =
  section "Figure 2 — diamond M3 (modular, not distributive)";
  Format.printf "%s" (Lattice.to_dot ~label:Named.m3_label Named.m3);
  Format.printf "modular: %b  distributive: %b@."
    (Lattice.is_modular Named.m3)
    (Lattice.is_distributive Named.m3);
  Format.printf "Theorem 7 fails for every closure with cl a = s: %s@."
    (match Finite_check.fig2_theorem7_failure () with
    | Ok () -> "verified (all candidate closures)"
    | Error e -> "FAILED: " ^ e)

let artifact_rem () =
  section "Table (Section 2.3) — Rem's examples";
  Lexamples.pp_table Format.std_formatter (Lexamples.table ())

let artifact_ctl () =
  section "Table (Section 4.3) — branching-time examples";
  Cexamples.pp_table Format.std_formatter (Cexamples.table ())

let artifact_rabin () =
  section "Theorem 9 — Rabin tree automata decomposition";
  List.iter
    (fun (name, b) ->
      let d = Rdecompose.decompose b in
      let fails =
        Rdecompose.verify_sampled ~max_depth:2
          ~trees:Rpatterns.sample_trees d
      in
      Format.printf "%-6s safe:%b live:%b decomposition:%s@." name
        (Rdecompose.is_safe_language ~trees:Rpatterns.sample_trees b)
        (Rdecompose.is_live_language ~max_depth:2 b)
        (if fails = [] then "verified" else "FAILED");
      if fails <> [] then
        List.iter (fun (c, diag) -> Format.printf "  %s: %s@." c diag) fails)
    Rpatterns.all

let artifact_lattice_theorems () =
  section "Theorems 2/3/5/6/7 — exhaustive over the lattice corpus";
  List.iter
    (fun (name, l) ->
      if
        Lattice.size l <= 8 && Lattice.is_complemented l
        && Lattice.is_modular l
      then begin
        let reports = Finite_check.check_all_closures l in
        let failed = List.filter (fun (_, r) -> r <> Ok ()) reports in
        Format.printf "%-8s (%d elements, %d closures): %s@." name
          (Lattice.size l)
          (List.length (Lclosure.all l))
          (if failed = [] then "all theorems hold" else "FAILURES")
      end)
    Named.all_small

let artifact_gumm () =
  section "Gumm gap — closures outside the topological framework";
  let l = Named.boolean 3 in
  let cl = Lclosure.of_closed_set l [ 0b000; 0b001; 0b010 ] in
  let module L = (val Finite_check.as_complemented l) in
  let module T = Theory.Make (L) in
  (match
     T.gumm_join_preservation_violation (Lclosure.apply cl)
       ~sample:(Lattice.elements l)
   with
  | Some (a, b) ->
      Format.printf
        "on 2^3, cl with closed sets {0,001,010,111}: cl(%d v %d) <> cl %d \
         v cl %d@."
        a b a b
  | None -> Format.printf "unexpectedly topological@.");
  Format.printf "yet Theorem 2 holds for it: %s@."
    (match Finite_check.check_theorem2 l cl with
    | Ok () -> "verified"
    | Error e -> "FAILED: " ^ e)

let artifacts =
  [ ("fig1", artifact_fig1); ("fig2", artifact_fig2);
    ("rem", artifact_rem); ("ctl", artifact_ctl);
    ("rabin", artifact_rabin);
    ("lattice-theorems", artifact_lattice_theorems);
    ("gumm", artifact_gumm) ]

(* ------------------------------------------------------------------ *)
(* Timings                                                             *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let random_automaton n =
  Buchi.random ~seed:(97 + n) ~alphabet:2 ~nstates:n ~density:0.15
    ~accepting_fraction:0.3 ()

let big_formula = Formula.parse_exn "G (a -> X (!a U (a & X !a)))"

(* PERF-KERNEL microbench inputs. The dense NFA is sized so the subset
   construction visits hundreds of subset states. The lockstep pair
   models two components driven by a shared clock (each a deterministic
   48-state cycle): only the diagonal of the [na*nb*2] product space is
   reachable, which is exactly what the on-the-fly product exploits. *)
let dense_nfa =
  let b =
    Buchi.random ~seed:7 ~alphabet:2 ~nstates:14 ~density:0.12
      ~accepting_fraction:0.3 ()
  in
  Sl_nfa.Nfa.make ~alphabet:2 ~nstates:b.Buchi.nstates ~starts:[ 0 ]
    ~delta:b.Buchi.delta ~accepting:b.Buchi.accepting

let lockstep_pair =
  let cycle n =
    Buchi.make ~alphabet:2 ~nstates:n ~start:0
      ~delta:(Array.init n (fun i -> Array.make 2 [ (i + 1) mod n ]))
      ~accepting:(Array.init n (fun i -> i = 0))
  in
  (cycle 48, cycle 48)

(* FLEET: 100 properties over 'a' from two parameterized safety
   families, G (a -> X^k !a) (odd k) and !a | X^k a (even k), k in 1..6.
   Only 6 are distinct, which is the realistic shape hash-consing
   exploits; on the alternating stream below the B-family monitors
   become admissible-forever within the first few events and the
   A-family stays live to the end. *)
let monitor_fleet_props =
  let rec xk n f = if n = 0 then f else xk (n - 1) (Sl_ltl.Formula.x f) in
  List.init 100 (fun i ->
      let k = 1 + (i mod 6) in
      let open Sl_ltl.Formula in
      if i mod 2 = 0 then g (prop "a" ==> xk k (neg (prop "a")))
      else neg (prop "a") ||| xk k (prop "a"))

let monitor_registry =
  let r = Sl_runtime.Registry.create ~alphabet:2 () in
  List.iter
    (fun f -> ignore (Sl_runtime.Registry.add_formula r f))
    monitor_fleet_props;
  r

(* 10k alternating events spread round-robin over 16 concurrent
   traces: the stream the SESSION and INTROSPECT fixtures digest. *)
let monitor_trace_syms = Array.init 10_000 (fun i -> i land 1)
let multi_trace_ids = Array.init 10_000 (fun i -> i mod 16)

let fleet_named_props = List.map (fun f -> (None, f)) monitor_fleet_props
let complement_input = Lexamples.automaton (Formula.parse_exn "F a")

(* Disabled-kernel probes for the OBS overhead budget (DESIGN.md §6.8):
   these time the dark-mode cost of an instrumented call site — one
   global flag check — which must stay within noise of a bare loop. *)
let obs_probe_counter = Sl_obs.Obs.Metrics.counter "bench_obs_probe_total"

(* OBS-LABELS fixtures: a labeled family next to the flat probe — a
   child handle is supposed to cost exactly a flat record, and the
   bench pair pins that — plus the interning lookup the chunk epilogues
   pay once per child, not per event. *)
let obs_probe_vec =
  Sl_obs.Obs.Metrics.counter_vec "bench_obs_probe_labeled_total"
    ~labels:[ "monitor" ]

let obs_probe_child = Sl_obs.Obs.Metrics.counter_child obs_probe_vec [ "m0" ]

(* CACHE fixtures: the same 100-property fleet compiled through the
   warm-start cache. The cold series empties its directory before every
   run, so each run pays full translate + minimize + pack + store; the
   warm series compiles once into its directory at fixture setup, so
   each run is 100 probe hits + artifact decodes. Both live under one
   bench-local root (gitignored) rather than a temp dir, so the fixture
   is inspectable after a run. *)
let bench_cache_root = ".slc-bench-cache"
let bench_cache_cold_dir = Filename.concat bench_cache_root "cold"
let bench_cache_warm_dir = Filename.concat bench_cache_root "warm"

let clear_cache_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let compile_fleet_cached ~dir =
  let r =
    Sl_runtime.Registry.create ~alphabet:2
      ~cache:(Sl_runtime.Cache.create ~dir)
      ()
  in
  Sl_runtime.Registry.compile_all ~jobs:1 r fleet_named_props

let prewarm_bench_cache =
  lazy
    (clear_cache_dir bench_cache_warm_dir;
     ignore (compile_fleet_cached ~dir:bench_cache_warm_dir))

(* SESSION fixtures: the fleet engine's run state snapshotted at the
   10k-event stream's midpoint. The write series times serializing +
   atomically publishing the snapshot; the restore series times decode +
   validation + engine rebuild from the prebuilt blob; the resume/cold
   pair compares finishing the stream from the snapshot against
   replaying it from scratch — the recovery-time story. *)
let bench_session_dir = Filename.concat bench_cache_root "session"

let ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    (try Sys.mkdir bench_cache_root 0o755 with Sys_error _ -> ());
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let session_fresh () =
  let s = Sl_runtime.Session.create ~registry:monitor_registry () in
  (* the 16 concurrent trace ids of the stream, interned in the order
     it first sees them *)
  for i = 0 to 15 do
    ignore
      (Sl_runtime.Ingest.intern
         (Sl_runtime.Session.ingest s)
         (Printf.sprintf "t%d" i))
  done;
  s

let session_at_midpoint =
  lazy
    (let s = session_fresh () in
     Sl_runtime.Engine.feed (Sl_runtime.Session.engine s) ~n:5_000
       ~traces:multi_trace_ids ~symbols:monitor_trace_syms ();
     s)

let session_snapshot_blob =
  lazy (Sl_runtime.Session.to_artifact (Lazy.force session_at_midpoint))

(* INTROSPECT fixture: a daemon that has digested the whole 10k-event
   stream, rendered to Ingest line-protocol bytes, through one
   connection, wired to an introspection instance — what a /status or
   /monitors scrape renders mid-soak. *)
let serve_introspect_fixture =
  lazy
    (let d = Sl_serve.Daemon.make (session_fresh ()) in
     let c = Sl_serve.Conn.create d in
     Sl_serve.Conn.on_bytes c
       (String.concat ""
          (List.init 10_000 (fun i ->
               Printf.sprintf "t%d %d\n" multi_trace_ids.(i)
                 monitor_trace_syms.(i))));
     ignore (Sl_serve.Conn.drain_output c);
     let intro = Sl_serve.Introspect.create ~version:"bench" ~jobs:1 d in
     Sl_serve.Introspect.set_conns intro (fun () ->
         [ Sl_serve.Introspect.conn_info_of_conn c ]);
     intro)

(* A registry one property richer than the fleet (same alphabet): the
   keyed carry-over path of a hot reload, as opposed to the
   identical-fingerprint snapshot round-trip. *)
let serve_reload_registry =
  lazy
    (let r = Sl_runtime.Registry.create ~alphabet:2 () in
     List.iter
       (fun f -> ignore (Sl_runtime.Registry.add_formula r f))
       (monitor_fleet_props @ [ Sl_ltl.Formula.(g (prop "a")) ]);
     r)

let make_tests () =
  let t name f = Test.make ~name (Staged.stage f) in
  let scaling name make_input f sizes =
    List.map
      (fun n ->
        let input = make_input n in
        t (Printf.sprintf "%s/%d" name n) (fun () -> f input))
      sizes
  in
  List.concat
    [ (* FIG1 / FIG2: the exhaustive counterexample checks. *)
      [ t "fig1/lemma6" (fun () -> Finite_check.lemma6_fig1 ());
        t "fig2/theorem7-failure" (fun () ->
            Finite_check.fig2_theorem7_failure ()) ];
      (* THM2-3: exhaustive decomposition checks per lattice. *)
      [ t "thm2/bool3" (fun () ->
            Finite_check.check_theorem2 (Named.boolean 3)
              (Lclosure.of_closed_set (Named.boolean 3) [ 0b001 ]));
        t "thm3/all-closures-bool2" (fun () ->
            Finite_check.check_all_closures (Named.boolean 2));
        t "thm3/all-closures-bool3" (fun () ->
            Finite_check.check_all_closures (Named.boolean 3)) ];
      (* TAB-REM: the Section 2.3 table end to end. *)
      [ t "rem/table" (fun () -> Lexamples.table ());
        t "rem/classify-p3" (fun () -> Lexamples.classify Lexamples.p3) ];
      (* BA-DEC: closure and decomposition scaling on random automata. *)
      scaling "buchi/bcl" random_automaton Bclosure.bcl [ 8; 32; 128 ];
      scaling "buchi/decompose" random_automaton Bdecompose.decompose
        [ 8; 32; 128 ];
      scaling "buchi/safety-complement"
        (fun n -> Bclosure.bcl (random_automaton n))
        Complement.complement_closed [ 8; 32 ];
      [ t "buchi/rank-complement-3" (fun () ->
            Complement.rank_based (random_automaton 3)) ];
      (* Ablation: bcl vs the naive pruning (DESIGN.md §5.3). *)
      [ t "ablation/bcl-128" (fun () ->
            Bclosure.bcl (random_automaton 128));
        t "ablation/naive-prune-128" (fun () ->
            Bclosure.naive_prune (random_automaton 128)) ];
      (* Ablation: exact vs sampled equality (DESIGN.md §5.2). *)
      [ t "equality/exact-p3-vs-p1" (fun () ->
            Lang.equal (Bclosure.bcl Bpatterns.p3) Bpatterns.p1);
        t "equality/sampled-p3-vs-p1" (fun () ->
            Lang.sampled_equal ~max_prefix:3 ~max_cycle:3
              (Bclosure.bcl Bpatterns.p3) Bpatterns.p1) ];
      (* LTL machinery. *)
      [ t "ltl/translate-p5" (fun () ->
            Translate.translate ~alphabet:2 ~valuation:Lexamples.valuation
              Lexamples.p5);
        t "ltl/translate-nested" (fun () ->
            Translate.translate ~alphabet:2 ~valuation:Lexamples.valuation
              big_formula);
        t "ltl/eval-lasso" (fun () ->
            Semantics.eval Lexamples.valuation big_formula
              (Lasso.make ~prefix:[ 0; 1; 0 ] ~cycle:[ 1; 0; 0; 1 ])) ];
      (* CTL model checking. *)
      [ t "ctl/mutex" (fun () ->
            Ctl.holds (Kripke.mutex ()) (Ctl.parse_exn "AG (t1 -> AF c1)"));
        t "ctl/philosophers-4" (fun () ->
            Ctl.holds
              (Kripke.dining_philosophers 4)
              (Ctl.parse_exn "AG (hungry0 -> EF eat0)")) ];
      (* TAB-CTL: closure membership on trees. *)
      [ t "ctl/q-table-row" (fun () ->
            Sl_tree.Tclosure.classify Cexamples.q3a
              ~sample:(List.filteri (fun i _ -> i < 40) Cexamples.sample)
              ~max_depth:2) ];
      (* THM9: Rabin machinery. *)
      [ t "rabin/rfcl-q3a" (fun () -> Rclosure.rfcl Rpatterns.q3a);
        t "rabin/membership" (fun () ->
            List.iter
              (fun tr -> ignore (Rabin.accepts Rpatterns.af_b tr))
              (List.filteri (fun i _ -> i < 16) Rpatterns.sample_trees));
        t "rabin/decompose-verify" (fun () ->
            Rdecompose.verify_sampled ~max_depth:1
              ~trees:(List.filteri (fun i _ -> i < 16)
                        Rpatterns.sample_trees)
              (Rdecompose.decompose Rpatterns.q3a)) ];
      (* Simulation-reduction ablation: size/time of the liveness part. *)
      [ t "ablation/liveness-raw-p3" (fun () ->
            (Bdecompose.decompose Bpatterns.p3).Bdecompose.liveness);
        t "ablation/liveness-reduced-p3" (fun () ->
            Sl_buchi.Simulation.reduce
              (Bdecompose.decompose Bpatterns.p3).Bdecompose.liveness) ];
      (* Monitoring throughput (Schneider connection). *)
      [ t "monitor/feed-1k" (fun () ->
            let m =
              Sl_buchi.Monitor.create Bpatterns.no_grant_without_request
            in
            Sl_buchi.Monitor.feed m
              (List.init 1000 (fun i -> if i mod 7 = 0 then 1 else 0))) ];
      (* OBS dark-mode probes: an instrumented counter bump and a full
         span enter/exit pair while the kernel is off. *)
      [ t "obs/counter-incr-disabled" (fun () ->
            Sl_obs.Obs.Metrics.incr obs_probe_counter);
        t "obs/span-disabled" (fun () ->
            Sl_obs.Obs.Span.exit (Sl_obs.Obs.Span.enter "bench.disabled")) ];
      (* Automata-theoretic model checking. *)
      [ t "modelcheck/ring-GF" (fun () ->
            Sl_ltl.Modelcheck.check (Kripke.token_ring 3) ~alphabet:8
              ~valuation:(Semantics.subset_valuation
                            [ "tok0"; "tok1"; "tok2" ])
              (Formula.parse_exn "G F tok0"));
        t "modelcheck/ring-split" (fun () ->
            Sl_ltl.Modelcheck.check_split (Kripke.token_ring 3) ~alphabet:8
              ~valuation:(Semantics.subset_valuation
                            [ "tok0"; "tok1"; "tok2" ])
              (Formula.parse_exn "F G tok0")) ];
      (* Fair CTL. *)
      [ t "ctl/fair-mutex" (fun () ->
            let k = Kripke.mutex () in
            let c =
              [ Array.init k.Kripke.nstates (fun q ->
                    Kripke.holds k q "t1" || Kripke.holds k q "c1") ]
            in
            Sl_ctl.Fair.holds k c (Ctl.parse_exn "AF c1")) ];
      (* DFA minimization: Moore vs Brzozowski (substrate ablation). *)
      (let nfa =
         Sl_nfa.Nfa.make ~alphabet:2 ~nstates:6 ~starts:[ 0 ]
           ~delta:
             [| [| [ 0; 1 ]; [ 0 ] |]; [| []; [ 2 ] |]; [| [ 3 ]; [ 2 ] |];
                [| [ 3 ]; [ 4 ] |]; [| [ 5 ]; [] |]; [| [ 5 ]; [ 5 ] |] |]
           ~accepting:[| false; false; false; false; false; true |]
       in
       [ t "nfa/moore" (fun () ->
             Sl_nfa.Nfa.reverse_determinize_minimize nfa);
         t "nfa/brzozowski" (fun () ->
             Sl_nfa.Nfa.brzozowski_minimize nfa) ]);
      (* Galois-induced closure. *)
      [ t "galois/lcl-closure" (fun () ->
            let c =
              Sl_lattice.Galois.lcl_connection ~max_len:2 ~alphabet:2
            in
            List.init 16 (Sl_lattice.Galois.closure_of c)) ];
      (* µ-calculus vs direct CTL. *)
      [ t "mu/ctl-embedding-mutex" (fun () ->
            Sl_mu.Mu.holds (Kripke.mutex ())
              (Sl_mu.Mu.of_ctl (Ctl.parse_exn "AG (t1 -> AF c1)")));
        t "mu/alternation-egf" (fun () ->
            Sl_mu.Mu.sat (Kripke.mutex ())
              (Sl_mu.Mu.parse_exn "nu X . mu Y . (c1 & <> X) | <> Y")) ];
      (* ω-regex pipeline. *)
      [ t "regex/compile-p4" (fun () ->
            Sl_regex.Omega.to_buchi ~alphabet:2
              (List.assoc "p4" Sl_regex.Omega.rem_examples));
        t "regex/classify-p4" (fun () ->
            (* ¬(FG b) = GF a: the p5 regex automaton is the negation. *)
            Bdecompose.classify_via_negation
              (Sl_regex.Omega.to_buchi ~alphabet:2
                 (List.assoc "p4" Sl_regex.Omega.rem_examples))
              ~negation:
                (Sl_regex.Omega.to_buchi ~alphabet:2
                   (List.assoc "p5" Sl_regex.Omega.rem_examples))) ];
      (* Acceptance-condition translations. *)
      [ t "acceptance/rabin-to-buchi" (fun () ->
            Sl_buchi.Acceptance.rabin_to_buchi
              (Sl_buchi.Acceptance.of_buchi (random_automaton 8))) ];
      (* PERF-KERNEL: the subset construction and the on-the-fly
         product on the inputs above, and rank-based complementation. *)
      [ t "nfa/determinize-dense" (fun () -> Sl_nfa.Nfa.determinize dense_nfa);
        t "ops/intersect-reachable" (fun () ->
            Ops.intersect (fst lockstep_pair) (snd lockstep_pair));
        t "buchi/rank-complement-Fa" (fun () ->
            Complement.rank_based complement_input) ];
      (* PARALLEL: the registry compile of the 100-property fleet, the one
         Pool-parallel path, at 1 and 2 domains on identical inputs. *)
      List.map
        (fun jobs ->
          t (Printf.sprintf "parallel/registry-compile-100/j%d" jobs)
            (fun () ->
              let r = Sl_runtime.Registry.create ~alphabet:2 () in
              Sl_runtime.Registry.compile_all ~jobs r fleet_named_props))
        [ 1; 2 ];
      (* CACHE: the 100-property fleet compile with an empty vs a
         prewarmed compile cache — the PR 6 acceptance pair (warm must
         be an order of magnitude under cold, DESIGN.md §6.10). *)
      [ t "cache/registry-compile-100-cold" (fun () ->
            clear_cache_dir bench_cache_cold_dir;
            compile_fleet_cached ~dir:bench_cache_cold_dir);
        (Lazy.force prewarm_bench_cache;
         t "cache/registry-compile-100-warm" (fun () ->
             compile_fleet_cached ~dir:bench_cache_warm_dir)) ];
      (* SESSION: snapshot write, restore, and resume-vs-replay on the
         fleet engine at the stream midpoint. *)
      [ (ensure_dir bench_session_dir;
         let snap_path = Filename.concat bench_session_dir "mid.slsession" in
         t "session/snapshot-write" (fun () ->
             Sl_runtime.Session.save
               (Lazy.force session_at_midpoint)
               ~path:snap_path));
        t "session/restore" (fun () ->
            match
              Sl_runtime.Session.of_artifact ~registry:monitor_registry
                (Lazy.force session_snapshot_blob)
            with
            | Ok s -> s
            | Error _ -> failwith "bench snapshot failed to restore");
        t "session/resume-feed-5k" (fun () ->
            match
              Sl_runtime.Session.of_artifact ~registry:monitor_registry
                (Lazy.force session_snapshot_blob)
            with
            | Ok s ->
                Sl_runtime.Engine.feed (Sl_runtime.Session.engine s)
                  ~off:5_000 ~n:5_000 ~traces:multi_trace_ids
                  ~symbols:monitor_trace_syms ()
            | Error _ -> failwith "bench snapshot failed to restore");
        t "session/cold-feed-10k" (fun () ->
            let s = session_fresh () in
            Sl_runtime.Engine.feed (Sl_runtime.Session.engine s) ~n:10_000
              ~traces:multi_trace_ids ~symbols:monitor_trace_syms ()) ];
      (* RELOAD: the two hot-reload commit paths on the midpoint session
         (identical registry = snapshot round-trip; 101p = keyed
         per-monitor carry-over). The 101-prop registry is compiled at
         group construction so it does not leak into the first timed
         run, which dominates a 0.25s quota. *)
      (let mid_session = Lazy.force session_at_midpoint in
       let reload_registry = Lazy.force serve_reload_registry in
       [ t "serve/reload-identical-100p" (fun () ->
             match
               Sl_serve.Reload.carry_over ~old_session:mid_session
                 ~registry:monitor_registry ()
             with
             | Ok (_, carried) -> carried
             | Error e -> failwith ("bench reload refused: " ^ e));
         t "serve/reload-carryover-101p" (fun () ->
             match
               Sl_serve.Reload.carry_over ~old_session:mid_session
                 ~registry:reload_registry ()
             with
             | Ok (_, carried) -> carried
             | Error e -> failwith ("bench reload refused: " ^ e)) ]);
      (* OBS-LABELS: enabled-mode recording cost, flat vs labeled child
         (amortized over 1k bumps so the enable/disable bracket is
         noise); the interning lookup the epilogues pay per child; and
         what one introspection scrape renders against the digested
         10k-event daemon. *)
      (let intro = Lazy.force serve_introspect_fixture in
       [ t "obs/counter-incr-enabled-x1k" (fun () ->
             Sl_obs.Obs.enable ();
             for _ = 1 to 1000 do
               Sl_obs.Obs.Metrics.incr obs_probe_counter
             done;
             Sl_obs.Obs.disable ());
         t "obs/labeled-incr-enabled-x1k" (fun () ->
             Sl_obs.Obs.enable ();
             for _ = 1 to 1000 do
               Sl_obs.Obs.Metrics.incr obs_probe_child
             done;
             Sl_obs.Obs.disable ());
         t "obs/vec-child-lookup" (fun () ->
             Sl_obs.Obs.Metrics.counter_child obs_probe_vec [ "m0" ]);
         t "obs/status-render" (fun () ->
             Sl_serve.Introspect.handler intro "/status");
         t "obs/monitors-render" (fun () ->
             Sl_serve.Introspect.handler intro "/monitors") ]);
      (* Structural hierarchy classification. *)
      [ t "hierarchy/classify-128" (fun () ->
            Sl_buchi.Hierarchy.classify_structural (random_automaton 128)) ];
      (* Lattice substrate. *)
      [ t "lattice/width-part4" (fun () ->
            Sl_order.Poset.width (Lattice.poset (Named.partition 4)));
        t "lattice/birkhoff-div30" (fun () ->
            Sl_lattice.Birkhoff.check_representation (fst (Named.divisor 30)))
      ];
      (* GRAPH-KERNEL: the shared CSR digraph kernel in isolation, on the
         transition graph every layer now routes through. *)
      (let b128 = random_automaton 128 in
       let g128 = Buchi.graph b128 in
       let scc128 = Digraph.sccs g128 in
       let acc128 =
         Array.init (Digraph.nodes g128) (fun q -> b128.Buchi.accepting.(q))
       in
       let gnba128 =
         Gnba.make ~alphabet:2 ~nstates:b128.Buchi.nstates ~start:0
           ~delta:b128.Buchi.delta
           ~acceptance:
             [ Array.copy b128.Buchi.accepting;
               Array.init b128.Buchi.nstates (fun q -> q mod 3 = 0) ]
       in
       [ t "digraph/of-delta/128" (fun () -> Buchi.graph b128);
         t "digraph/sccs/128" (fun () -> Digraph.sccs g128);
         t "digraph/condense/128" (fun () -> Digraph.condense g128 scc128);
         t "digraph/reverse-reach/128" (fun () ->
             Digraph.reachable_from (Digraph.reverse g128) acc128);
         t "buchi/live-states/128" (fun () -> Buchi.live_states b128);
         t "gnba/is-empty/128" (fun () -> Gnba.is_empty gnba128) ]) ]

let run_benchmarks () =
  section "Timings (Bechamel; ns per run, OLS on monotonic clock)";
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Printf.sprintf "%12.1f ns/run" x
            | _ -> "            n/a"
          in
          Format.printf "%-34s %s@." name estimate)
        (Analyze.all ols instance results))
    (make_tests ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) artifacts;
      run_benchmarks ()
  | [ "bench" ] -> run_benchmarks ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Format.eprintf
                "unknown artifact %s (available: %s, bench)@."
                name
                (String.concat ", " (List.map fst artifacts));
              exit 1)
        names
