(* The domain pool and the determinism contract of its parallel call
   sites: jobs must never be observable. The unit tests pin the pool's
   edge semantics (empty ranges, oversized chunks, exception and
   nested-region behaviour); the QCheck pin runs the registry compiler
   at jobs = 1 and jobs = 4 on the same random inputs and requires
   identical results — the executable form of DESIGN.md §6.9's
   determinism argument. *)

module Pool = Sl_core.Pool
module Formula = Sl_ltl.Formula
module Packed_dfa = Sl_runtime.Packed_dfa
module Registry = Sl_runtime.Registry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Pool unit semantics --- *)

let test_create_validation () =
  check_int "jobs recorded" 3 (Pool.jobs (Pool.create ~jobs:3 ()));
  check "jobs 0 rejected" true
    (match Pool.create ~jobs:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* the process-wide default is what create () picks up *)
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 2;
  check_int "create () takes the default" (Pool.default_jobs ())
    (Pool.jobs (Pool.create ()));
  Pool.set_default_jobs saved;
  check "set_default_jobs 0 rejected" true
    (match Pool.set_default_jobs 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_default_clamped () =
  (* a -j past the runtime's domain limit must not reach Domain.spawn;
     an explicit create ~jobs stays as given *)
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 10_000;
  let clamped = Pool.default_jobs () in
  Pool.set_default_jobs saved;
  check_int "default clamped to the core count"
    (Domain.recommended_domain_count ()) clamped;
  check_int "explicit width unclamped" 10_000
    (Pool.jobs (Pool.create ~jobs:10_000 ()))

let test_empty_range () =
  let pool = Pool.create ~jobs:4 () in
  let hits = ref 0 in
  Pool.parallel_for pool ~n:0 (fun _ -> incr hits);
  check_int "parallel_for n=0 never calls the body" 0 !hits

let test_each_index_once () =
  (* chunk larger than the range, chunk 1, and the default chunk all
     visit every index exactly once (atomic slots catch double visits
     from any domain). *)
  List.iter
    (fun chunk ->
      let pool = Pool.create ~jobs:4 () in
      let n = 23 in
      let seen = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for ?chunk pool ~n (fun i -> Atomic.incr seen.(i));
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "index %d visited once" i) 1
            (Atomic.get c))
        seen)
    [ Some 64; Some 1; None ]

let test_chunk_validation () =
  let pool = Pool.create ~jobs:2 () in
  check "chunk 0 rejected" true
    (match Pool.parallel_for ~chunk:0 pool ~n:4 (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 () in
  check "worker exception re-raised on the caller" true
    (match
       Pool.parallel_for ~chunk:1 pool ~n:16 (fun i ->
           if i = 11 then failwith "boom")
     with
    | exception Failure msg -> msg = "boom"
    | _ -> false);
  (* the pool is reusable after a failed region *)
  let hits = Atomic.make 0 in
  Pool.parallel_for pool ~n:8 (fun _ -> Atomic.incr hits);
  check_int "region usable after failure" 8 (Atomic.get hits)

let test_nested_region_rejected () =
  let outer = Pool.create ~jobs:2 () in
  let inner = Pool.create ~jobs:2 () in
  check "nested parallel region rejected" true
    (match
       Pool.parallel_for ~chunk:1 outer ~n:4 (fun _ ->
           Pool.parallel_for ~chunk:1 inner ~n:4 (fun _ -> ()))
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a sequential combinator inside a worker body is fine: jobs = 1
     regions never touch the nesting flag *)
  let seq = Pool.create ~jobs:1 () in
  let total = Atomic.make 0 in
  Pool.parallel_for ~chunk:1 outer ~n:4 (fun _ ->
      Pool.parallel_for seq ~n:4 (fun _ -> Atomic.incr total));
  check_int "sequential pool nests freely" 16 (Atomic.get total)

(* --- Determinism pins: jobs = 1 vs jobs = 4 --- *)

(* A pool of properties with deliberate hash-cons collisions (language-
   equal safety parts) so the parallel merge's interning order is
   actually exercised. *)
let registry_prop_pool =
  [| "a"; "a & F !a"; "G F a"; "F G !a"; "G (a -> X !a)"; "!a | X a";
     "G a"; "F a"; "a | X X a"; "G (a -> X (X !a))" |]

let registry_fingerprint r prop_ids =
  ( Registry.nprops r, Registry.nmonitors r, Registry.hits r,
    List.map (fun p -> Registry.monitor_of_prop r p) prop_ids,
    Array.to_list (Array.map Packed_dfa.key (Registry.monitors r)) )

let prop_registry_jobs_invariant =
  QCheck.Test.make
    ~name:"registry: compile_all jobs=4 = jobs=1 (hash-cons structure)"
    ~count:25
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nprops = 1 + Random.State.int st 24 in
      let named =
        List.init nprops (fun i ->
            let s =
              registry_prop_pool.(Random.State.int st
                                    (Array.length registry_prop_pool))
            in
            let name = if i mod 2 = 0 then Some (Printf.sprintf "p%d" i)
              else None
            in
            (name, Formula.parse_exn s))
      in
      (* threshold 1: even 1-3 property batches take the parallel
         fan-out + merge, so the interning order is always exercised;
         the default-threshold run pins the cutoff fallback. *)
      let run jobs threshold =
        let r = Registry.create ~alphabet:2 () in
        let ids = Registry.compile_all ~jobs ~threshold r named in
        registry_fingerprint r ids
      in
      let reference = run 1 1 in
      reference = run 4 1 && reference = run 4 1024)

let tests =
  [ Alcotest.test_case "create validation and default" `Quick
      test_create_validation;
    Alcotest.test_case "empty range" `Quick test_empty_range;
    Alcotest.test_case "each index exactly once" `Quick
      test_each_index_once;
    Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
    Alcotest.test_case "exceptions propagate" `Quick
      test_exception_propagates;
    Alcotest.test_case "nested region rejected" `Quick
      test_nested_region_rejected;
    Alcotest.test_case "default width clamped to the core count" `Quick
      test_default_clamped;
    QCheck_alcotest.to_alcotest prop_registry_jobs_invariant ]
