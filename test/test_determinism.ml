(* Determinism regression suite for the parallel experiment runner.

   The contract of Fruitchain_util.Pool + Runs.run_parallel is that worker
   count and scheduling are invisible in results: for every registered
   experiment, the rendered outcome (title, claim, table, notes — the exact
   bytes bench/main.exe prints) must be identical between --jobs 1 (the
   fully sequential path, no domains spawned) and --jobs 4, and stable
   across repeated runs under the same master seed. Experiments that do not
   fan out units yet pass trivially; they stay in the suite so that any
   future conversion is born covered. *)

module Exp = Fruitchain_experiments.Exp
module Registry = Fruitchain_experiments.Registry
module Pool = Fruitchain_util.Pool
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Scope = Fruitchain_obs.Scope

let render ~jobs (module E : Exp.EXPERIMENT) =
  Pool.set_default_jobs jobs;
  let outcome = E.run ~scale:Exp.Quick () in
  Format.asprintf "%a" Exp.print outcome

(* Run an experiment under an ambient fruitscope scope and return the bytes
   of the golden artifacts: the canonical metric dump and the merged trace
   stream. These are exactly what --metrics/--trace write from the CLI, so
   byte-equality here is byte-equality of the files. *)
let observe ~jobs (module E : Exp.EXPERIMENT) =
  Pool.set_default_jobs jobs;
  let registry = Metrics.create () in
  let tracer = Tracer.buffer () in
  Pool.set_scope (Scope.make ~metrics:registry ~tracer ());
  Fun.protect
    ~finally:(fun () -> Pool.set_scope Scope.null)
    (fun () -> ignore (E.run ~scale:Exp.Quick ()));
  (Metrics.dump registry, String.concat "\n" (Tracer.lines tracer))

(* The experiments that actually emit parallel work units (the sweeps);
   these get the extra repeated-run check at jobs=4, where scheduling noise
   would show up if any unit drew from shared state. *)
let parallel_ids =
  [ "E01"; "E02"; "E03"; "E07"; "E16"; "E17"; "E18"; "E19"; "E20"; "E21"; "E22" ]

let test_jobs_invariance (module E : Exp.EXPERIMENT) () =
  let sequential = render ~jobs:1 (module E) in
  let parallel = render ~jobs:4 (module E) in
  Alcotest.(check string)
    (E.id ^ ": --jobs 1 and --jobs 4 render byte-identically")
    sequential parallel

let test_repeat_stability (module E : Exp.EXPERIMENT) () =
  let first = render ~jobs:4 (module E) in
  let second = render ~jobs:4 (module E) in
  Alcotest.(check string)
    (E.id ^ ": two jobs=4 runs under the same master seed are identical")
    first second

(* Fruitscope golden artifacts: worker count must also be invisible in the
   metric dump and in the merged trace stream (children merge in unit-index
   order). A subset keeps the suite's runtime reasonable; these cover a
   Nakamoto sweep, a FruitChain sweep, a parameter sweep, and the
   partition experiment whose traces now carry lifecycle spans. *)
let scoped_ids = [ "E01"; "E02"; "E17"; "E19"; "E22" ]

let test_scope_invariance (module E : Exp.EXPERIMENT) () =
  let seq_metrics, seq_trace = observe ~jobs:1 (module E) in
  let par_metrics, par_trace = observe ~jobs:4 (module E) in
  Alcotest.(check string)
    (E.id ^ ": metric dumps at --jobs 1 and --jobs 4 are byte-identical")
    seq_metrics par_metrics;
  Alcotest.(check string)
    (E.id ^ ": traces at --jobs 1 and --jobs 4 are byte-identical")
    seq_trace par_trace;
  Alcotest.(check bool) (E.id ^ ": the scoped run actually recorded metrics") true
    (not (String.equal seq_metrics {|{"counters":{},"gauges":{},"histograms":{}}|}))

(* Scenario runs (lib/scenario) carry the same contract as experiments: the
   rendered trial table, the golden metric dump, and the merged trace of a
   scenario must be byte-identical at any worker count. This is the
   in-suite version of the CLI acceptance check
   [scenario run ... --jobs 4 == --jobs 1]. *)
module Scenario = Fruitchain_scenario.Scenario
module Loader = Fruitchain_scenario.Loader
module Driver = Fruitchain_scenario.Driver

let scenario_fixture () =
  match Loader.load "fixtures/scenarios/partition_small.json" with
  | Ok s -> s
  | Error _ -> Alcotest.fail "fixture scenario must load"

let observe_scenario ~jobs s =
  Pool.set_default_jobs jobs;
  let registry = Metrics.create () in
  let tracer = Tracer.buffer () in
  Pool.set_scope (Scope.make ~metrics:registry ~tracer ());
  let trials =
    Fun.protect
      ~finally:(fun () -> Pool.set_scope Scope.null)
      (fun () -> Driver.run_trials s)
  in
  ( Fruitchain_util.Table.to_string (Driver.table s trials),
    Metrics.dump registry,
    String.concat "\n" (Tracer.lines tracer) )

let test_scenario_jobs_invariance () =
  let s = scenario_fixture () in
  let seq_table, seq_metrics, seq_trace = observe_scenario ~jobs:1 s in
  let par_table, par_metrics, par_trace = observe_scenario ~jobs:4 s in
  Alcotest.(check string) "scenario tables at --jobs 1 and --jobs 4" seq_table par_table;
  Alcotest.(check string) "scenario metric dumps at --jobs 1 and --jobs 4"
    seq_metrics par_metrics;
  Alcotest.(check string) "scenario traces at --jobs 1 and --jobs 4" seq_trace par_trace;
  Alcotest.(check bool) "the run recorded scenario metrics" true
    (not (String.equal seq_metrics {|{"counters":{},"gauges":{},"histograms":{}}|}))

let test_scenario_repeat_stability () =
  let s = scenario_fixture () in
  let first = observe_scenario ~jobs:4 s in
  let second = observe_scenario ~jobs:4 s in
  Alcotest.(check bool) "two jobs=4 scenario runs are identical" true (first = second)

(* --- Hot-path soak ----------------------------------------------------

   The arena store / deferred oracle / ring network rewrites must hold the
   determinism contract well past the quick-scale horizon: a 10^5-round
   E01-shaped sweep (Nakamoto, selfish + honest-coalition units) must
   render and observe byte-identically at --jobs 1 and --jobs 4. Shares
   are printed at full float precision, which is stricter than the
   2-decimal experiment table. *)

module Runs = Fruitchain_experiments.Runs
module Sim_config = Fruitchain_sim.Config
module Sim_trace = Fruitchain_sim.Trace
module Quality = Fruitchain_metrics.Quality

let soak_rounds = 100_000

let soak_observe ~jobs =
  Pool.set_default_jobs jobs;
  let registry = Metrics.create () in
  let tracer = Tracer.buffer () in
  Pool.set_scope (Scope.make ~metrics:registry ~tracer ());
  let params = Exp.default_params () in
  let specs = [ (0.25, None); (0.25, Some 0.5); (0.45, None); (0.45, Some 0.5) ] in
  let units =
    List.map
      (fun (rho, gamma) ~seed ->
        let strategy =
          match gamma with
          | None -> Runs.honest_coalition
          | Some gamma -> Runs.selfish ~gamma
        in
        let config =
          Runs.config ~protocol:Sim_config.Nakamoto ~rho ~rounds:soak_rounds ~params ~seed ()
        in
        Quality.adversarial_fraction
          (Quality.block_shares (Sim_trace.honest_final_chain (Runs.run config ~strategy ()))))
      specs
  in
  let shares =
    Fun.protect
      ~finally:(fun () -> Pool.set_scope Scope.null)
      (fun () -> Runs.run_parallel ~master:1L units)
  in
  let table = String.concat "\n" (List.map (Printf.sprintf "%.17g") shares) in
  (table, Metrics.dump registry)

let test_soak_jobs_invariance () =
  let seq_table, seq_metrics = soak_observe ~jobs:1 in
  let par_table, par_metrics = soak_observe ~jobs:4 in
  Alcotest.(check string) "soak shares at --jobs 1 and --jobs 4" seq_table par_table;
  Alcotest.(check string) "soak metric dumps at --jobs 1 and --jobs 4" seq_metrics par_metrics

(* Allocation regression tripwire for the round loop. The rewrites hold
   steady-state allocation to ~4.2 KB/round (Nakamoto) and ~11.1 KB/round
   (FruitChain) at quick-scale parameters — dominated by message delivery
   and trace events, with mining queries allocation-free on the miss path.
   Runs are seeded and sequential, so the measurement is deterministic;
   the 1.5x headroom covers code drift, not noise. Reintroducing per-query
   boxing (the pre-rewrite oracle allocated ~200 B per query per party)
   blows these bounds. *)
let alloc_per_round protocol =
  Pool.set_default_jobs 1;
  let params = Exp.default_params () in
  let config = Runs.config ~protocol ~rho:0.25 ~rounds:20_000 ~params ~seed:7L () in
  let before = Gc.allocated_bytes () in
  ignore (Runs.run config ~strategy:Runs.honest_coalition ());
  (Gc.allocated_bytes () -. before) /. 20_000.

let test_round_loop_allocation () =
  let nakamoto = alloc_per_round Sim_config.Nakamoto in
  Alcotest.(check bool)
    (Printf.sprintf "nakamoto round loop: %.0f B/round (bound 6300)" nakamoto)
    true (nakamoto < 6300.);
  let fruitchain = alloc_per_round Sim_config.Fruitchain in
  Alcotest.(check bool)
    (Printf.sprintf "fruitchain round loop: %.0f B/round (bound 16600)" fruitchain)
    true (fruitchain < 16600.)

(* The tracing share of a run's allocation: the bytes per round a
   buffering tracer adds over a metrics-only scope on one partition_small
   trial (spans, mints, snapshots and reorgs through a partition and its
   heal). Rendering a span's id once, when it opens, instead of at every
   hook, took it from ~3430 to ~1320 B/round; the bound keeps 1.5x
   headroom over the latter. *)
let traced_alloc_per_round () =
  Pool.set_default_jobs 1;
  let s = scenario_fixture () in
  let alloc scope =
    let before = Gc.allocated_bytes () in
    ignore (Driver.run ~scope s);
    Gc.allocated_bytes () -. before
  in
  let metrics_only = alloc (Scope.make ~metrics:(Metrics.create ()) ()) in
  let traced = alloc (Scope.make ~metrics:(Metrics.create ()) ~tracer:(Tracer.buffer ()) ()) in
  (traced -. metrics_only) /. float_of_int s.Scenario.rounds

let test_tracing_allocation () =
  let per_round = traced_alloc_per_round () in
  Alcotest.(check bool)
    (Printf.sprintf "tracer over metrics-only: %.0f B/round (bound 2000)" per_round)
    true (per_round < 2000.)

let () =
  Alcotest.run "determinism"
    [
      ( "jobs invariance (quick scale)",
        List.map
          (fun (module E : Exp.EXPERIMENT) ->
            Alcotest.test_case E.id `Slow (test_jobs_invariance (module E)))
          Registry.all );
      ( "repeat stability (parallel sweeps)",
        List.filter_map
          (fun id ->
            Option.map
              (fun (module E : Exp.EXPERIMENT) ->
                Alcotest.test_case E.id `Slow (test_repeat_stability (module E)))
              (Registry.find id))
          parallel_ids );
      ( "fruitscope invariance (metrics + trace)",
        List.filter_map
          (fun id ->
            Option.map
              (fun (module E : Exp.EXPERIMENT) ->
                Alcotest.test_case E.id `Slow (test_scope_invariance (module E)))
              (Registry.find id))
          scoped_ids );
      ( "scenario invariance (fruitstorm)",
        [
          Alcotest.test_case "partition_small jobs 1 == 4" `Slow
            test_scenario_jobs_invariance;
          Alcotest.test_case "partition_small repeat stability" `Slow
            test_scenario_repeat_stability;
        ] );
      ( "hot-path soak (PR 5)",
        [
          Alcotest.test_case "100k-round sweep jobs 1 == 4" `Slow test_soak_jobs_invariance;
          Alcotest.test_case "round-loop allocation bound" `Slow test_round_loop_allocation;
          Alcotest.test_case "tracing allocation bound" `Slow test_tracing_allocation;
        ] );
    ]
