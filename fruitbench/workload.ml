(* The four fruitbench workloads, the simulation each one repeats, and the
   output check every repetition must pass.

   A workload is a closed loop: one simulation starts when the previous
   one has finished. Its inputs are a pure function of the benchmark seed
   (each workload's config seed is [Rng.derive seed ~index]), so the same
   seed always yields the same simulations and, by the determinism
   contract, the same digests. *)

module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Strategy = Fruitchain_sim.Strategy
module Params = Fruitchain_core.Params
module Runs = Fruitchain_experiments.Runs
module Validate = Fruitchain_chain.Validate
module Oracle = Fruitchain_crypto.Oracle
module Hash = Fruitchain_crypto.Hash
module Rng = Fruitchain_util.Rng
module Pool = Fruitchain_util.Pool
module Table = Fruitchain_util.Table
module Scenario = Fruitchain_scenario.Scenario
module Loader = Fruitchain_scenario.Loader
module Driver = Fruitchain_scenario.Driver
module Metrics = Fruitchain_obs.Metrics
module Scope = Fruitchain_obs.Scope
module Tracer = Fruitchain_obs.Tracer
module Flight = Fruitchain_obs.Flight

type kind = Exact_honest | Exact_selfish | Sparse_scale | Observed_partition

type t = { name : string; kind : kind; index : int }

(* Why each workload exists: BENCHMARK.json and README.md. The index
   selects the workload's stream under the benchmark seed. *)
let all =
  [
    { name = "exact-honest"; kind = Exact_honest; index = 0 };
    { name = "exact-selfish"; kind = Exact_selfish; index = 1 };
    { name = "sparse-scale"; kind = Sparse_scale; index = 2 };
    { name = "observed-partition"; kind = Observed_partition; index = 3 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Where the observed workload writes its trace and flight dumps, relative
   to the directory the benchmark runs from (the repository root). *)
let out_dir = ".fruitbench"
let scenario_file = Filename.concat "fruitbench" "partition.json"
let observed_jobs = 2

(* --- What one simulation is ------------------------------------------- *)

(* [rounds] overrides the workload's run length (set-up timing uses 1, the
   self-test a miniature); [None] is the benchmark size. Repetition [rep]
   of a run simulates its own inputs, derived from the benchmark seed, so
   a run's median also averages over inputs. *)
type job =
  | Engine_run of { config : Config.t; strategy : (module Strategy.S) }
  | Scenario_run of { scenario : Scenario.t; jobs : int }

let exact_params = Params.make ~recency_r:4 ~p:0.002 ~pf:0.02 ~kappa:8 ()

let exact_config ~n ~rho ~rounds ~seed =
  Config.make ~protocol:Config.Fruitchain ~engine:Config.Exact ~n ~rho ~delta:2 ~rounds ~seed
    ~snapshot_interval:(min 50 rounds) ~head_snapshot_interval:(min 500 rounds)
    ~params:exact_params ()

let sparse_n = 100_000

let sparse_config ~rounds ~seed =
  let p = 0.01 /. float_of_int sparse_n in
  let params = Params.make ~recency_r:4 ~p ~pf:(50.0 *. p) ~kappa:8 () in
  let every = max 1 (rounds / 4) in
  Config.make ~protocol:Config.Fruitchain ~engine:Config.Sparse ~n:sparse_n ~rho:0.25 ~delta:2
    ~rounds ~seed ~snapshot_interval:every ~head_snapshot_interval:every ~params ()

let default_rounds = function
  | Exact_honest -> 800
  | Exact_selfish -> 40_000
  | Sparse_scale -> 500_000
  | Observed_partition -> 6_000

let load_scenario () =
  match Loader.load scenario_file with
  | Ok s -> s
  | Error diags -> failwith (String.concat "; " (List.map Loader.to_string_diag diags))

let job ?rounds ?trials ?(rep = 0) w ~seed =
  let seed = Rng.derive (Rng.derive (Int64.of_int seed) ~index:w.index) ~index:rep in
  let rounds = Option.value rounds ~default:(default_rounds w.kind) in
  match w.kind with
  | Exact_honest ->
      Engine_run
        { config = exact_config ~n:200 ~rho:0.25 ~rounds ~seed; strategy = Runs.honest_coalition }
  | Exact_selfish ->
      Engine_run
        { config = exact_config ~n:20 ~rho:0.3 ~rounds ~seed; strategy = Runs.selfish ~gamma:0.5 }
  | Sparse_scale -> Engine_run { config = sparse_config ~rounds ~seed; strategy = Runs.honest_coalition }
  | Observed_partition ->
      let s = load_scenario () in
      let trials = Option.value trials ~default:s.trials in
      Scenario_run { scenario = { s with rounds; seed; trials }; jobs = observed_jobs }

(* --- Running it ---------------------------------------------------------- *)

(* What a simulation leaves behind for the output check. *)
type output =
  | Engine_output of Trace.t
  | Scenario_output of { table : string; metrics_dump : string; queries : int option; blocks : int;
                  trace_lines : int; flight_dumps : int }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_out_dir () =
  remove_tree out_dir;
  Sys.mkdir out_dir 0o755;
  Sys.mkdir (Filename.concat out_dir "flight") 0o755

(* The observers a scenario run carries: a metrics registry, a JSONL
   tracer streaming to a file, and a flight recorder. Any may be left off,
   which is how the observer-overhead matrix builds its rows. *)
type observers = { metrics : bool; tracer : bool; flight : bool }

let all_observers = { metrics = true; tracer = true; flight = true }

let run_scenario ?(observers = all_observers) ~jobs scenario =
  let registry = Metrics.create () in
  let tracer =
    if observers.tracer then Some (Tracer.to_file (Filename.concat out_dir "trace.jsonl"))
    else None
  in
  let flight =
    if observers.flight then
      Some (Flight.create ~prefix:(Filename.concat out_dir (Filename.concat "flight" "dump-")) ())
    else None
  in
  let metrics = if observers.metrics then Some registry else None in
  Pool.set_scope (Scope.make ?metrics ?tracer ?flight ());
  let trials =
    Fun.protect
      ~finally:(fun () ->
        Pool.set_scope Scope.null;
        Option.iter Tracer.close tracer)
      (fun () -> Driver.run_trials ~jobs scenario)
  in
  Scenario_output
    {
      table = Table.to_string (Driver.table scenario trials);
      metrics_dump = Metrics.dump registry;
      queries = (if observers.metrics then Metrics.get_counter registry "oracle.queries" else None);
      blocks = List.fold_left (fun acc (t : Driver.trial) -> acc + t.blocks) 0 trials;
      trace_lines = Option.fold ~none:0 ~some:Tracer.emitted tracer;
      flight_dumps = Option.fold ~none:0 ~some:Flight.dumps flight;
    }

let run job =
  match job with
  | Engine_run { config; strategy } -> Engine_output (Engine.run ~config ~strategy ~scope:Scope.null ())
  | Scenario_run { scenario; jobs } -> run_scenario ~jobs scenario

(* Effective simulated oracle attempts: the throughput numerator. *)
let queries = function
  | Engine_output trace -> Some (Trace.oracle_queries trace)
  | Scenario_output o -> o.queries

(* --- The output check ---------------------------------------------------- *)

(* An MD5 chain over a canonical rendering, flushed in 64 KiB pieces so a
   sparse run's ~10⁶ events never sit in one string. *)
module Fold = struct
  type t = { buf : Buffer.t; mutable acc : string }

  let create () = { buf = Buffer.create 65_536; acc = "" }

  let flush t =
    t.acc <- Digest.string (t.acc ^ Buffer.contents t.buf);
    Buffer.clear t.buf

  let add t s =
    Buffer.add_string t.buf s;
    if Buffer.length t.buf >= 65_536 then flush t

  let int t i = add t (string_of_int i ^ ",")

  let finish t =
    flush t;
    Digest.to_hex t.acc
end

(* Events, final heads and query count: everything a run decides. *)
let trace_digest trace =
  let d = Fold.create () in
  Trace.iter_events trace ~f:(fun (e : Trace.event) ->
      Fold.int d e.round;
      Fold.int d e.miner;
      Fold.add d (if e.honest then "h" else "a");
      Fold.add d (match e.kind with `Fruit -> "f" | `Block -> "b");
      Fold.add d (Hash.to_raw e.hash));
  Array.iter (fun h -> Fold.add d (Hash.to_raw h)) (Trace.final_heads trace);
  Fold.int d (Trace.oracle_queries trace);
  Fold.finish d

let digest = function
  | Engine_output trace -> trace_digest trace
  | Scenario_output o ->
      let d = Fold.create () in
      Fold.add d o.table;
      Fold.add d o.metrics_dump;
      Fold.int d o.flight_dumps;
      Fold.finish d

let expected_queries = function
  | Engine_run { config; _ } -> config.Config.n * config.Config.rounds
  | Scenario_run { scenario = s; _ } -> s.n * s.rounds * s.trials

(* The query budget is spent exactly: n attempts per round, per trial.
   Only a run with a metrics registry can report its scenario count. *)
let query_errors job output =
  let want = expected_queries job in
  match queries output with
  | Some q when q <> want -> [ Printf.sprintf "oracle queries %d <> n*rounds %d" q want ]
  | Some _ | None -> []

let is_block (e : Trace.event) = match e.kind with `Block -> true | `Fruit -> false

(* Invariants that hold at every seed: the query budget is spent exactly,
   the run minted at least one block, and on the exact plane the honest
   final chain is valid (digests, links, difficulty, fruit recency). *)
let invariant_errors job output =
  let minted =
    match output with
    | Engine_output trace ->
        let blocks = ref 0 in
        Trace.iter_events trace ~f:(fun e -> if is_block e then incr blocks);
        !blocks
    | Scenario_output o -> o.blocks
  in
  let chain =
    match (job, output) with
    | Engine_run { config = { engine = Config.Exact; params; _ }; _ }, Engine_output trace -> (
        let oracle = Oracle.sim ~p:params.Params.p ~pf:params.Params.pf (Rng.of_seed 0L) in
        match
          Validate.valid_chain oracle ~recency:(Some (Params.recency_window params))
            (Trace.honest_final_chain trace)
        with
        | Ok () -> []
        | Error e -> [ Format.asprintf "honest final chain invalid: %a" Validate.pp_chain_error e ])
    | _ -> []
  in
  query_errors job output @ (if minted = 0 then [ "no block minted" ] else []) @ chain
