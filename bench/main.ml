(* The reproduction harness: every registered experiment (E01–E22) at
   full scale, printing the tables and figures recorded in EXPERIMENTS.md,
   then the engine headline. Per-layer and micro timings live in
   fruitbench/ (see BENCHMARK.json).

   Run with: dune exec bench/main.exe            (full, ~5 minutes at 1 job)
            dune exec bench/main.exe -- --quick  (reduced scale)
            dune exec bench/main.exe -- --jobs N (worker domains for the
            experiment sweeps; default: available cores, 1 = sequential)
            dune exec bench/main.exe -- --json PATH    (machine-readable
            BENCH.json telemetry: schema fruitchains-bench/1)
            dune exec bench/main.exe -- --trace PATH   (JSONL event trace
            of the reproduction runs)
            dune exec bench/main.exe -- --metrics PATH (deterministic
            metric dump of the reproduction runs) *)

module Exp = Fruitchain_experiments.Exp
module Registry = Fruitchain_experiments.Registry
module Runs = Fruitchain_experiments.Runs
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Pool = Fruitchain_util.Pool
module Clock = Fruitchain_obs.Clock
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Scope = Fruitchain_obs.Scope
module Json = Fruitchain_obs.Json
module Sha256 = Fruitchain_crypto.Sha256

(* --- The reproduction tables ---------------------------------------------- *)

(* The throughput figure of BENCH.json: instrumented simulator events the
   reproduction performed (oracle queries dominate; deliveries, mints and
   probes ride along). A pure function of the golden counters, so it is
   identical at every worker count — only events_per_sec varies. *)
let events_total m =
  List.fold_left
    (fun acc name -> acc + Option.value ~default:0 (Metrics.get_counter m name))
    0
    [
      "oracle.queries";
      "net.delivered";
      "sim.mint.fruit.honest";
      "sim.mint.fruit.adversary";
      "sim.mint.block.honest";
      "sim.mint.block.adversary";
      "sim.probes";
    ]

(* Wall-clock and cpu time via the blessed clock home (Obs.Clock): reporting
   and telemetry only, never fed into the simulation. Returns per-experiment
   timings (with the event-counter delta each experiment contributed, so
   BENCH.json can gate per-experiment throughput) plus the total. *)
let run_tables ~registry scale =
  Printf.printf "== reproduction: every table and figure (scale: %s, jobs: %d) ==\n\n"
    (match scale with Exp.Full -> "full" | Exp.Quick -> "quick")
    (Pool.default_jobs ());
  let t_all = Clock.now_s () in
  let timings =
    List.map
      (fun (module E : Exp.EXPERIMENT) ->
        let e0 = events_total registry in
        let c0 = Clock.cpu_s () in
        let t0 = Clock.now_s () in
        let outcome = E.run ~scale () in
        Exp.print Format.std_formatter outcome;
        let wall = Clock.now_s () -. t0 and cpu = Clock.cpu_s () -. c0 in
        let events = events_total registry - e0 in
        Printf.printf "(%s took %.1fs wall, %.1fs cpu)\n\n%!" E.id wall cpu;
        (E.id, wall, cpu, events))
      Registry.all
  in
  let total = Clock.now_s () -. t_all in
  Printf.printf "(all tables took %.1fs wall at %d jobs)\n%!" total (Pool.default_jobs ());
  (timings, total)

(* --- Engine headline ---------------------------------------------------- *)

(* Effective simulated oracle attempts per wall second on each plane. The
   exact engine's per-query cost is configuration-independent, so it is
   timed at a size it can finish quickly; the sparse plane is timed at an
   E22-style population (n = 10⁴, n·p fixed) where its aggregate sampling
   pays off. The ratio is the speedup headline carried in BENCH.json
   ("engines") and guarded by tools/bench_check. *)
let engine_headline () =
  let time config =
    let t0 = Clock.now_s () in
    let trace = Engine.run ~config ~strategy:Runs.honest_coalition () in
    let wall = Clock.now_s () -. t0 in
    float_of_int (Trace.oracle_queries trace) /. Float.max 1e-9 wall
  in
  let exact =
    let params = Params.make ~recency_r:4 ~p:0.002 ~pf:0.02 ~kappa:4 () in
    time
      (Config.make ~protocol:Config.Fruitchain ~engine:Config.Exact ~n:200 ~rho:0.25
         ~delta:2 ~rounds:5_000 ~seed:9L ~params ())
  in
  let sparse =
    let n = 10_000 and rounds = 50_000 in
    let p = 0.01 /. float_of_int n in
    let params = Params.make ~recency_r:4 ~p ~pf:(50.0 *. p) ~kappa:4 () in
    time
      (Config.make ~protocol:Config.Fruitchain ~engine:Config.Sparse ~n ~rho:0.25 ~delta:2
         ~rounds ~seed:9L ~snapshot_interval:rounds ~head_snapshot_interval:rounds ~params ())
  in
  Printf.printf "== engine headline (effective oracle attempts per second) ==\n\n";
  Printf.printf "exact  (n=200, 5k rounds):    %12.0f events/s\n" exact;
  Printf.printf "sparse (n=10k, 50k rounds):   %12.0f events/s  (%.0fx)\n\n%!" sparse
    (sparse /. exact);
  (exact, sparse)

let bench_json ~scale ~jobs ~timings ~total ~engines ~registry ~tracer =
  let exact_rate, sparse_rate = engines in
  Json.Obj
    [
      ("schema", Json.Str "fruitchains-bench/1");
      ("scale", Json.Str (match scale with Exp.Full -> "full" | Exp.Quick -> "quick"));
      ("jobs", Json.Int jobs);
      (* Wall times from hosts with and without the SHA extensions differ
         by the block function alone; say which one ran. *)
      ("sha256_block", Json.Str (if Sha256.accelerated then "sha-ext" else "portable"));
      ("total_wall_s", Json.Float total);
      ( "experiments",
        Json.List
          (List.map
             (fun (id, wall, cpu, events) ->
               Json.Obj
                 [
                   ("id", Json.Str id);
                   ("wall_s", Json.Float wall);
                   ("cpu_s", Json.Float cpu);
                   ("events", Json.Int events);
                   ( "events_per_sec",
                     Json.Float
                       (if wall > 0.0 then float_of_int events /. wall else 0.0) );
                 ])
             timings) );
      ("events", Json.Int (events_total registry));
      ( "events_per_sec",
        Json.Float (if total > 0.0 then float_of_int (events_total registry) /. total else 0.0)
      );
      ( "engines",
        Json.Obj
          [
            ("exact_events_per_sec", Json.Float exact_rate);
            ("sparse_events_per_sec", Json.Float sparse_rate);
            ("speedup", Json.Float (sparse_rate /. Float.max 1e-9 exact_rate));
          ] );
      ( "trace",
        Json.Obj
          [
            ("enabled", Json.Bool (match tracer with Some _ -> true | None -> false));
            ( "lines",
              Json.Int (match tracer with Some t -> Tracer.emitted t | None -> 0) );
          ] );
      ("metrics", Metrics.to_json registry);
    ]

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  (* --jobs N: worker domains for parallel experiment units; defaults to the
     available cores, --jobs 1 restores the fully sequential path. *)
  let rec parse_jobs = function
    | "--jobs" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Pool.set_default_jobs n
        | Some _ | None ->
            prerr_endline "bench: --jobs expects a positive integer";
            exit 2)
    | _ :: rest -> parse_jobs rest
    | [] -> ()
  in
  parse_jobs args;
  let path_opt flag =
    let rec go = function
      | f :: p :: _ when f = flag -> Some p
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let json_path = path_opt "--json" in
  let trace_path = path_opt "--trace" in
  let metrics_path = path_opt "--metrics" in
  let scale = if quick then Exp.Quick else Exp.Full in
  (* The reproduction runs under a fruitscope scope so BENCH.json can
     carry a metric snapshot. Installed around the tables only, so the
     engine headline's timing runs stay unobserved. *)
  let registry = Metrics.create () in
  let tracer = Option.map Tracer.to_file trace_path in
  Pool.set_scope (Scope.make ~metrics:registry ?tracer ());
  let timings, total = run_tables ~registry scale in
  Pool.set_scope Scope.null;
  let engines = engine_headline () in
  Option.iter Tracer.close tracer;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Metrics.dump registry);
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics written to %s\n%!" path)
    metrics_path;
  Option.iter
    (fun path ->
      let jobs = Pool.default_jobs () in
      let doc = bench_json ~scale ~jobs ~timings ~total ~engines ~registry ~tracer in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "bench telemetry written to %s\n%!" path)
    json_path
