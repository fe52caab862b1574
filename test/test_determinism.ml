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

(* --- Flight recorder -----------------------------------------------------

   Flight dumps carry the same contract as traces: the set of dump files
   (how many, their names, their bytes) is a function of the work, not of
   the worker count, with a user tracer attached or not. Without one, a
   pool unit records into a bounded fork of the recorder, and the parent
   rebuilds each dump from its own ring's newest lines and the fork's
   copy of its ring at the anomaly. *)

module Flight = Fruitchain_obs.Flight
module Json = Fruitchain_obs.Json

let flight_prefix = "flight-test-"

(* The dump files a recorder wrote, in order, as (name, bytes); each is
   removed once read, so the next run starts from none. *)
let take_dumps flight =
  let read i =
    let path = Printf.sprintf "%s%04d.json" flight_prefix i in
    let ic = open_in_bin path in
    let bytes =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Sys.remove path;
    (path, bytes)
  in
  let dumps = List.init (Flight.dumps flight) read in
  Alcotest.(check bool)
    "no dump file past the recorder's count" false
    (Sys.file_exists (Printf.sprintf "%s%04d.json" flight_prefix (Flight.dumps flight)));
  dumps

(* Runs [work] under a scope with metrics, a flight recorder of
   [capacity] and, if [traced], a user tracer; returns what [work]
   returned, the dumps, and the trace. *)
let with_flight ?capacity ~jobs ~traced work =
  Pool.set_default_jobs jobs;
  let flight = Flight.create ?capacity ~prefix:flight_prefix () in
  let tracer = if traced then Some (Tracer.buffer ()) else None in
  Pool.set_scope (Scope.make ~metrics:(Metrics.create ()) ?tracer ~flight ());
  let result = Fun.protect ~finally:(fun () -> Pool.set_scope Scope.null) work in
  (result, take_dumps flight, Option.fold ~none:[] ~some:Tracer.lines tracer)

let dumps = Alcotest.(list (pair string string))

let flight_fixture () =
  match Loader.load "fixtures/scenarios/flight_small.json" with
  | Ok s -> s
  | Error _ -> Alcotest.fail "flight fixture scenario must load"

let test_flight_scenario () =
  let s = flight_fixture () in
  let run ~jobs ~traced =
    let trials, dumps, _ = with_flight ~jobs ~traced (fun () -> Driver.run_trials s) in
    Alcotest.(check int)
      "every trial violates kappa" s.Scenario.trials
      (List.length (List.filter (fun (t : Driver.trial) -> t.consistency_violation) trials));
    dumps
  in
  let reference = run ~jobs:1 ~traced:false in
  Alcotest.(check int) "one dump per trial" s.Scenario.trials (List.length reference);
  List.iter
    (fun (jobs, traced) ->
      Alcotest.check dumps
        (Printf.sprintf "dumps at --jobs %d %s equal --jobs 1 without" jobs
           (if traced then "with a tracer" else "without a tracer"))
        reference (run ~jobs ~traced))
    [ (1, true); (2, false); (2, true); (4, false); (4, true) ]

(* Synthetic units on a ring of 8 lines, so every case crosses the ring's
   edge: each unit emits lines, raises anomalies and may raise, through
   the ambient scope, as pool units do. A last anomaly after the map dumps
   the parent's final ring. Each unit bumps a counter before anything
   else: a dump embeds the registry with its unit wholly merged, so a
   count taken after a unit's anomaly would differ from --jobs 1. *)
type step = Emit of int | Anomaly | Raise

let run_units ~jobs ~traced units =
  let units = Array.of_list units in
  let raised, dumps, lines =
    with_flight ~capacity:8 ~jobs ~traced (fun () ->
        let raised =
          match
            Pool.map (Array.length units) ~f:(fun u ->
                let scope = Pool.current_scope () in
                Scope.incr scope "units";
                List.iteri
                  (fun k step ->
                    match step with
                    | Emit lines ->
                        for line = 1 to lines do
                          Scope.emit scope "line"
                            [ ("unit", Json.Int u); ("step", Json.Int k); ("line", Json.Int line) ]
                        done
                    | Anomaly ->
                        Scope.anomaly scope ~reason:(Printf.sprintf "unit %d" u)
                          [ ("step", Json.Int k) ]
                    | Raise -> failwith (Printf.sprintf "unit %d" u))
                  units.(u))
          with
          | _ -> None
          | exception Failure msg -> Some msg
        in
        Scope.anomaly (Pool.current_scope ()) ~reason:"after the map" [];
        raised)
  in
  (raised, dumps, lines)

let flight_case units () =
  List.iter
    (fun traced ->
      let raised, reference, lines = run_units ~jobs:1 ~traced units in
      List.iter
        (fun jobs ->
          let raised', dumps', lines' = run_units ~jobs ~traced units in
          let at = Printf.sprintf "--jobs %d%s" jobs (if traced then ", traced" else "") in
          Alcotest.(check (option string)) ("the same failure at " ^ at) raised raised';
          Alcotest.check dumps ("the same dumps at " ^ at) reference dumps';
          Alcotest.(check (list string)) ("the same trace at " ^ at) lines lines')
        [ 2; 4 ])
    [ false; true ]

let flight_cases =
  [
    ( "a unit short of the ring takes the parent's tail",
      [ [ Emit 12 ]; [ Emit 3; Anomaly; Emit 2 ]; [ Emit 5 ] ] );
    ( "a unit with two anomalies",
      [ [ Emit 5 ]; [ Emit 10; Anomaly; Emit 4; Anomaly; Emit 1 ]; [ Emit 1; Anomaly ] ] );
    ("a unit that emits nothing", [ [ Emit 6 ]; []; [ Emit 1; Anomaly ] ]);
    ("a unit that raises", [ [ Emit 9 ]; [ Emit 2; Anomaly ]; [ Emit 2; Anomaly; Emit 1; Raise ] ]);
  ]

(* A dump that cannot be written raises from [Pool.map] at any worker
   count, and no unit's scope after the one that raised it is merged: at
   --jobs 1 the later units never run. *)
let test_flight_unwritable () =
  let run jobs =
    Pool.set_default_jobs jobs;
    let registry = Metrics.create () in
    let flight = Flight.create ~prefix:"/nonexistent/dir/flight-" () in
    Pool.set_scope (Scope.make ~metrics:registry ~flight ());
    let raised =
      Fun.protect
        ~finally:(fun () -> Pool.set_scope Scope.null)
        (fun () ->
          match
            Pool.map 3 ~f:(fun u ->
                let scope = Pool.current_scope () in
                Scope.incr scope "units";
                Scope.anomaly scope ~reason:"unwritable" [ ("unit", Json.Int u) ])
          with
          | _ -> false
          | exception Sys_error _ -> true)
    in
    (raised, Metrics.dump registry)
  in
  let reference = run 1 in
  Alcotest.(check bool) "the failed dump raises at --jobs 1" true (fst reference);
  List.iter
    (fun jobs ->
      Alcotest.(check (pair bool string))
        (Printf.sprintf "the same failure and registry at --jobs %d" jobs)
        reference (run jobs))
    [ 2; 4 ]

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

(* Words allocated by [f ()], from a full major collection. The minor
   share is read from [Gc.minor_words]: on OCaml 5.1, [Gc.counters] (and
   so [Gc.allocated_bytes]) counts the unfinished minor heap at an eighth
   of its size, so a small allocation reads about 8x too low. *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.full_major ();
  let before = words () in
  let result = f () in
  (result, words () -. before)

(* Allocation regression tripwire for the round loop, in bytes per round
   at quick-scale parameters: 603 (Nakamoto) and 1,970 (FruitChain) in
   the dev profile, 600 and 1,827 in release, dominated by trace events
   and message delivery, with an idle party-round allocation-free (closures
   around each step's empty inbox and outbox, and three a round over the
   schedules, cost ~1,800 B/round more; a boxed float per Bernoulli draw
   and a boxed Int64 per bounded draw ~640 B/round more). Runs are seeded and sequential, and each
   measurement starts from a full major collection, so it is
   deterministic. Each bound is 1.5x the
   larger of the two: the headroom covers code drift, not noise, and a
   doubling of either loop's allocation fails it, as would reintroducing
   per-query boxing (the pre-rewrite oracle allocated ~200 B per query per
   party). *)
let alloc_per_round protocol =
  Pool.set_default_jobs 1;
  let params = Exp.default_params () in
  let config = Runs.config ~protocol ~rho:0.25 ~rounds:20_000 ~params ~seed:7L () in
  let (), words =
    allocated_words (fun () -> ignore (Runs.run config ~strategy:Runs.honest_coalition ()))
  in
  words *. float_of_int (Sys.word_size / 8) /. 20_000.

let test_round_loop_allocation () =
  let nakamoto = alloc_per_round Sim_config.Nakamoto in
  Alcotest.(check bool)
    (Printf.sprintf "nakamoto round loop: %.0f B/round (bound 905)" nakamoto)
    true (nakamoto < 905.);
  let fruitchain = alloc_per_round Sim_config.Fruitchain in
  Alcotest.(check bool)
    (Printf.sprintf "fruitchain round loop: %.0f B/round (bound 2955)" fruitchain)
    true (fruitchain < 2955.)

(* Retention tripwire for the FruitChain round loop: words promoted to the
   major heap per round, at n = 100 under the honest coalition. Nearly
   every fruit reaches every party, and each party's buffer holds it for
   the ~80 rounds its hang point stays in the window, so whatever a buffer
   keeps per received fruit survives the minor heap. With one copy of each
   fruit per run (the fruit plane) the loop promoted 171 words per round in
   both build profiles (28 at n = 20), and 168 in release and 170 in dev
   once an idle party-round stopped allocating; with a cons cell per
   receipt it promoted 695 (45 at n = 20). The bound is 1.5x that 171. Promotions
   happen at minor collections, which fall at the same allocations in
   every run, so the count is exact. *)
let promoted_per_round () =
  Pool.set_default_jobs 1;
  let params = Exp.default_params () in
  let config =
    Runs.config ~n:100 ~protocol:Sim_config.Fruitchain ~rho:0.25 ~rounds:20_000 ~params ~seed:7L ()
  in
  Gc.full_major ();
  let _, before, _ = Gc.counters () in
  ignore (Runs.run config ~strategy:Runs.honest_coalition ());
  let _, after, _ = Gc.counters () in
  (after -. before) /. 20_000.

let test_round_loop_retention () =
  let per_round = promoted_per_round () in
  Alcotest.(check bool)
    (Printf.sprintf "fruitchain round loop at n = 100: %.0f promoted words/round (bound 257)"
       per_round)
    true (per_round < 257.)

(* Idle-round tripwire: a party that receives nothing, relays nothing and
   loses its query allocates nothing. At n = 200 and difficulties at which
   no query wins (p = 10^-15, p_f = 10^-14), with a null scope, what is
   left is per round (the strategy's step, the engine's broadcast list,
   height snapshots) spread over 200 parties: 0.26 words per party-round
   in both build profiles, against 14.4 when each step built closures
   around its empty lists (1.9 against 16.9 at n = 20). The bound is 1.5x
   that 0.26, so one word per party-round fails it. *)
let idle_words_per_party_round () =
  Pool.set_default_jobs 1;
  let n = 200 and rounds = 20_000 in
  let params = Fruitchain_core.Params.make ~p:1e-15 ~pf:1e-14 ~kappa:8 () in
  let config = Sim_config.make ~n ~rounds ~seed:7L ~params () in
  let trace, words =
    allocated_words (fun () ->
        Fruitchain_sim.Engine.run ~config ~strategy:Runs.honest_coalition ~scope:Scope.null ())
  in
  (Sim_trace.oracle_queries trace, words /. float_of_int (n * rounds))

let test_idle_round_allocation () =
  let queries, per_party_round = idle_words_per_party_round () in
  Alcotest.(check int) "one query per party-round" (200 * 20_000) queries;
  Alcotest.(check bool)
    (Printf.sprintf "idle party-round: %.2f words (bound 0.39)" per_party_round)
    true (per_party_round < 0.39)

(* The tracing share of a run's allocation: the bytes per round a
   buffering tracer adds over a metrics-only scope on one partition_small
   trial (spans, mints, snapshots and reorgs through a partition and its
   heal), counted in words like the other tripwires: 704 B/round in both
   build profiles (1,206 when the JSON writer built a closure per string
   and per integer). The bound is 1.5x that. *)
let traced_alloc_per_round () =
  Pool.set_default_jobs 1;
  let s = scenario_fixture () in
  let alloc scope =
    let (), words = allocated_words (fun () -> ignore (Driver.run ~scope s)) in
    words *. float_of_int (Sys.word_size / 8)
  in
  let metrics_only = alloc (Scope.make ~metrics:(Metrics.create ()) ()) in
  let traced = alloc (Scope.make ~metrics:(Metrics.create ()) ~tracer:(Tracer.buffer ()) ()) in
  (traced -. metrics_only) /. float_of_int s.Scenario.rounds

let test_tracing_allocation () =
  let per_round = traced_alloc_per_round () in
  Alcotest.(check bool)
    (Printf.sprintf "tracer over metrics-only: %.0f B/round (bound 1056)" per_round)
    true (per_round < 1056.)

(* Network allocation tripwires, in words. A recipient's ring is made on
   its first delivery, so [Network.create] allocates the inbox array and
   nothing per party: the sparse plane, at n = 10^5, only calls
   [deliver_batch]. A delivery stores the broadcast's one shared message
   and its seq in the slot's grown arrays, and a drain emits the slot one
   priority class at a time without sorting, so a round of mixed-priority
   traffic allocates only the drained lists: 3 words per message. A
   per-party ring made up front, a per-delivery envelope or a sorted copy
   fails them. *)
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Rng = Fruitchain_util.Rng

let test_network_create_allocation () =
  let n = 100_000 in
  let net, words = allocated_words (fun () -> Network.create ~n ~delta:2 ()) in
  ignore (Sys.opaque_identity net);
  let per_party = words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "Network.create: %.2f words per party (bound 2)" per_party)
    true (per_party <= 2.)

let test_network_delivery_allocation () =
  let n = 64 and delta = 2 in
  let net = Network.create ~n ~delta () in
  let rng = Rng.of_seed 11L in
  let priorities =
    [| Message.rushed_priority; Message.honest_priority; Message.honest_priority + 10 |]
  in
  (* Even messages are broadcasts, odd ones targeted sends to every party:
     each recipient's slot gets 12 deliveries of three classes a round. *)
  let messages =
    Array.init 12 (fun i ->
        Message.chain_announce ~sender:i ~sent_at:0 ~priority:priorities.(i mod 3) ~blocks:[]
          ~head:Fruitchain_chain.Types.genesis.b_hash ())
  in
  let round now =
    for i = 0 to Array.length messages - 1 do
      if Int.equal (i mod 2) 0 then Network.broadcast net ~now ~rng messages.(i)
      else
        for recipient = 0 to n - 1 do
          Network.send_to net ~now ~recipient ~schedule:Network.Max_delay ~rng messages.(i)
        done
    done;
    let drained = ref 0 in
    for recipient = 0 to n - 1 do
      drained := !drained + List.length (Network.drain net ~round:now ~recipient)
    done;
    !drained
  in
  (* Grow every slot of every ring first. *)
  for now = 0 to 2 * (delta + 1) do
    ignore (round now)
  done;
  let drained, words = allocated_words (fun () -> round (2 * (delta + 1) + 1)) in
  Alcotest.(check int) "one round's deliveries drained" ((6 * (n - 1)) + (6 * n)) drained;
  let bound = (3. *. float_of_int drained) +. 64. in
  Alcotest.(check bool)
    (Printf.sprintf "one round of %d deliveries: %.0f words (bound %.0f)" drained words bound)
    true (words <= bound)

(* A delivery that a fault policy holds past Δ must not take a ring slot:
   in-window traffic to the same recipient keeps to the ring and allocates
   only the drained lists while the hold lasts. When the held delivery
   took the slot of its far-off round, every in-window round mapping to
   that slot spilled into the overflow table, one bucket and its arrays
   per round. *)
let test_network_held_allocation () =
  let delta = 2 and recipient = 0 and held_for = 1000 in
  let policy ~now:_ ~sender ~recipient:_ ~round =
    if Int.equal sender Message.adversary_sender then round + held_for else round
  in
  let net = Network.create ~policy ~n:2 ~delta () in
  let rng = Rng.of_seed 5L in
  let message sender =
    Message.chain_announce ~sender ~sent_at:0 ~blocks:[]
      ~head:Fruitchain_chain.Types.genesis.b_hash ()
  in
  let held = message Message.adversary_sender in
  Network.send_to net ~now:0 ~recipient ~schedule:Network.Max_delay ~rng held;
  let traffic = Array.init 4 (fun _ -> message 1) in
  let round now =
    for i = 0 to Array.length traffic - 1 do
      Network.send_to net ~now ~recipient ~schedule:Network.Max_delay ~rng traffic.(i)
    done;
    List.length (Network.drain net ~round:now ~recipient)
  in
  (* Grow every slot first. *)
  for now = 1 to delta + 1 do
    ignore (round now)
  done;
  let rounds = 30 in
  let drained, words =
    allocated_words (fun () ->
        let drained = ref 0 in
        for now = delta + 2 to delta + 1 + rounds do
          drained := !drained + round now
        done;
        !drained)
  in
  Alcotest.(check int) "in-window deliveries drained" (rounds * Array.length traffic) drained;
  let bound = (3. *. float_of_int drained) +. 64. in
  Alcotest.(check bool)
    (Printf.sprintf "%d rounds beside a held delivery: %.0f words (bound %.0f)" rounds words bound)
    true (words <= bound);
  Alcotest.(check int) "the held delivery arrives when its hold ends" 1
    (List.length (Network.drain net ~round:(delta + held_for) ~recipient))

module Oracle = Fruitchain_crypto.Oracle

(* The generator's hot entry points, its six-step draw and a losing
   sampled oracle query allocate nothing: the state is read and written as
   unboxed 64-bit words. [allocated_words] of an empty thunk is its own
   overhead. *)
let test_rng_allocation () =
  let calls = 100_000 in
  let g = Rng.of_seed 3L in
  let oracle = Oracle.sim ~p:1e-12 ~pf:1e-12 (Rng.of_seed 4L) in
  let sink = ref 0 in
  let cases =
    [
      ("Rng.draw", fun () -> Rng.draw g);
      ("Rng.draws 6", fun () -> Rng.draws g 6);
      ("Rng.bernoulli", fun () -> if Rng.bernoulli g 0.3 then incr sink);
      ("Rng.int", fun () -> sink := !sink + Rng.int g 7);
      ("losing Oracle.attempt", fun () -> sink := !sink + Oracle.attempt oracle "");
    ]
  in
  let (), overhead = allocated_words ignore in
  List.iter
    (fun (name, call) ->
      let (), words =
        allocated_words (fun () ->
            for _ = 1 to calls do
              call ()
            done)
      in
      Alcotest.(check (float 0.)) (Printf.sprintf "%s: words over %d calls" name calls) 0.
        (words -. overhead))
    cases;
  Alcotest.(check int) "the oracle never won" 0 (Oracle.block_wins oracle + Oracle.fruit_wins oracle)

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
      ( "flight recorder",
        Alcotest.test_case "flight_small dumps at --jobs 1, 2, 4" `Slow test_flight_scenario
        :: Alcotest.test_case "a dump that cannot be written" `Quick test_flight_unwritable
        :: List.map
             (fun (name, units) -> Alcotest.test_case name `Quick (flight_case units))
             flight_cases );
      ( "hot-path soak (PR 5)",
        [
          Alcotest.test_case "100k-round sweep jobs 1 == 4" `Slow test_soak_jobs_invariance;
          Alcotest.test_case "round-loop allocation bound" `Slow test_round_loop_allocation;
          Alcotest.test_case "round-loop retention bound" `Slow test_round_loop_retention;
          Alcotest.test_case "idle-round allocation bound" `Slow test_idle_round_allocation;
          Alcotest.test_case "tracing allocation bound" `Slow test_tracing_allocation;
          Alcotest.test_case "network create allocation" `Quick test_network_create_allocation;
          Alcotest.test_case "network delivery allocation" `Quick
            test_network_delivery_allocation;
          Alcotest.test_case "network held-delivery allocation" `Quick
            test_network_held_allocation;
          Alcotest.test_case "rng and oracle allocation" `Quick test_rng_allocation;
        ] );
    ]
