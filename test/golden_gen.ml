(* Golden generator: prints the rendered Quick-scale outcome of one
   experiment, exactly as bench/main.exe renders it (plus the trace,
   metrics, scenario and analyzer modes below). Used by the runtest
   diff rules in test/dune against the snapshots in test/fixtures/golden/;
   on an intentional table change, `dune promote` refreshes the snapshot.
   Runs at jobs=2 so every golden check also exercises the parallel path —
   by the determinism contract (test_determinism.ml) the bytes are the same
   at any worker count. *)

module Exp = Fruitchain_experiments.Exp
module Registry = Fruitchain_experiments.Registry
module Scenario = Fruitchain_scenario.Scenario
module Loader = Fruitchain_scenario.Loader
module Driver = Fruitchain_scenario.Driver
module Pool = Fruitchain_util.Pool
module Metrics = Fruitchain_obs.Metrics
module Scope = Fruitchain_obs.Scope
module Tracer = Fruitchain_obs.Tracer
module Runs = Fruitchain_experiments.Runs
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Sparse = Fruitchain_sim.Sparse

(* `golden_gen scenario FILE` pins the canonical re-serialization and the
   trial table; `golden_gen scenario-metrics FILE` pins the golden metric
   dump of the same run. Both at jobs=2, like the experiment goldens. *)
let scenario_golden ~dump file =
  match Loader.load file with
  | Error diags ->
      List.iter (fun d -> prerr_endline (Loader.to_string_diag d)) diags;
      exit 2
  | Ok s ->
      let registry = Metrics.create () in
      Pool.set_scope (Scope.make ~metrics:registry ());
      let trials =
        Fun.protect
          ~finally:(fun () -> Pool.set_scope Scope.null)
          (fun () -> Driver.run_trials s)
      in
      if dump then print_endline (Metrics.dump registry)
      else begin
        print_endline (Scenario.to_string s);
        print_string (Fruitchain_util.Table.to_string (Driver.table s trials))
      end

(* `golden_gen analyze FILE` pins the fruittrace analyzer's rendering of a
   committed mini-trace: any drift in the span schema, the percentile
   arithmetic, or the report layout shows up as a golden diff. *)
let analyze_golden file =
  let ic = open_in_bin file in
  let lines = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> ());
  print_string (Fruitchain_obs.Analyze.render (Fruitchain_obs.Analyze.summarize (List.rev !lines)))

(* `golden_gen trace PLANE` / `golden_gen metrics PLANE` pin the JSONL
   trace and the metric dump of one small run on the exact or sparse plane.
   The configuration reaches every run-level observation point: run.start,
   a corruption, an uncorruption, two gossip toggles, probes, height/net
   snapshots, mints, spans and run.end — and on the exact plane, selfish
   mining at gamma = 0.5 so head switches (reorg lines, adversary mints)
   appear too. *)
let sim_golden ~engine ~dump =
  let config =
    Config.make ~protocol:Config.Fruitchain ~engine ~n:8 ~rho:0.25 ~delta:2 ~rounds:150
      ~seed:2L ~corruption_schedule:[ (30, 1) ] ~uncorruption_schedule:[ (90, 1) ]
      ~gossip_schedule:[ (50, true); (120, false) ]
      ~snapshot_interval:50 ~head_snapshot_interval:100 ~probe_interval:50
      ~params:(Exp.default_params ~q:1.5 ~kappa:4 ~p:0.006 ())
      ()
  in
  let registry = Metrics.create () in
  let tracer = Tracer.buffer () in
  let scope = Scope.make ~metrics:registry ~tracer () in
  (match engine with
  | Config.Exact ->
      ignore (Engine.run ~config ~strategy:(Runs.selfish ~gamma:0.5) ~scope ())
  | Config.Sparse -> ignore (Sparse.run ~config ~scope ()));
  if dump then print_endline (Metrics.dump registry)
  else List.iter print_endline (Tracer.lines tracer)

let plane = function
  | "exact" -> Config.Exact
  | "sparse" -> Config.Sparse
  | other ->
      prerr_endline ("golden_gen: unknown plane " ^ other);
      exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "trace"; p ] -> sim_golden ~engine:(plane p) ~dump:false
  | [ _; "metrics"; p ] -> sim_golden ~engine:(plane p) ~dump:true
  | [ _; "scenario"; file ] ->
      Pool.set_default_jobs 2;
      scenario_golden ~dump:false file
  | [ _; "scenario-metrics"; file ] ->
      Pool.set_default_jobs 2;
      scenario_golden ~dump:true file
  | [ _; "analyze"; file ] -> analyze_golden file
  | [ _; id ] -> (
      Pool.set_default_jobs 2;
      match Registry.find id with
      | None ->
          prerr_endline ("golden_gen: unknown experiment " ^ id);
          exit 2
      | Some (module E) ->
          print_string (Format.asprintf "%a" Exp.print (E.run ~scale:Exp.Quick ())))
  | _ ->
      prerr_endline
        "usage: golden_gen EXX | golden_gen (trace|metrics) (exact|sparse) | golden_gen \
         scenario[-metrics] FILE | golden_gen analyze FILE";
      exit 2
