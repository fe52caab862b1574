(* The fruitchain CLI: run reproduction experiments, one-off simulations, and
   protocol demos from the command line. *)

open Cmdliner
module Exp = Fruitchain_experiments.Exp
module Registry = Fruitchain_experiments.Registry
module Runs = Fruitchain_experiments.Runs
module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Quality = Fruitchain_metrics.Quality
module Growth = Fruitchain_metrics.Growth
module Consistency = Fruitchain_metrics.Consistency
module Extract = Fruitchain_core.Extract
module Snapshot = Fruitchain_chain.Snapshot
module Store = Fruitchain_chain.Store
module Types = Fruitchain_chain.Types
module Pool = Fruitchain_util.Pool
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Scope = Fruitchain_obs.Scope
module Report = Fruitchain_obs.Report
module Flight = Fruitchain_obs.Flight
module Analyze = Fruitchain_obs.Analyze
module Json = Fruitchain_obs.Json

let scale_arg =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Run at reduced scale (seconds, noisier).")
  in
  Term.(const (fun q -> if q then Exp.Quick else Exp.Full) $ quick)

(* --jobs N: worker domains for the parallel experiment units (Runs.run_parallel
   on Fruitchain_util.Pool). Results are byte-identical for every N; the flag
   only changes wall-clock. *)
let jobs_arg =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel experiment work units (default: available \
             cores; 1 = fully sequential). Output is identical for every $(docv).")
  in
  Term.(
    const (fun j ->
        Option.iter (fun n -> Fruitchain_util.Pool.set_default_jobs n) j)
    $ jobs)

(* --metrics FILE / --trace FILE: fruitscope observability. The scope is
   installed as the calling domain's ambient scope (Pool.set_scope), so
   instrumented entry points — Engine.run and everything the worker pool
   fans out — pick it up without plumbing. Metric dumps are golden:
   byte-identical for every --jobs value. *)
let obs_arg =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic metric dump (canonical JSON, byte-identical for \
             every $(b,--jobs) value) to $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Stream structured simulator events as JSONL to $(docv).")
  in
  let flight =
    Arg.(
      value
      & opt string "flight-dump-"
      & info [ "flight" ] ~docv:"PREFIX"
          ~doc:
            "Flight-recorder dump file prefix: on an anomaly (e.g. a \
             kappa-consistency violation) the last events plus a metrics dump are \
             written to $(docv)NNNN.json.")
  in
  let no_flight =
    Arg.(
      value & flag
      & info [ "no-flight" ]
          ~doc:
            "Disable the always-on flight recorder (and, absent $(b,--metrics) / \
             $(b,--trace), all observability overhead).")
  in
  Term.(
    const (fun m t fp nf -> (m, t, (if nf then None else Some fp)))
    $ metrics $ trace $ flight $ no_flight)

let with_observability (metrics_path, trace_path, flight_prefix) f =
  match (metrics_path, trace_path, flight_prefix) with
  | None, None, None -> f ()
  | _ ->
      let registry = Option.map (fun _ -> Metrics.create ()) metrics_path in
      let tracer = Option.map Tracer.to_file trace_path in
      let flight = Option.map (fun prefix -> Flight.create ~prefix ()) flight_prefix in
      let scope = Scope.make ?metrics:registry ?tracer ?flight () in
      Pool.set_scope scope;
      Fun.protect
        ~finally:(fun () ->
          Pool.set_scope Scope.null;
          Option.iter Tracer.close tracer)
        f;
      (match (metrics_path, registry) with
      | Some path, Some m ->
          let oc = open_out path in
          output_string oc (Metrics.dump m);
          output_char oc '\n';
          close_out oc;
          Printf.printf "metrics written to %s\n" path
      | _ -> ());
      Option.iter (fun path -> Printf.printf "trace written to %s\n" path) trace_path;
      Option.iter
        (fun fl ->
          if Flight.dumps fl > 0 then
            Printf.eprintf "flight recorder: %d anomaly dump(s), last %s\n"
              (Flight.dumps fl)
              (Option.value ~default:"?" (Flight.last_dump fl)))
        flight

(* fruitchain list *)
let list_cmd =
  let doc = "List the reproduction experiments (tables and figures)." in
  let run () =
    List.iter (fun (id, title) -> Printf.printf "%-5s %s\n" id title) (Registry.ids ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* fruitchain run E07 [--quick] *)
let run_cmd =
  let doc = "Run one experiment by id (see $(b,list)); prints its table." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id, e.g. E07.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV to $(docv).")
  in
  let run () obs scale csv id =
    match Registry.find id with
    | None ->
        Printf.eprintf "unknown experiment %s; try `fruitchain list`\n" id;
        exit 1
    | Some (module E) ->
        with_observability obs (fun () ->
            let outcome = E.run ~scale () in
            Exp.print Format.std_formatter outcome;
            Option.iter
              (fun path ->
                let oc = open_out path in
                output_string oc (Fruitchain_util.Table.to_csv outcome.Exp.table);
                close_out oc;
                Printf.printf "csv written to %s\n" path)
              csv)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ jobs_arg $ obs_arg $ scale_arg $ csv_arg $ id_arg)

(* fruitchain all [--quick] *)
let all_cmd =
  let doc = "Run every experiment in order (the full reproduction)." in
  let run () obs scale =
    with_observability obs (fun () -> Registry.run_all ~scale Format.std_formatter)
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ jobs_arg $ obs_arg $ scale_arg)

(* fruitchain sim --protocol fruitchain --rho 0.3 ... *)
let sim_cmd =
  let doc = "Run a single parameterized simulation and print summary metrics." in
  let protocol =
    let protocol_conv =
      Arg.enum [ ("nakamoto", Config.Nakamoto); ("fruitchain", Config.Fruitchain) ]
    in
    Arg.(
      value & opt protocol_conv Config.Fruitchain & info [ "protocol" ] ~doc:"nakamoto | fruitchain.")
  in
  let engine =
    let engine_conv = Arg.enum [ ("exact", Config.Exact); ("sparse", Config.Sparse) ] in
    Arg.(
      value & opt engine_conv Config.Exact
      & info [ "engine" ]
          ~doc:
            "Simulation plane: $(b,exact) (reference, per-party-per-query) or $(b,sparse) \
             (aggregate win sampling; every party mines the converged chain, so it \
             requires $(b,--adversary honest) and exits 2 with any other adversary).")
  in
  let rho = Arg.(value & opt float 0.25 & info [ "rho" ] ~doc:"Corrupt power fraction.") in
  let gamma = Arg.(value & opt float 0.5 & info [ "gamma" ] ~doc:"Selfish-mining tie parameter.") in
  let n = Arg.(value & opt int 20 & info [ "n" ] ~doc:"Number of parties.") in
  let rounds = Arg.(value & opt int 50_000 & info [ "rounds" ] ~doc:"Execution length.") in
  let delta = Arg.(value & opt int 2 & info [ "delta" ] ~doc:"Network delay bound.") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Master seed.") in
  let p = Arg.(value & opt float 0.002 & info [ "p" ] ~doc:"Block hardness.") in
  let q = Arg.(value & opt float 10.0 & info [ "q" ] ~doc:"Fruit/block hardness ratio pf/p.") in
  let kappa = Arg.(value & opt int 8 & info [ "kappa" ] ~doc:"Security parameter kappa.") in
  let strategy =
    Arg.(
      value
      & opt (enum [ ("selfish", `Selfish); ("honest", `Honest); ("null", `Null) ]) `Selfish
      & info [ "adversary" ] ~doc:"selfish | honest | null.")
  in
  let save_chain =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-chain" ]
          ~docv:"FILE" ~doc:"Persist the canonical honest chain to $(docv) (see $(b,inspect)).")
  in
  let run protocol engine rho gamma n rounds delta seed p q kappa strategy save_chain obs =
    (match (engine, strategy) with
    | Config.Sparse, (`Selfish | `Null) ->
        Printf.eprintf
          "sim: --engine sparse simulates the honest coalition only; pass --adversary \
           honest (or use --engine exact)\n";
        exit 2
    | Config.Sparse, `Honest | Config.Exact, _ -> ());
    with_observability obs @@ fun () ->
    let params = Params.make ~p ~pf:(p *. q) ~kappa () in
    let config =
      Config.make ~protocol ~engine ~n ~rho ~delta ~rounds ~seed
        ~probe_interval:(rounds / 50) ~params ()
    in
    let strategy =
      match strategy with
      | `Selfish -> Runs.selfish ~gamma
      | `Honest -> Runs.honest_coalition
      | `Null -> Runs.null_delay
    in
    let trace = Runs.run config ~strategy () in
    let chain = Trace.honest_final_chain trace in
    let fruits = Extract.fruits_of_chain chain in
    Format.printf "config: %a@." Config.pp config;
    Format.printf "chain blocks: %d, ledger fruits: %d@." (List.length chain)
      (List.length fruits);
    Format.printf "adversarial block share: %.4f@."
      (Quality.adversarial_fraction (Quality.block_shares chain));
    if protocol = Config.Fruitchain then
      Format.printf "adversarial fruit share: %.4f@."
        (Quality.adversarial_fraction (Quality.fruit_shares fruits));
    let g = Growth.measure trace ~span_rounds:(max 1_000 (rounds / 20)) in
    Format.printf "block growth: mean %.5f, window min %.5f max %.5f per round@."
      g.Growth.mean_rate g.Growth.min_window_rate g.Growth.max_window_rate;
    let c = Consistency.measure trace in
    Format.printf "consistency: max divergence %d, max rollback %d@."
      c.Consistency.max_pairwise_divergence c.Consistency.max_future_rollback;
    if c.Consistency.max_pairwise_divergence > kappa || c.Consistency.max_future_rollback > kappa
    then
      Scope.anomaly (Trace.scope trace) ~reason:"consistency.kappa"
        [
          ("kappa", Json.Int kappa);
          ("max_divergence", Json.Int c.Consistency.max_pairwise_divergence);
          ("max_rollback", Json.Int c.Consistency.max_future_rollback);
        ];
    Option.iter
      (fun path ->
        Snapshot.save_chain ~path chain;
        Format.printf "chain saved to %s@." path)
      save_chain
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      const run $ protocol $ engine $ rho $ gamma $ n $ rounds $ delta $ seed $ p $ q $ kappa
      $ strategy $ save_chain $ obs_arg)

(* fruitchain inspect FILE *)
let inspect_cmd =
  let doc = "Load a persisted chain snapshot, check its structure, and summarize it." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Snapshot file.")
  in
  let run path =
    let chain = Snapshot.load_chain ~path in
    let fruits = Extract.fruits_of_chain chain in
    Format.printf "blocks: %d (excluding genesis: %d)@." (List.length chain)
      (List.length chain - 1);
    Format.printf "distinct fruits: %d, records: %d@." (List.length fruits)
      (List.length (Extract.ledger_of_chain chain));
    let sizes =
      List.fold_left (fun acc b -> acc + Fruitchain_chain.Codec.block_wire_size b) 0 (List.tl chain)
    in
    Format.printf "total wire size: %d bytes@." sizes;
    let shares = Quality.fruit_shares fruits in
    if Quality.total shares > 0 then
      Format.printf "provenance (if stamped) adversarial fruit share: %.4f@."
        (Quality.adversarial_fraction shares)
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ file_arg)

(* fruitchain report FILE *)
let report_cmd =
  let doc =
    "Summarize a fruitscope artifact: a metric dump ($(b,--metrics)), a JSONL trace \
     ($(b,--trace)), or a BENCH.json (bench $(b,--json)). The kind is detected from \
     the content."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Artifact file.")
  in
  let ev_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ev" ] ~docv:"NAME"
          ~doc:"Print only JSONL trace events named $(docv), raw, instead of a summary.")
  in
  let last_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N"
          ~doc:"Print only the final $(docv) matching trace lines, raw, instead of a summary.")
  in
  let run path ev last =
    let ic = open_in_bin path in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match (ev, last) with
    | None, None -> (
        match Report.summarize content with
        | Ok s -> print_string s
        | Error e ->
            Printf.eprintf "report: %s: %s\n" path e;
            exit 1)
    | _ -> (
        match Report.filter_trace ?ev ?last content with
        | Ok lines -> List.iter print_endline lines
        | Error e ->
            Printf.eprintf "report: %s: %s\n" path e;
            exit 1)
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ file_arg $ ev_arg $ last_arg)

(* fruitchain analyze FILE / fruitchain analyze --diff A B *)
let analyze_cmd =
  let doc =
    "Analyze a JSONL trace (fruittrace): fruit pending-time distributions vs the \
     recency bound, block propagation latency vs delta, reorg depth/duration, \
     per-party win share over round windows, anomaly counts. With $(b,--diff), \
     compare two traces' summaries column by column (exit 1 on any difference)."
  in
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Trace file(s).")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:"Compare the summaries of exactly two traces; print one line per \
                differing column, nothing when they agree.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the canonical JSON summary instead of text.")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N"
          ~doc:"Win-share window in rounds (default: rounds/10).")
  in
  let read_lines path =
    let ic = open_in_bin path in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.split_on_char '\n' content |> List.filter (fun l -> String.trim l <> "")
  in
  let run diff json window files =
    match (diff, files) with
    | false, [ path ] ->
        let summary = Analyze.summarize ?window (read_lines path) in
        if json then print_endline (Json.to_string summary)
        else print_string (Analyze.render summary)
    | true, [ a; b ] -> (
        let sa = Analyze.summarize ?window (read_lines a) in
        let sb = Analyze.summarize ?window (read_lines b) in
        match Analyze.diff sa sb with
        | [] -> ()
        | diffs ->
            List.iter print_endline diffs;
            exit 1)
    | false, _ ->
        Printf.eprintf "analyze: expected exactly one FILE (or --diff A B)\n";
        exit 2
    | true, _ ->
        Printf.eprintf "analyze --diff: expected exactly two FILEs\n";
        exit 2
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ diff_arg $ json_arg $ window_arg $ files_arg)

(* fruitchain scenario validate FILE / fruitchain scenario run FILE *)
module Scenario = Fruitchain_scenario.Scenario
module Loader = Fruitchain_scenario.Loader
module Driver = Fruitchain_scenario.Driver

(* Exit 1: the file parsed but the timeline is invalid (diagnostics on
   stderr, fruitlint's file:line:col: [Sn] shape). Exit 2: unreadable. *)
let load_or_exit path =
  match Loader.load path with
  | Ok s -> s
  | Error diags ->
      List.iter (fun d -> prerr_endline (Loader.to_string_diag d)) diags;
      exit (if List.exists (fun d -> d.Loader.code = "S0") diags then 2 else 1)

let scenario_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Scenario file (JSON; see examples/scenarios/).")

let scenario_validate_cmd =
  let doc =
    "Validate a scenario file. On success prints the canonical form (stable field \
     order, events sorted) and exits 0; otherwise prints $(b,file:line:col: [Sn] msg) \
     diagnostics to stderr and exits 1 (2 if the file is unreadable)."
  in
  let run path = print_endline (Scenario.to_string (load_or_exit path)) in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ scenario_file_arg)

let scenario_run_cmd =
  let doc =
    "Validate and run a scenario: all its trials fan out over $(b,--jobs) worker \
     domains, and the result table, metric dump and trace are byte-identical for \
     every worker count."
  in
  let run () obs path =
    let s = load_or_exit path in
    with_observability obs (fun () ->
        Format.printf "scenario: %s@." s.Scenario.name;
        if s.Scenario.description <> "" then Format.printf "%s@." s.Scenario.description;
        Format.printf "events: %d, rounds: %d, n: %d, rho: %g, seed: %Ld@."
          (List.length s.Scenario.events)
          s.Scenario.rounds s.Scenario.n s.Scenario.rho s.Scenario.seed;
        let trials = Driver.run_trials s in
        Format.printf "%a@." Fruitchain_util.Table.pp (Driver.table s trials))
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ jobs_arg $ obs_arg $ scenario_file_arg)

let scenario_cmd =
  let doc = "Deterministic declarative fault injection (fruitstorm)." in
  Cmd.group (Cmd.info "scenario" ~doc) [ scenario_run_cmd; scenario_validate_cmd ]

let main =
  let doc = "FruitChains (Pass & Shi, PODC'17) reproduction toolkit" in
  let info = Cmd.info "fruitchain" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ list_cmd; run_cmd; all_cmd; sim_cmd; inspect_cmd; report_cmd; analyze_cmd; scenario_cmd ]

let () = exit (Cmd.eval main)
