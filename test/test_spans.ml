(* fruittrace span suite.

   Three contracts from the observability layer (lib/obs/span.ml +
   lib/sim/observe.ml, the one module both engines report through):

   1. Span-bearing traces are jobs-invariant. test_determinism.ml already
      pins trace byte-identity for the scoped experiments; this suite adds
      the sharper claim for E01 and E19 that the traces actually CARRY
      lifecycle spans (a silent regression that stopped `Observe` opening
      spans would keep byte-identity while deleting the feature).

   2. Exact and sparse engines emit the same schema: for every span event
      name x entity combination, and for every run-level line (run.start,
      run.end, heights, net, mint, probe, corrupt/uncorrupt,
      scenario.gossip), the sorted field-key set of the emitted JSON
      objects is identical across planes, and both planes emit fruit and
      block spans. The planes cannot agree on *values* (different
      randomness consumption), so the schema is the interface the offline
      analyzer depends on.

   3. The analyzer is a pure function of the trace bytes: summarizing the
      same lines twice is byte-identical, and `Analyze.diff` of a summary
      with itself is empty — the property the CI jobs-axis `--diff` check
      builds on. *)

module Exp = Fruitchain_experiments.Exp
module Registry = Fruitchain_experiments.Registry
module Runs = Fruitchain_experiments.Runs
module Pool = Fruitchain_util.Pool
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Scope = Fruitchain_obs.Scope
module Json = Fruitchain_obs.Json
module Analyze = Fruitchain_obs.Analyze
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Sparse = Fruitchain_sim.Sparse

let observe ~jobs (module E : Exp.EXPERIMENT) =
  Pool.set_default_jobs jobs;
  let tracer = Tracer.buffer () in
  Pool.set_scope (Scope.make ~metrics:(Metrics.create ()) ~tracer ());
  Fun.protect
    ~finally:(fun () -> Pool.set_scope Scope.null)
    (fun () -> ignore (E.run ~scale:Exp.Quick ()));
  Tracer.lines tracer

let count_ev name lines =
  List.length
    (List.filter
       (fun line ->
         match Json.of_string line with
         | Ok doc -> (
             match Option.bind (Json.member "ev" doc) Json.to_str with
             | Some ev -> String.equal ev name
             | None -> false)
         | Error _ -> false)
       lines)

let experiment id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "experiment %s must be registered" id

let test_span_bearing_invariance id () =
  let (module E) = experiment id in
  let seq = observe ~jobs:1 (module E) in
  let par = observe ~jobs:4 (module E) in
  Alcotest.(check string)
    (id ^ ": span-bearing traces at --jobs 1 and --jobs 4 are byte-identical")
    (String.concat "\n" seq) (String.concat "\n" par);
  Alcotest.(check bool)
    (id ^ ": trace carries span.open events")
    true
    (count_ev "span.open" seq > 0);
  Alcotest.(check bool)
    (id ^ ": every opened span is closed")
    true
    (count_ev "span.close" seq >= count_ev "span.open" seq)

(* --- Exact vs sparse schema agreement --------------------------------- *)

(* Corruption, uncorruption, gossip toggles and probes are scheduled so
   every run-level line appears on both planes. *)
let config ~engine =
  Config.make ~protocol:Config.Fruitchain ~engine ~n:12 ~rho:0.25 ~delta:2
    ~rounds:3_000 ~seed:5L ~corruption_schedule:[ (400, 2) ]
    ~uncorruption_schedule:[ (1_500, 2) ] ~gossip_schedule:[ (700, true); (2_200, false) ]
    ~probe_interval:250
    ~params:(Exp.default_params ~q:10.0 ~p:0.004 ())
    ()

let trace_lines ~engine =
  let tracer = Tracer.buffer () in
  let scope = Scope.make ~metrics:(Metrics.create ()) ~tracer () in
  let config = config ~engine in
  (match engine with
  | Config.Exact -> ignore (Engine.run ~config ~strategy:Runs.honest_coalition ~scope ())
  | Config.Sparse -> ignore (Sparse.run ~config ~scope ()));
  Tracer.lines tracer

(* (event, entity) -> sorted field-key set for the events [keep] selects,
   e.g. ("span.close", "fruit") -> ["ev"; "entity"; "id"; "mined"; ...].
   Lines without an entity key under "". *)
let schema ~keep lines =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error _ -> ()
      | Ok doc -> (
          match (Option.bind (Json.member "ev" doc) Json.to_str, Json.to_obj doc) with
          | Some ev, Some fields when keep ev ->
              let entity =
                Option.value ~default:"" (Option.bind (Json.member "entity" doc) Json.to_str)
              in
              let keys = List.sort String.compare (List.map fst fields) in
              (match Hashtbl.find_opt tbl (ev, entity) with
              | None -> Hashtbl.replace tbl (ev, entity) keys
              | Some prior ->
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s/%s field keys are uniform within one trace" ev
                       entity)
                    prior keys)
          | _ -> ()))
    lines;
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let span_schema =
  schema ~keep:(fun ev -> String.equal ev "span.open" || String.equal ev "span.close")

let test_engine_schema_agreement () =
  let exact = span_schema (trace_lines ~engine:Config.Exact) in
  let sparse = span_schema (trace_lines ~engine:Config.Sparse) in
  (* Reorg spans are a legitimate divergence: the sparse plane mines one
     converged canonical chain (DESIGN.md §14), so it can never emit one.
     Every combination BOTH planes emit must agree field-for-field. *)
  List.iter
    (fun ((ev, entity), exact_keys) ->
      match List.assoc_opt (ev, entity) sparse with
      | None -> ()
      | Some sparse_keys ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s schema agrees across planes" ev entity)
            exact_keys sparse_keys)
    exact;
  List.iter
    (fun ((ev, entity), _) ->
      Alcotest.(check bool)
        (Printf.sprintf "sparse %s/%s also exists on the exact plane" ev entity)
        true
        (List.mem_assoc (ev, entity) exact))
    sparse;
  List.iter
    (fun entity ->
      List.iter
        (fun schema ->
          Alcotest.(check bool)
            (Printf.sprintf "both planes emit %s span closes" entity)
            true
            (List.mem_assoc ("span.close", entity) schema))
        [ exact; sparse ])
    [ "fruit"; "block" ];
  Alcotest.(check bool) "the sparse plane emits no reorg spans" false
    (List.mem_assoc ("span.close", "reorg") sparse)

(* Both planes emit every run-level line with the same field keys; the
   only sanctioned difference is the sparse run.start's "engine" key. *)
let run_level_events =
  [
    "run.start"; "run.end"; "heights"; "net"; "mint"; "probe"; "corrupt"; "uncorrupt";
    "scenario.gossip";
  ]

let test_run_level_agreement () =
  let run_schema engine =
    schema ~keep:(fun ev -> List.mem ev run_level_events) (trace_lines ~engine)
  in
  let exact = run_schema Config.Exact and sparse = run_schema Config.Sparse in
  let keys plane ev = List.assoc_opt (ev, "") plane in
  Alcotest.(check (option (list string)))
    "only the sparse run.start carries an engine key"
    (Option.map (fun ks -> List.sort String.compare ("engine" :: ks)) (keys exact "run.start"))
    (keys sparse "run.start");
  List.iter
    (fun ev ->
      Alcotest.(check bool) (ev ^ " is emitted on the exact plane") true
        (Option.is_some (keys exact ev));
      if not (String.equal ev "run.start") then
        Alcotest.(check (option (list string)))
          (ev ^ " field keys agree across planes")
          (keys exact ev) (keys sparse ev))
    run_level_events

(* --- Analyzer purity --------------------------------------------------- *)

let test_analyze_purity () =
  let lines = trace_lines ~engine:Config.Exact in
  let first = Analyze.summarize lines and second = Analyze.summarize lines in
  Alcotest.(check string) "summarize is a pure function of the lines"
    (Json.to_string first) (Json.to_string second);
  Alcotest.(check (list string)) "diff of a summary with itself is empty" []
    (Analyze.diff first second);
  Alcotest.(check string) "render derives from the summary deterministically"
    (Analyze.render first) (Analyze.render second)

let () =
  Alcotest.run "spans"
    [
      ( "jobs invariance of span-bearing traces",
        [
          Alcotest.test_case "E01" `Slow (test_span_bearing_invariance "E01");
          Alcotest.test_case "E19" `Slow (test_span_bearing_invariance "E19");
        ] );
      ( "engine schema agreement",
        [
          Alcotest.test_case "exact == sparse" `Slow test_engine_schema_agreement;
          Alcotest.test_case "run-level lines" `Slow test_run_level_agreement;
        ] );
      ( "analyzer purity",
        [ Alcotest.test_case "summarize/diff/render" `Quick test_analyze_purity ] );
    ]
