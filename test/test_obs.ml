(* Tests for the fruitscope observability layer (Fruitchain_obs): canonical
   JSON, the metrics determinism contract (merge associativity /
   commutativity / partition-equivalence, via QCheck), tracer sinks, the
   growable Vec behind Sim.Trace, the 10⁵-event trace regression, and an
   instrumented engine smoke run. *)

module Json = Fruitchain_obs.Json
module Metrics = Fruitchain_obs.Metrics
module Tracer = Fruitchain_obs.Tracer
module Scope = Fruitchain_obs.Scope
module Report = Fruitchain_obs.Report
module Vec = Fruitchain_util.Vec
module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Engine = Fruitchain_sim.Engine
module Params = Fruitchain_core.Params
module Types = Fruitchain_chain.Types
module Store = Fruitchain_chain.Store
module Hash = Fruitchain_crypto.Hash
module Delays = Fruitchain_adversary.Delays

(* --- Json --------------------------------------------------------------- *)

let test_json_canonical () =
  let doc =
    Json.Obj
      [
        ("b", Json.Int 2);
        ("a", Json.List [ Json.Null; Json.Bool true; Json.Str "x\"y\n" ]);
        ("f", Json.Float 1.5);
      ]
  in
  (* Field order is the order given (canonical = caller sorts), no spaces. *)
  Alcotest.(check string) "compact rendering"
    {|{"b":2,"a":[null,true,"x\"y\n"],"f":1.5}|} (Json.to_string doc)

let test_json_floats () =
  Alcotest.(check string) "integral float" "2.0" (Json.to_string (Json.Float 2.0));
  Alcotest.(check string) "non-finite is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float infinity))

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("n", Json.Int (-42));
        ("s", Json.Str "caf\xc3\xa9 \t tab");
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Bool false) ] ]);
        ("x", Json.Null);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' ->
      Alcotest.(check string) "print-parse-print fixpoint" (Json.to_string doc)
        (Json.to_string doc')

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2"

let test_json_accessors () =
  let doc = Json.Obj [ ("a", Json.Int 3); ("b", Json.Str "s") ] in
  Alcotest.(check (option int)) "member+to_int" (Some 3)
    (Option.bind (Json.member "a" doc) Json.to_int);
  Alcotest.(check (option string)) "member+to_str" (Some "s")
    (Option.bind (Json.member "b" doc) Json.to_str);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Json.member "zz" doc) Json.to_int);
  Alcotest.(check (option (float 0.0))) "int widens to float" (Some 3.0)
    (Option.bind (Json.member "a" doc) Json.to_float)

(* --- Vec ---------------------------------------------------------------- *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check (list int)) "to_list chronological"
    (List.init 100 (fun i -> i * i))
    (Vec.to_list v);
  Alcotest.(check int) "fold"
    (List.fold_left ( + ) 0 (List.init 100 (fun i -> i * i)))
    (Vec.fold_left v ~init:0 ~f:( + ));
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 100));
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_vec_large () =
  let v = Vec.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    Vec.push v i
  done;
  Alcotest.(check int) "10^5 pushes" n (Vec.length v);
  Alcotest.(check int) "first" 0 (Vec.get v 0);
  Alcotest.(check int) "last" (n - 1) (Vec.get v (n - 1));
  let order_ok = ref true in
  let prev = ref (-1) in
  Vec.iter v ~f:(fun x ->
      if x <> !prev + 1 then order_ok := false;
      prev := x);
  Alcotest.(check bool) "iter is chronological" true !order_ok

(* --- Metrics ------------------------------------------------------------ *)

let test_metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "runs" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check (option int)) "get_counter" (Some 5) (Metrics.get_counter m "runs");
  let g = Metrics.gauge m "height" in
  Metrics.set g 17.0;
  let h = Metrics.histogram m ~buckets:[| 1; 2; 4 |] "depth" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 99 ];
  Alcotest.(check int) "histogram count" 6 (Metrics.histogram_count h);
  Alcotest.(check int) "histogram sum" 109 (Metrics.histogram_sum h);
  Alcotest.(check string) "dump"
    {|{"counters":{"runs":5},"gauges":{"height":17.0},"histograms":{"depth":{"buckets":[1,2,4],"counts":[2,1,2,1],"count":6,"sum":109,"p50":2,"p95":null,"p99":null}}}|}
    (Metrics.dump m)

(* Nearest-rank over cumulative bucket counts: the reported quantile is
   the upper bound of the bucket holding the rank-th observation, [None]
   once the rank falls in the overflow bucket. *)
let test_metrics_histogram_quantile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1; 2; 4 |] "q" in
  Alcotest.(check (option int)) "empty histogram" None (Metrics.histogram_quantile h 50);
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 99 ];
  Alcotest.(check (option int)) "p50 lands in bucket <=2" (Some 2)
    (Metrics.histogram_quantile h 50);
  Alcotest.(check (option int)) "p0 clamps to rank 1" (Some 1)
    (Metrics.histogram_quantile h 0);
  Alcotest.(check (option int)) "p100 is the overflow observation" None
    (Metrics.histogram_quantile h 100);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.histogram_quantile: q must be in [0,100]") (fun () ->
      ignore (Metrics.histogram_quantile h 101))

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: x already registered as a counter, not a gauge") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_metrics_golden_filter () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "golden");
  Metrics.incr (Metrics.counter m ~golden:false "schedule_noise");
  let dump = Metrics.dump m in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "golden kept" true (contains dump "golden");
  Alcotest.(check bool) "non-golden excluded" false (contains dump "schedule_noise");
  Alcotest.(check bool) "non-golden in ~all dump" true
    (contains (Metrics.dump ~all:true m) "schedule_noise")

let test_metrics_merge_gauge_untouched () =
  let dst = Metrics.create () and src = Metrics.create () in
  Metrics.set (Metrics.gauge dst "g") 5.0;
  ignore (Metrics.gauge src "g");
  (* registered but never set *)
  Metrics.merge_into ~dst src;
  Alcotest.(check string) "untouched gauge does not overwrite"
    {|{"counters":{},"gauges":{"g":5.0},"histograms":{}}|} (Metrics.dump dst)

(* QCheck: the determinism contract. Any partition of the observation
   stream across child registries, merged in index order, must dump the
   bytes the single sequential registry dumps — this is exactly what makes
   --jobs N invisible in golden output. *)

let observe_all m values =
  let h = Metrics.histogram m ~buckets:[| 1; 2; 4; 8; 16 |] "h" in
  let c = Metrics.counter m "c" in
  List.iter
    (fun v ->
      Metrics.observe h v;
      Metrics.incr ~by:v c)
    values

let qcheck_partition_equivalence =
  QCheck.Test.make ~name:"metrics: partitioned merge == sequential" ~count:100
    QCheck.(pair (list (int_bound 40)) (int_range 1 6))
    (fun (values, parts) ->
      let parts = max 1 parts (* QCheck's int_range shrinker can undershoot *) in
      let reference = Metrics.create () in
      observe_all reference values;
      (* Deal values round-robin into [parts] children (an arbitrary but
         order-preserving-per-child partition, like pool work units). Every
         child registers the full instrument set, as every pool work unit
         harvests the same instruments. *)
      let children = Array.init parts (fun _ -> Metrics.create ()) in
      Array.iter (fun child -> observe_all child []) children;
      List.iteri (fun i v -> observe_all children.(i mod parts) [ v ]) values;
      let merged = Metrics.create () in
      Array.iter (fun child -> Metrics.merge_into ~dst:merged child) children;
      String.equal (Metrics.dump reference) (Metrics.dump merged))

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"metrics: histogram merge commutes" ~count:100
    QCheck.(pair (list (int_bound 40)) (list (int_bound 40)))
    (fun (xs, ys) ->
      let a = Metrics.create () and b = Metrics.create () in
      observe_all a xs;
      observe_all b ys;
      let ab = Metrics.create () and ba = Metrics.create () in
      Metrics.merge_into ~dst:ab a;
      Metrics.merge_into ~dst:ab b;
      Metrics.merge_into ~dst:ba b;
      Metrics.merge_into ~dst:ba a;
      String.equal (Metrics.dump ab) (Metrics.dump ba))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"metrics: histogram merge associates" ~count:100
    QCheck.(triple (list (int_bound 40)) (list (int_bound 40)) (list (int_bound 40)))
    (fun (xs, ys, zs) ->
      let mk vs =
        let m = Metrics.create () in
        observe_all m vs;
        m
      in
      (* (a ⊕ b) ⊕ c *)
      let left = Metrics.create () in
      let ab = Metrics.create () in
      Metrics.merge_into ~dst:ab (mk xs);
      Metrics.merge_into ~dst:ab (mk ys);
      Metrics.merge_into ~dst:left ab;
      Metrics.merge_into ~dst:left (mk zs);
      (* a ⊕ (b ⊕ c) *)
      let right = Metrics.create () in
      let bc = Metrics.create () in
      Metrics.merge_into ~dst:bc (mk ys);
      Metrics.merge_into ~dst:bc (mk zs);
      Metrics.merge_into ~dst:right (mk xs);
      Metrics.merge_into ~dst:right bc;
      String.equal (Metrics.dump left) (Metrics.dump right))

(* --- Tracer ------------------------------------------------------------- *)

let test_tracer_buffer () =
  let t = Tracer.buffer () in
  Alcotest.(check bool) "enabled" true (Tracer.enabled t);
  Tracer.emit t "a" [ ("k", Json.Int 1) ];
  Tracer.emit t "b" [];
  Alcotest.(check int) "emitted" 2 (Tracer.emitted t);
  Alcotest.(check (list string)) "lines oldest-first"
    [ {|{"ev":"a","k":1}|}; {|{"ev":"b"}|} ]
    (Tracer.lines t)

let test_tracer_ring () =
  let t = Tracer.ring 2 in
  List.iter (fun n -> Tracer.emit t n []) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "emitted counts drops" 4 (Tracer.emitted t);
  Alcotest.(check (list string)) "ring keeps the most recent"
    [ {|{"ev":"c"}|}; {|{"ev":"d"}|} ]
    (Tracer.lines t)

let test_tracer_null () =
  Alcotest.(check bool) "null disabled" false (Tracer.enabled Tracer.null);
  Tracer.emit Tracer.null "a" [];
  Alcotest.(check int) "null ignores" 0 (Tracer.emitted Tracer.null)

(* --- Scope fork/merge ---------------------------------------------------- *)

let test_scope_fork_merge () =
  let m = Metrics.create () in
  let tracer = Tracer.buffer () in
  let parent = Scope.make ~metrics:m ~tracer () in
  Scope.incr parent "c";
  let c1 = Scope.fork parent and c2 = Scope.fork parent in
  Scope.incr ~by:2 c1 "c";
  Scope.emit c1 "one" [];
  Scope.incr ~by:5 c2 "c";
  Scope.emit c2 "two" [];
  Scope.merge_child parent ~child:c1;
  Scope.merge_child parent ~child:c2;
  Alcotest.(check (option int)) "counters fold in" (Some 8) (Metrics.get_counter m "c");
  Alcotest.(check (list string)) "child lines append in merge order"
    [ {|{"ev":"one"}|}; {|{"ev":"two"}|} ]
    (Tracer.lines tracer)

let test_scope_null () =
  Alcotest.(check bool) "null disabled" false (Scope.enabled Scope.null);
  Alcotest.(check bool) "null fork disabled" false (Scope.enabled (Scope.fork Scope.null));
  (* All no-ops, must not raise. *)
  Scope.incr Scope.null "c";
  Scope.set_gauge Scope.null "g" 1.0;
  Scope.emit Scope.null "e" []

(* --- Sim.Trace event accumulation (regression: growable buffer) ---------- *)

let small_config ?(rounds = 10) () =
  let params = Params.make ~recency_r:4 ~p:0.01 ~pf:0.05 ~kappa:4 () in
  Config.make ~protocol:Config.Fruitchain ~n:4 ~rho:0.0 ~delta:2 ~rounds ~seed:7L ~params ()

let test_trace_hundred_thousand_events () =
  let config = small_config () in
  let store = Store.create () in
  let trace = Trace.create ~config ~store () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    Trace.record_event trace
      {
        Trace.round = i;
        miner = i mod 4;
        honest = true;
        kind = (if i mod 7 = 0 then `Block else `Fruit);
        hash = Hash.zero;
      }
  done;
  Alcotest.(check int) "event_count" n (Trace.event_count trace);
  let events = Trace.events trace in
  Alcotest.(check int) "events list materializes fully" n (List.length events);
  Alcotest.(check int) "first event round" 0 (List.hd events).Trace.round;
  Alcotest.(check int) "last event round" (n - 1)
    (List.nth events (n - 1)).Trace.round;
  let seen = ref 0 and chronological = ref true in
  Trace.iter_events trace ~f:(fun e ->
      if e.Trace.round <> !seen then chronological := false;
      incr seen);
  Alcotest.(check bool) "iter_events chronological" true !chronological;
  Alcotest.(check int) "iter_events visits all" n !seen

(* --- Instrumented engine smoke ------------------------------------------ *)

let test_engine_scope_smoke () =
  let m = Metrics.create () in
  let tracer = Tracer.buffer () in
  let scope = Scope.make ~metrics:m ~tracer () in
  let rounds = 2_000 in
  let config = small_config ~rounds () in
  let trace = Engine.run ~config ~strategy:(module Delays.Null_max) ~scope () in
  Alcotest.(check (option int)) "one run" (Some 1) (Metrics.get_counter m "sim.runs");
  Alcotest.(check (option int)) "rounds harvested" (Some rounds)
    (Metrics.get_counter m "sim.rounds");
  Alcotest.(check (option int)) "queries harvested"
    (Some (Trace.oracle_queries trace))
    (Metrics.get_counter m "oracle.queries");
  Alcotest.(check (option int)) "honest block mints match the trace"
    (Some
       (List.length
          (List.filter (fun (e : Trace.event) -> e.kind = `Block) (Trace.events trace))))
    (Metrics.get_counter m "sim.mint.block.honest");
  (* Every emitted line is one complete JSON object with an "ev" name. *)
  let lines = Tracer.lines tracer in
  Alcotest.(check bool) "trace has events" true (List.length lines > 0);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "bad trace line %S: %s" line e
      | Ok j -> (
          match Option.bind (Json.member "ev" j) Json.to_str with
          | Some _ -> ()
          | None -> Alcotest.failf "trace line without ev: %S" line))
    lines;
  (* And the dump reparses as canonical JSON. *)
  match Json.of_string (Metrics.dump m) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metric dump is not valid JSON: %s" e

(* --- Report ------------------------------------------------------------- *)

let test_report_classify () =
  let kind content =
    match Report.classify content with
    | Ok (k, _) -> Report.kind_name k
    | Error e -> "error: " ^ e
  in
  Alcotest.(check string) "metrics dump" "metrics"
    (kind {|{"counters":{"a":1},"gauges":{},"histograms":{}}|});
  Alcotest.(check string) "bench json" "bench"
    (kind {|{"schema":"fruitchains-bench/1","jobs":2}|});
  Alcotest.(check string) "single trace line" "trace" (kind {|{"ev":"mint","round":3}|});
  Alcotest.(check string) "jsonl" "trace"
    (kind "{\"ev\":\"a\",\"round\":1}\n{\"ev\":\"b\",\"round\":2}\n");
  Alcotest.(check string) "garbage is an error" "error: empty file" (kind "\n\n")

let test_report_summarize () =
  let check_ok content =
    match Report.summarize content with
    | Ok s -> s
    | Error e -> Alcotest.failf "summarize failed: %s" e
  in
  let metrics =
    check_ok
      {|{"counters":{"sim.runs":2},"gauges":{"h":1.5},"histograms":{"d":{"buckets":[1],"counts":[3,1],"count":4,"sum":7}}}|}
  in
  Alcotest.(check bool) "metrics header" true (String.length metrics > 0);
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
    go 0
  in
  let trace = check_ok "{\"ev\":\"a\",\"round\":1}\n{\"ev\":\"a\",\"round\":9}\n" in
  Alcotest.(check bool) "trace mentions span" true (contains trace "1..9");
  (* BENCH.json's header names the SHA-256 block function when the
     document records it, and reads as before when it does not. *)
  let bench block =
    check_ok
      (Printf.sprintf
         {|{"schema":"fruitchains-bench/1","scale":"quick","jobs":2,%s"total_wall_s":1.5,"events":10,"events_per_sec":6.5}|}
         block)
  in
  Alcotest.(check string) "bench header with sha256_block"
    "[bench]\nschema: fruitchains-bench/1  scale: quick  jobs: 2  sha256_block: sha-ext\n\
     total: 1.50s wall, 10 events (6 events/s)\n"
    (bench {|"sha256_block":"sha-ext",|});
  Alcotest.(check string) "bench header without sha256_block"
    "[bench]\nschema: fruitchains-bench/1  scale: quick  jobs: 2\n\
     total: 1.50s wall, 10 events (6 events/s)\n"
    (bench "")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "canonical" `Quick test_json_canonical;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "100k pushes" `Quick test_vec_large;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick test_metrics_instruments;
          Alcotest.test_case "histogram quantile" `Quick test_metrics_histogram_quantile;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "golden filter" `Quick test_metrics_golden_filter;
          Alcotest.test_case "gauge merge" `Quick test_metrics_merge_gauge_untouched;
        ] );
      ( "metrics determinism (qcheck)",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_partition_equivalence; qcheck_merge_commutative; qcheck_merge_associative;
          ] );
      ( "tracer",
        [
          Alcotest.test_case "buffer" `Quick test_tracer_buffer;
          Alcotest.test_case "ring" `Quick test_tracer_ring;
          Alcotest.test_case "null" `Quick test_tracer_null;
        ] );
      ( "scope",
        [
          Alcotest.test_case "fork/merge" `Quick test_scope_fork_merge;
          Alcotest.test_case "null" `Quick test_scope_null;
        ] );
      ( "trace buffer",
        [ Alcotest.test_case "10^5 events" `Quick test_trace_hundred_thousand_events ] );
      ( "engine",
        [ Alcotest.test_case "instrumented smoke" `Quick test_engine_scope_smoke ] );
      ( "report",
        [
          Alcotest.test_case "classify" `Quick test_report_classify;
          Alcotest.test_case "summarize" `Quick test_report_summarize;
        ] );
    ]
