(* Tests for lib/scenario (fruitstorm): validation diagnostics (never
   exceptions), canonical JSON round-trips, loader line placement, the pure
   fault queries behind the delivery policy, and a driver smoke run. *)

module Json = Fruitchain_obs.Json
module Scenario = Fruitchain_scenario.Scenario
module Loader = Fruitchain_scenario.Loader
module Driver = Fruitchain_scenario.Driver

let codes = function
  | Ok _ -> []
  | Error diags -> List.map (fun (d : Scenario.diag) -> d.Scenario.code) diags

let check_codes name expected result =
  Alcotest.(check (list string)) name expected (codes result)

let groups_of_halves n =
  [ List.init (n / 2) (fun i -> i); List.init (n - (n / 2)) (fun i -> (n / 2) + i) ]

let partition ~from ~until ~n = Scenario.Partition { from; until; groups = groups_of_halves n }

let valid_events =
  [
    partition ~from:100 ~until:200 ~n:10;
    Scenario.Delay_spike { from = 300; until = 400; delta' = 8 };
    Scenario.Eclipse { from = 500; until = 600; party = 3 };
    Scenario.Churn { from = 700; until = 800; party = 1 };
    Scenario.Gossip_toggle { at = 50; on = true };
    Scenario.Workload_burst { from = 10; until = 40; tag = "t" };
  ]

let of_string s =
  match Json.of_string s with
  | Ok json -> Scenario.of_json json
  | Error msg -> Alcotest.failf "fixture is not JSON: %s" msg

let make ?(n = 10) ?(rounds = 1000) ?rho events =
  Scenario.make ~name:"t" ~n ~rounds ?rho ~events ()

(* --- validation -------------------------------------------------------- *)

let test_valid () =
  match make valid_events with
  | Ok _ -> ()
  | Error ds ->
      Alcotest.failf "expected valid: %s"
        (String.concat "; "
           (List.map (fun (d : Scenario.diag) -> d.code ^ " " ^ d.msg) ds))

let test_s1_scenario_level () =
  check_codes "bad n" [ "S1" ] (Scenario.make ~name:"t" ~n:0 ~events:[] ());
  check_codes "empty name" [ "S1" ] (Scenario.make ~name:"" ~events:[] ());
  check_codes "pf > 1" [ "S1" ] (Scenario.make ~name:"t" ~p:0.5 ~q:10.0 ~events:[] ())

let test_s2_windows () =
  check_codes "heal before cut" [ "S2" ] (make [ partition ~from:200 ~until:100 ~n:10 ]);
  check_codes "negative start" [ "S2" ]
    (make [ Scenario.Eclipse { from = -1; until = 10; party = 0 } ]);
  check_codes "past end of run" [ "S2" ]
    (make [ Scenario.Delay_spike { from = 100; until = 2000; delta' = 8 } ]);
  check_codes "toggle out of range" [ "S2" ]
    (make [ Scenario.Gossip_toggle { at = 1000; on = true } ])

let test_s3_parties () =
  check_codes "party out of range" [ "S3" ]
    (make [ Scenario.Eclipse { from = 1; until = 2; party = 10 } ]);
  check_codes "one group" [ "S3" ]
    (make [ Scenario.Partition { from = 1; until = 2; groups = [ List.init 10 Fun.id ] } ]);
  check_codes "overlapping groups" [ "S3" ]
    (make
       [
         Scenario.Partition
           { from = 1; until = 2; groups = [ [ 0; 1; 2; 3; 4; 5 ]; [ 5; 6; 7; 8; 9 ] ] };
       ]);
  check_codes "not covering" [ "S3" ]
    (make [ Scenario.Partition { from = 1; until = 2; groups = [ [ 0; 1 ]; [ 2; 3 ] ] } ])

(* The cover test counts a partition's distinct in-range members; it
   used to list all n parties and look each up among the members, so a
   huge n exhausted memory before the diagnostic. *)
let test_s3_cover_at_huge_n () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let events = [ Scenario.Partition { from = 1; until = 2; groups = [ [ 0 ]; [ 1 ] ] } ] in
  Gc.full_major ();
  let before = words () in
  let result = Scenario.make ~name:"t" ~n:1_000_000 ~rounds:1000 ~events () in
  let allocated = words () -. before in
  check_codes "not covering" [ "S3" ] result;
  Alcotest.(check bool)
    (Printf.sprintf "validation allocates %.0f words (bound 100000)" allocated)
    true (allocated < 100_000.)

let test_s4_duplicates_and_overlaps () =
  let e = partition ~from:100 ~until:200 ~n:10 in
  check_codes "exact duplicate" [ "S4" ] (make [ e; e ]);
  check_codes "overlapping partitions" [ "S4" ]
    (make [ partition ~from:100 ~until:200 ~n:10; partition ~from:150 ~until:250 ~n:10 ]);
  check_codes "same-party eclipse overlap" [ "S4" ]
    (make
       [
         Scenario.Eclipse { from = 100; until = 200; party = 2 };
         Scenario.Eclipse { from = 150; until = 250; party = 2 };
       ]);
  (match make [ Scenario.Eclipse { from = 100; until = 200; party = 2 };
                Scenario.Eclipse { from = 150; until = 250; party = 3 } ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "distinct-party eclipse overlap must be legal")

let test_s5_contradictions () =
  check_codes "opposing toggles" [ "S5" ]
    (make
       [
         Scenario.Gossip_toggle { at = 10; on = true };
         Scenario.Gossip_toggle { at = 10; on = false };
       ]);
  check_codes "same-party churn overlap" [ "S5" ]
    (make
       [
         Scenario.Churn { from = 100; until = 300; party = 1 };
         Scenario.Churn { from = 200; until = 400; party = 1 };
       ]);
  check_codes "churning a statically corrupt party" [ "S5" ]
    (make ~rho:0.2 [ Scenario.Churn { from = 100; until = 300; party = 9 } ])

let test_s6_spike () =
  check_codes "spike must widen Delta" [ "S6" ]
    (make [ Scenario.Delay_spike { from = 1; until = 2; delta' = 2 } ])

(* --- canonical JSON ---------------------------------------------------- *)

let test_roundtrip () =
  match make valid_events with
  | Error _ -> Alcotest.fail "fixture invalid"
  | Ok s -> (
      let bytes = Scenario.to_string s in
      match of_string bytes with
      | Error _ -> Alcotest.fail "canonical form must re-parse"
      | Ok s' ->
          Alcotest.(check string) "to_string is idempotent over of_string" bytes
            (Scenario.to_string s');
          Alcotest.(check int) "events survive" (List.length s.Scenario.events)
            (List.length s'.Scenario.events))

let test_canonical_sorts () =
  let a = Scenario.Eclipse { from = 500; until = 600; party = 3 } in
  let b = Scenario.Gossip_toggle { at = 50; on = true } in
  match (make [ a; b ], make [ b; a ]) with
  | Ok s1, Ok s2 ->
      Alcotest.(check string) "event order is canonicalized away"
        (Scenario.to_string s1) (Scenario.to_string s2)
  | _ -> Alcotest.fail "fixtures invalid"

let test_unknown_fields_rejected () =
  check_codes "unknown config field" [ "S1" ]
    (of_string {|{"name":"t","config":{"nn":10},"events":[]}|});
  check_codes "unknown event kind" [ "S1" ]
    (of_string {|{"name":"t","events":[{"kind":"partiton"}]}|});
  check_codes "unknown event field" [ "S1" ]
    (of_string
       {|{"name":"t","events":[{"kind":"eclipse","from":1,"until":2,"party":0,"parti":0}]}|})

(* --- loader ------------------------------------------------------------ *)

let loader_lines source =
  match Loader.of_source ~file:"x.json" source with
  | Ok _ -> []
  | Error ds -> List.map (fun (d : Loader.diag) -> (d.Loader.line, d.Loader.code)) ds

let test_loader_places_events () =
  let source =
    {|{
  "name": "t",
  "config": { "n": 10, "rounds": 1000 },
  "events": [
    { "kind": "eclipse", "from": 1, "until": 2, "party": 0 },
    { "kind": "eclipse", "from": 1, "until": 2, "party": 99 },
    { "kind": "eclipse", "from": 1, "until": 2, "party": 0 }
  ]
}|}
  in
  Alcotest.(check (list (pair int string)))
    "diags point at the offending event lines"
    [ (6, "S3"); (7, "S4") ]
    (loader_lines source)

let test_loader_never_raises () =
  (* The bugfix-sweep contract: duplicate/contradictory events are
     diagnostics with positions, not exceptions. *)
  let source =
    {|{
  "name": "t",
  "config": { "n": 10, "rounds": 1000 },
  "events": [
    { "kind": "gossip_toggle", "at": 5, "on": true },
    { "kind": "gossip_toggle", "at": 5, "on": false }
  ]
}|}
  in
  Alcotest.(check (list (pair int string))) "contradiction is a placed diag"
    [ (6, "S5") ] (loader_lines source)

let test_loader_parse_error_position () =
  match Loader.of_source ~file:"x.json" "{\n  \"name\": oops\n}" with
  | Ok _ -> Alcotest.fail "must not parse"
  | Error [ d ] ->
      Alcotest.(check string) "code" "S1" d.Loader.code;
      Alcotest.(check int) "line" 2 d.Loader.line
  | Error _ -> Alcotest.fail "single parse diagnostic expected"

let test_loader_missing_file () =
  match Loader.load "no/such/scenario.json" with
  | Ok _ -> Alcotest.fail "must not load"
  | Error [ d ] -> Alcotest.(check string) "code" "S0" d.Loader.code
  | Error _ -> Alcotest.fail "single S0 expected"

let test_loader_fixture () =
  match Loader.load "fixtures/scenarios/partition_small.json" with
  | Ok s ->
      Alcotest.(check string) "name" "partition-small" s.Scenario.name;
      Alcotest.(check int) "trials" 2 s.Scenario.trials;
      Alcotest.(check int) "events" 1 (List.length s.Scenario.events)
  | Error _ -> Alcotest.fail "shipped fixture must validate"

(* --- fault queries ----------------------------------------------------- *)

let fault_fixture () =
  match
    make ~n:10 ~rounds:1000
      [
        partition ~from:100 ~until:200 ~n:10;
        Scenario.Delay_spike { from = 300; until = 400; delta' = 8 };
        Scenario.Eclipse { from = 500; until = 600; party = 3 };
      ]
  with
  | Ok s -> s
  | Error _ -> Alcotest.fail "fixture invalid"

let test_partition_holds_to_heal () =
  let s = fault_fixture () in
  (* Cross-group send at round 150 resolved to 152: re-sent at heal 200,
     arrives 202. Same-group delivery is untouched. *)
  Alcotest.(check int) "cross-group held" 202
    (Scenario.delivery_round s ~now:150 ~sender:0 ~recipient:7 ~round:152);
  Alcotest.(check int) "same-group unaffected" 152
    (Scenario.delivery_round s ~now:150 ~sender:0 ~recipient:4 ~round:152);
  Alcotest.(check int) "outside the window unaffected" 252
    (Scenario.delivery_round s ~now:250 ~sender:0 ~recipient:7 ~round:252);
  Alcotest.(check int) "adversary bypasses the cut" 152
    (Scenario.delivery_round s ~now:150 ~sender:(-1) ~recipient:7 ~round:152)

let test_spike_widens () =
  let s = fault_fixture () in
  (* delta' = 8 over delta = 2 adds 6 rounds to whatever the schedule chose. *)
  Alcotest.(check int) "delivery shifted" (352 + 6)
    (Scenario.delivery_round s ~now:350 ~sender:0 ~recipient:7 ~round:352);
  Alcotest.(check int) "no spike outside" 452
    (Scenario.delivery_round s ~now:450 ~sender:0 ~recipient:7 ~round:452)

let test_eclipse_isolates () =
  let s = fault_fixture () in
  Alcotest.(check int) "victim's send held to heal" 602
    (Scenario.delivery_round s ~now:550 ~sender:3 ~recipient:8 ~round:552);
  Alcotest.(check int) "both directions" 602
    (Scenario.delivery_round s ~now:550 ~sender:8 ~recipient:3 ~round:552);
  Alcotest.(check int) "peers unaffected" 552
    (Scenario.delivery_round s ~now:550 ~sender:4 ~recipient:8 ~round:552)

let test_fault_predicates () =
  let s = fault_fixture () in
  Alcotest.(check bool) "partition window faulted" true
    (Scenario.delivery_faulted s ~round:150);
  Alcotest.(check bool) "gap not faulted" false (Scenario.delivery_faulted s ~round:250);
  Alcotest.(check int) "one active fault" 1 (Scenario.active_faults s ~round:350);
  Alcotest.(check int) "none active" 0 (Scenario.active_faults s ~round:950)

let test_desugarings () =
  match
    make ~n:10 ~rounds:1000
      [
        Scenario.Churn { from = 100; until = 300; party = 1 };
        Scenario.Churn { from = 400; until = 1000; party = 2 };
        Scenario.Gossip_toggle { at = 10; on = true };
      ]
  with
  | Error _ -> Alcotest.fail "fixture invalid"
  | Ok s ->
      let corrupt, uncorrupt = Scenario.churn_schedules s in
      Alcotest.(check (list (pair int int))) "corruptions"
        [ (400, 2); (100, 1) ] corrupt;
      Alcotest.(check (list (pair int int)))
        "churn to the end yields no uncorruption" [ (300, 1) ] uncorrupt;
      Alcotest.(check (list (pair int bool))) "gossip schedule" [ (10, true) ]
        (Scenario.gossip_schedule s)

(* --- driver smoke ------------------------------------------------------ *)

let test_driver_smoke () =
  match
    Scenario.make ~name:"smoke" ~n:6 ~rounds:400 ~seed:3L ~trials:2
      ~events:
        [
          Scenario.Gossip_toggle { at = 50; on = true };
          Scenario.Workload_burst { from = 100; until = 200; tag = "w" };
          Scenario.Partition
            { from = 150; until = 250; groups = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] };
        ]
      ()
  with
  | Error _ -> Alcotest.fail "smoke scenario invalid"
  | Ok s ->
      let trials = Driver.run_trials ~jobs:2 s in
      Alcotest.(check int) "one result per trial" 2 (List.length trials);
      List.iter
        (fun (t : Driver.trial) ->
          Alcotest.(check bool) "chain grew" true (t.Driver.blocks > 1))
        trials;
      let rendered = Fruitchain_util.Table.to_string (Driver.table s trials) in
      Alcotest.(check bool) "table renders" true (String.length rendered > 40)

let () =
  Alcotest.run "scenario"
    [
      ( "validation",
        [
          Alcotest.test_case "valid timeline" `Quick test_valid;
          Alcotest.test_case "S1 scenario level" `Quick test_s1_scenario_level;
          Alcotest.test_case "S2 windows" `Quick test_s2_windows;
          Alcotest.test_case "S3 parties" `Quick test_s3_parties;
          Alcotest.test_case "S3 cover at n = 10^6" `Quick test_s3_cover_at_huge_n;
          Alcotest.test_case "S4 duplicates/overlaps" `Quick test_s4_duplicates_and_overlaps;
          Alcotest.test_case "S5 contradictions" `Quick test_s5_contradictions;
          Alcotest.test_case "S6 spike magnitude" `Quick test_s6_spike;
        ] );
      ( "canonical json",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "sorts events" `Quick test_canonical_sorts;
          Alcotest.test_case "unknown fields rejected" `Quick test_unknown_fields_rejected;
        ] );
      ( "loader",
        [
          Alcotest.test_case "places event diags" `Quick test_loader_places_events;
          Alcotest.test_case "never raises" `Quick test_loader_never_raises;
          Alcotest.test_case "parse error position" `Quick test_loader_parse_error_position;
          Alcotest.test_case "missing file" `Quick test_loader_missing_file;
          Alcotest.test_case "shipped fixture" `Quick test_loader_fixture;
        ] );
      ( "fault queries",
        [
          Alcotest.test_case "partition holds to heal" `Quick test_partition_holds_to_heal;
          Alcotest.test_case "spike widens" `Quick test_spike_widens;
          Alcotest.test_case "eclipse isolates" `Quick test_eclipse_isolates;
          Alcotest.test_case "predicates" `Quick test_fault_predicates;
          Alcotest.test_case "desugarings" `Quick test_desugarings;
        ] );
      ("driver", [ Alcotest.test_case "smoke" `Slow test_driver_smoke ]);
    ]
