(* Tests for Fruitchain_sim: configuration, traces, and the round engine
   (determinism, query accounting, snapshots, probes). *)

module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Strategy = Fruitchain_sim.Strategy
module Params = Fruitchain_core.Params
module Types = Fruitchain_chain.Types
module Store = Fruitchain_chain.Store
module Delays = Fruitchain_adversary.Delays
module Hash = Fruitchain_crypto.Hash

let params () = Params.make ~recency_r:4 ~p:0.01 ~pf:0.05 ~kappa:4 ()

let config ?(protocol = Config.Fruitchain) ?(n = 8) ?(rho = 0.25) ?(rounds = 2_000)
    ?(seed = 1L) ?(probe_interval = 0) () =
  Config.make ~protocol ~n ~rho ~delta:2 ~rounds ~seed ~probe_interval ~params:(params ()) ()

(* --- Config ----------------------------------------------------------- *)

let test_corrupt_accounting () =
  let c = config ~n:10 ~rho:0.25 () in
  Alcotest.(check int) "floor(rho n)" 2 (Config.corrupt_count c);
  Alcotest.(check (list int)) "last indices corrupt" [ 8; 9 ]
    (List.filter (Config.is_corrupt c) (List.init 10 Fun.id));
  Alcotest.(check bool) "party 9 corrupt" true (Config.is_corrupt c 9);
  Alcotest.(check bool) "party 7 honest" false (Config.is_corrupt c 7)

let test_corrupt_zero () =
  let c = config ~rho:0.0 () in
  Alcotest.(check int) "none" 0 (Config.corrupt_count c);
  Alcotest.(check (list int)) "empty" []
    (List.filter (Config.is_corrupt c) (List.init c.Config.n Fun.id))

let test_config_validation () =
  Alcotest.check_raises "rho=1" (Invalid_argument "Config.make: rho out of [0, 1)") (fun () ->
      ignore (config ~rho:1.0 ()));
  Alcotest.check_raises "n=0" (Invalid_argument "Config.make: n must be positive") (fun () ->
      ignore (config ~n:0 ()))

(* --- Engine ------------------------------------------------------------ *)

let test_determinism () =
  let run () =
    let trace = Engine.run ~config:(config ()) ~strategy:(module Delays.Null_max) () in
    List.map
      (fun (b : Types.block) -> Hash.to_hex b.b_hash)
      (Trace.honest_final_chain trace)
  in
  Alcotest.(check (list string)) "same seed same chain" (run ()) (run ())

let test_seed_changes_outcome () =
  let chain seed =
    let trace = Engine.run ~config:(config ~seed ()) ~strategy:(module Delays.Null_max) () in
    List.map (fun (b : Types.block) -> Hash.to_hex b.b_hash) (Trace.honest_final_chain trace)
  in
  Alcotest.(check bool) "different seeds differ" true (chain 1L <> chain 2L)

let test_query_accounting () =
  (* Honest parties make exactly one query per round; the null adversary
     none: total = (n - q) * rounds. *)
  let c = config ~n:8 ~rho:0.25 ~rounds:500 () in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  Alcotest.(check int) "one query per honest party-round" (6 * 500)
    (Trace.oracle_queries trace)

let test_query_accounting_with_coalition () =
  (* The honest coalition spends its q queries per round too: n * rounds. *)
  let c = config ~n:8 ~rho:0.25 ~rounds:500 () in
  let trace =
    Engine.run ~config:c ~strategy:(module Fruitchain_adversary.Honest_coalition.M) ()
  in
  Alcotest.(check int) "full budget" (8 * 500) (Trace.oracle_queries trace)

let test_chain_growth_happens () =
  let trace = Engine.run ~config:(config ~rho:0.0 ()) ~strategy:(module Delays.Null_max) () in
  let chain = Trace.honest_final_chain trace in
  (* n*p = 0.08 blocks/round over 2000 rounds: expect ~100+ blocks. *)
  Alcotest.(check bool) "blocks mined" true (List.length chain > 50);
  let fruits = Fruitchain_core.Extract.fruits_of_chain chain in
  Alcotest.(check bool) "fruits recorded" true (List.length fruits > 300)

let test_nakamoto_runs () =
  let trace =
    Engine.run ~config:(config ~protocol:Config.Nakamoto ()) ~strategy:(module Delays.Null_max) ()
  in
  let chain = Trace.honest_final_chain trace in
  Alcotest.(check bool) "chain grew" true (List.length chain > 20);
  Alcotest.(check bool) "no fruits in nakamoto" true
    (List.for_all (fun (b : Types.block) -> b.Types.fruits = []) chain)

let test_snapshots_recorded () =
  let c = config ~rounds:1_000 () in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  Alcotest.(check int) "height snapshots every 50" 20
    (List.length (Trace.height_snapshots trace));
  Alcotest.(check int) "head snapshots every 500" 2 (List.length (Trace.head_snapshots trace));
  (* Heights are monotone over time for honest parties. *)
  let snaps = Trace.height_snapshots trace in
  let honest = Trace.honest_parties trace in
  ignore
    (List.fold_left
       (fun prev (_, heights) ->
         List.iter
           (fun i ->
             Alcotest.(check bool) "monotone" true (heights.(i) >= prev))
           honest;
         List.fold_left (fun acc i -> min acc heights.(i)) max_int honest)
       (-1) snaps)

let test_probes_recorded () =
  let c = config ~rho:0.0 ~rounds:2_000 ~probe_interval:400 () in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  Alcotest.(check int) "five probes" 5 (List.length (Trace.probes trace));
  List.iter
    (fun (record, round) ->
      Alcotest.(check string) "record format" (Printf.sprintf "probe/%d" round) record)
    (Trace.probes trace)

let test_final_heads_and_events () =
  let c = config ~rho:0.0 ~rounds:1_000 () in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  let heads = Trace.final_heads trace in
  Alcotest.(check int) "one head per party" 8 (Array.length heads);
  let events = Trace.events trace in
  let blocks = List.filter (fun (e : Trace.event) -> e.kind = `Block) events in
  let fruits = List.filter (fun (e : Trace.event) -> e.kind = `Fruit) events in
  Alcotest.(check bool) "block events" true (List.length blocks > 0);
  Alcotest.(check bool) "fruit events" true (List.length fruits > List.length blocks);
  (* All events honest in a rho=0 run, rounds ascending. *)
  Alcotest.(check bool) "all honest" true
    (List.for_all (fun (e : Trace.event) -> e.honest) events);
  let rounds_list = List.map (fun (e : Trace.event) -> e.round) events in
  Alcotest.(check bool) "chronological" true (List.sort compare rounds_list = rounds_list)

let test_all_honest_chains_near_agreement () =
  let c = config ~rho:0.0 ~rounds:3_000 () in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  let store = Trace.store trace in
  let honest = Trace.honest_parties trace in
  let heads = List.map (fun i -> Trace.final_head_of trace ~party:i) honest in
  match heads with
  | h0 :: rest ->
      List.iter
        (fun h ->
          let common = Store.common_prefix_height store h0 h in
          let divergence = min (Store.height store h0) (Store.height store h) - common in
          Alcotest.(check bool) "near agreement" true (divergence <= 4))
        rest
  | [] -> Alcotest.fail "no honest parties"

let test_run_with_real_oracle () =
  (* The whole engine must also work over every oracle that reads its
     pre-image: the SHA-256 backend and the memoizing sampler, whose
     [verify] only accepts headers it was queried on. The coalition run
     covers the adversary's miner as well as the honest nodes'. *)
  let module Oracle = Fruitchain_crypto.Oracle in
  let p = Params.make ~recency_r:4 ~p:0.05 ~pf:0.2 ~kappa:2 () in
  let memo_rng () = Fruitchain_util.Rng.of_seed 5L in
  let oracles =
    [
      ("real", fun () -> Oracle.real ~p:0.05 ~pf:0.2);
      ("sim memo", fun () -> Oracle.sim ~memo:true ~p:0.05 ~pf:0.2 (memo_rng ()));
    ]
  in
  let runs =
    [
      ("passive", 0.0, (module Delays.Null_max : Strategy.S));
      ("coalition", 0.5, (module Fruitchain_adversary.Honest_coalition.M : Strategy.S));
    ]
  in
  List.iter
    (fun (oracle_name, make_oracle) ->
      List.iter
        (fun (run_name, rho, strategy) ->
          let label = Printf.sprintf "%s, %s" oracle_name run_name in
          let c =
            Config.make ~protocol:Config.Fruitchain ~n:4 ~rho ~delta:1 ~rounds:400 ~seed:3L
              ~params:p ()
          in
          let oracle = make_oracle () in
          let trace = Engine.run_with_oracle ~config:c ~strategy ~oracle () in
          let chain = Trace.honest_final_chain trace in
          Alcotest.(check bool) (label ^ ": grew") true (List.length chain > 5);
          (* And the resulting chain passes full validation. *)
          Alcotest.(check bool) (label ^ ": valid") true
            (Fruitchain_chain.Validate.valid_chain oracle
               ~recency:(Some (Params.recency_window p)) chain
            = Ok ()))
        runs)
    oracles

let test_adaptive_corruption_query_accounting () =
  (* Party 0 is corrupted at round 250: it stops making honest queries, so
     with a passive adversary the total drops accordingly. *)
  let params = params () in
  let c =
    Config.make ~protocol:Config.Fruitchain ~n:8 ~rho:0.25 ~delta:2 ~rounds:500 ~seed:1L
      ~corruption_schedule:[ (250, 0) ] ~params ()
  in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  Alcotest.(check int) "queries drop at corruption" ((250 * 6) + (250 * 5))
    (Trace.oracle_queries trace);
  (* And party 0 is no longer counted honest. *)
  Alcotest.(check bool) "party 0 excluded" false (List.mem 0 (Trace.honest_parties trace))

let test_adaptive_corruption_budget_grows () =
  (* An active coalition gains the corrupted party's query: totals stay at
     n * rounds. *)
  let params = params () in
  let c =
    Config.make ~protocol:Config.Fruitchain ~n:8 ~rho:0.25 ~delta:2 ~rounds:500 ~seed:1L
      ~corruption_schedule:[ (250, 0) ] ~params ()
  in
  let trace =
    Engine.run ~config:c ~strategy:(module Fruitchain_adversary.Honest_coalition.M) ()
  in
  Alcotest.(check int) "full budget maintained" (8 * 500) (Trace.oracle_queries trace)

let test_adaptive_corruption_validation () =
  let params = params () in
  let bad schedule msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore
          (Config.make ~protocol:Config.Fruitchain ~n:8 ~rho:0.25 ~delta:2 ~rounds:500
             ~seed:1L ~corruption_schedule:schedule ~params ()))
  in
  bad [ (600, 0) ] "Config.make: corruption round out of range";
  bad [ (10, 9) ] "Config.make: corruption party out of range";
  bad [ (10, 7) ] "Config.make: party is already statically corrupt";
  bad [ (10, 0); (20, 0) ] "Config.make: a party may be scheduled for corruption only once"

let test_uncorruption_respawns () =
  (* Party 0: corrupted at 200, released at 300. Its queries vanish during
     the corrupt interval and resume after; its post-release mining is
     stamped honest again. *)
  let params = params () in
  let c =
    Config.make ~protocol:Config.Fruitchain ~n:8 ~rho:0.25 ~delta:2 ~rounds:500 ~seed:2L
      ~corruption_schedule:[ (200, 0) ] ~uncorruption_schedule:[ (300, 0) ] ~params ()
  in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) () in
  Alcotest.(check int) "queries: 5 never-corrupt parties + party 0 for 400 rounds"
    ((5 * 500) + 400)
    (Trace.oracle_queries trace);
  let honest_after =
    List.filter
      (fun (e : Trace.event) -> e.miner = 0 && e.honest && e.round >= 300)
      (Trace.events trace)
  in
  Alcotest.(check bool) "honest events after release" true (List.length honest_after > 0);
  (* During the corrupt interval, a passive adversary mines nothing. *)
  let during =
    List.filter
      (fun (e : Trace.event) -> e.miner = 0 && e.round >= 200 && e.round < 300)
      (Trace.events trace)
  in
  Alcotest.(check int) "silent while corrupt" 0 (List.length during)

(* Corrupt parties' snapshot entries, on both planes. Party 7 is statically
   corrupt, party 0 is corrupted at round 100 and released at round 260,
   and party 1 is corrupted at round 400 and stays corrupt. A height
   snapshot holds -1, a head snapshot genesis and the final heads genesis
   for exactly the parties corrupt at that round. Every honest head has
   left genesis by round 50 (the released party rejoins 40 rounds before
   the next head snapshot), so only round 0's head snapshot is all
   genesis. *)
let test_corrupt_snapshot_entries () =
  let n = 8 and rounds = 500 in
  let parties = List.init n Fun.id in
  let genesis = Types.genesis.b_hash in
  let run engine =
    let config =
      Config.make ~protocol:Config.Fruitchain ~engine ~n ~rho:0.125 ~delta:2 ~rounds ~seed:3L
        ~corruption_schedule:[ (100, 0); (400, 1) ] ~uncorruption_schedule:[ (260, 0) ]
        ~snapshot_interval:50 ~head_snapshot_interval:50 ~params:(params ()) ()
    in
    let corrupt round = List.filter (Config.is_corrupt_at config ~round) parties in
    let marked snaps is_marked =
      List.map
        (fun (round, entries) -> (round, List.filter (fun i -> is_marked entries.(i)) parties))
        snaps
    in
    let trace = Engine.run ~config ~strategy:(module Delays.Null_max) () in
    let heights = marked (Trace.height_snapshots trace) (Int.equal (-1)) in
    let heads = marked (Trace.head_snapshots trace) (Hash.equal genesis) in
    let final = List.filter (fun i -> Hash.equal genesis (Trace.final_heads trace).(i)) parties in
    List.iter
      (fun (round, marked) ->
        Alcotest.(check (list int)) (Printf.sprintf "heights -1 at %d" round) (corrupt round) marked)
      heights;
    List.iter
      (fun (round, marked) ->
        Alcotest.(check (list int))
          (Printf.sprintf "heads genesis at %d" round)
          (if round = 0 then parties else corrupt round)
          marked)
      heads;
    Alcotest.(check (list int)) "final heads genesis" (corrupt (rounds - 1)) final;
    Alcotest.(check int) "ten height snapshots" 10 (List.length heights);
    Alcotest.(check int) "ten head snapshots" 10 (List.length heads);
    (heights, heads, final)
  in
  let entries = Alcotest.(list (pair int (list int))) in
  let eh, ek, ef = run Config.Exact and sh, sk, sf = run Config.Sparse in
  Alcotest.(check entries) "planes agree on heights" eh sh;
  Alcotest.(check entries) "planes agree on heads" ek sk;
  Alcotest.(check (list int)) "planes agree on final heads" ef sf

let test_uncorruption_validation () =
  let params = params () in
  let bad ?(corr = []) unc msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore
          (Config.make ~protocol:Config.Fruitchain ~n:8 ~rho:0.25 ~delta:2 ~rounds:500
             ~seed:1L ~corruption_schedule:corr ~uncorruption_schedule:unc ~params ()))
  in
  bad [ (100, 1) ] "Config.make: uncorrupting a never-corrupt party";
  bad ~corr:[ (200, 1) ] [ (100, 1) ] "Config.make: uncorruption must follow corruption";
  bad [ (600, 7) ] "Config.make: uncorruption round out of range"

let test_workload_reaches_ledger () =
  let c = config ~rho:0.0 ~rounds:2_000 () in
  let workload ~round ~party:_ = if round < 1_000 then "steady-record" else "" in
  let trace = Engine.run ~config:c ~strategy:(module Delays.Null_max) ~workload () in
  let ledger = Fruitchain_core.Extract.ledger_of_chain (Trace.honest_final_chain trace) in
  Alcotest.(check bool) "workload records present" true
    (List.exists (String.equal "steady-record") ledger)

let test_sparse_refuses_exact_inputs () =
  (* The sparse plane has no records, deliveries or rounds of its own:
     [Engine.run] refuses each exact-plane input instead of dropping it. *)
  let config =
    Config.make ~protocol:Config.Fruitchain ~engine:Config.Sparse ~n:8 ~rho:0.25 ~delta:2
      ~rounds:500 ~seed:1L ~params:(params ()) ()
  in
  let strategy = (module Delays.Null_max : Strategy.S) in
  let refused what run =
    Alcotest.check_raises what
      (Invalid_argument ("Engine.run: the sparse plane takes no " ^ what))
      (fun () -> ignore (run ()))
  in
  refused "workload" (fun () ->
      Engine.run ~config ~strategy ~workload:(fun ~round:_ ~party:_ -> "x") ());
  refused "delivery policy" (fun () ->
      Engine.run ~config ~strategy ~net_policy:(fun ~now ~sender:_ ~recipient:_ ~round:_ -> now + 5) ());
  refused "round hook" (fun () ->
      Engine.run ~config ~strategy ~round_hook:(fun ~scope:_ ~round:_ -> ()) ());
  Alcotest.(check int) "without them it runs: one query per party-round" (8 * 500)
    (Trace.oracle_queries (Engine.run ~config ~strategy ()))

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "corrupt accounting" `Quick test_corrupt_accounting;
          Alcotest.test_case "corrupt zero" `Quick test_corrupt_zero;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_outcome;
          Alcotest.test_case "query accounting (null)" `Quick test_query_accounting;
          Alcotest.test_case "query accounting (coalition)" `Quick
            test_query_accounting_with_coalition;
          Alcotest.test_case "chains grow" `Quick test_chain_growth_happens;
          Alcotest.test_case "nakamoto runs" `Quick test_nakamoto_runs;
          Alcotest.test_case "snapshots" `Quick test_snapshots_recorded;
          Alcotest.test_case "probes" `Quick test_probes_recorded;
          Alcotest.test_case "final heads and events" `Quick test_final_heads_and_events;
          Alcotest.test_case "honest agreement" `Quick test_all_honest_chains_near_agreement;
          Alcotest.test_case "real oracle end to end" `Quick test_run_with_real_oracle;
          Alcotest.test_case "workload reaches ledger" `Quick test_workload_reaches_ledger;
          Alcotest.test_case "adaptive corruption: queries" `Quick
            test_adaptive_corruption_query_accounting;
          Alcotest.test_case "adaptive corruption: budget" `Quick
            test_adaptive_corruption_budget_grows;
          Alcotest.test_case "adaptive corruption: validation" `Quick
            test_adaptive_corruption_validation;
          Alcotest.test_case "uncorruption: respawn" `Quick test_uncorruption_respawns;
          Alcotest.test_case "uncorruption: validation" `Quick test_uncorruption_validation;
          Alcotest.test_case "corrupt parties' snapshot entries" `Quick
            test_corrupt_snapshot_entries;
          Alcotest.test_case "sparse refuses exact-plane inputs" `Quick
            test_sparse_refuses_exact_inputs;
        ] );
    ]
