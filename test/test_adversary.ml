(* Tests for Fruitchain_adversary: behavioural checks of the strategies in
   small controlled executions. *)

module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Extract = Fruitchain_core.Extract
module Types = Fruitchain_chain.Types
module Quality = Fruitchain_metrics.Quality
module Adv = Fruitchain_adversary
module Tx = Fruitchain_ledger.Tx
module Rng = Fruitchain_util.Rng

let params ?(enforce_recency = true) () =
  Params.make ~recency_r:4 ~enforce_recency ~p:0.004 ~pf:0.04 ~kappa:8 ()

let run ?(protocol = Config.Fruitchain) ?(rho = 0.3) ?(rounds = 15_000) ?(seed = 1L)
    ?(enforce_recency = true) ?workload ~strategy () =
  let config =
    Config.make ~protocol ~n:20 ~rho ~delta:2 ~rounds ~seed
      ~params:(params ~enforce_recency ()) ()
  in
  Engine.run ~config ~strategy ?workload ()

let selfish gamma : (module Fruitchain_sim.Strategy.S) =
  (module Adv.Selfish.Make (struct
    let gamma = gamma
    let broadcast_fruits = true
    let lead_stubborn = false
    let equal_fork_stubborn = false
  end))

let block_share trace =
  Quality.adversarial_fraction (Quality.block_shares (Trace.honest_final_chain trace))

let fruit_share trace =
  Quality.adversarial_fraction
    (Quality.fruit_shares (Extract.fruits_of_chain (Trace.honest_final_chain trace)))

(* --- Null strategies --------------------------------------------------- *)

let test_null_never_mines () =
  let trace = run ~strategy:(module Adv.Delays.Null_max) () in
  Alcotest.(check bool) "no adversarial events" true
    (List.for_all (fun (e : Trace.event) -> e.honest) (Trace.events trace))

(* The benign fast network: every honest message delivered at t + 1. *)
module Null_next = struct
  type t = unit

  let name = "null-next-round"
  let create _ctx = ()
  let schedule_honest () _msg ~recipient:_ = Fruitchain_net.Network.Next_round
  let act () ~round:_ ~honest_broadcasts:_ = ()
end

let test_null_delay_variants_differ () =
  (* Faster delivery means less duplicated honest work, so the chain under
     Next_round should be at least as long as under Max_delay. *)
  let len strategy =
    List.length (Trace.honest_final_chain (run ~rho:0.0 ~strategy ()))
  in
  let fast = len (module Null_next) in
  let slow = len (module Adv.Delays.Null_max) in
  Alcotest.(check bool) "fast >= slow" true (fast >= slow)

(* --- Honest coalition --------------------------------------------------- *)

let test_honest_coalition_gets_fair_share () =
  let trace = run ~strategy:(module Adv.Honest_coalition.M) () in
  let share = fruit_share trace in
  Alcotest.(check bool) "fruit share near rho" true (Float.abs (share -. 0.3) < 0.05)

let test_honest_coalition_mines_blocks () =
  let trace = run ~strategy:(module Adv.Honest_coalition.M) () in
  let adv_blocks =
    List.filter
      (fun (e : Trace.event) -> (not e.honest) && e.kind = `Block)
      (Trace.events trace)
  in
  Alcotest.(check bool) "coalition mined blocks" true (List.length adv_blocks > 5)

(* --- Selfish mining ----------------------------------------------------- *)

let test_selfish_beats_fair_share_nakamoto () =
  let trace =
    run ~protocol:Config.Nakamoto ~rho:0.4 ~rounds:30_000 ~strategy:(selfish 1.0) ()
  in
  let share = block_share trace in
  Alcotest.(check bool)
    (Printf.sprintf "share %.3f > 0.45 at rho=0.4 gamma=1" share)
    true (share > 0.45)

let test_selfish_gamma_monotone () =
  let share gamma =
    block_share (run ~protocol:Config.Nakamoto ~rho:0.35 ~rounds:30_000 ~strategy:(selfish gamma) ())
  in
  let s0 = share 0.0 and s1 = share 1.0 in
  Alcotest.(check bool) (Printf.sprintf "gamma=1 (%.3f) > gamma=0 (%.3f)" s1 s0) true (s1 > s0)

let test_selfish_fruit_share_stays_fair () =
  let trace = run ~rho:0.3 ~rounds:30_000 ~strategy:(selfish 1.0) () in
  let fshare = fruit_share trace in
  Alcotest.(check bool)
    (Printf.sprintf "fruit share %.3f within 15%% of rho" fshare)
    true
    (fshare < 0.3 *. 1.15 +. 0.02)

let test_selfish_preserves_consistency () =
  let trace = run ~rho:0.35 ~strategy:(selfish 0.5) () in
  let r = Fruitchain_metrics.Consistency.measure trace in
  Alcotest.(check bool) "bounded divergence" true
    (r.Fruitchain_metrics.Consistency.max_pairwise_divergence < 20)

let test_selfish_chain_valid () =
  (* Honest nodes only ever adopt valid chains, even under attack. *)
  let trace = run ~rho:0.4 ~strategy:(selfish 1.0) () in
  let chain = Trace.honest_final_chain trace in
  (* Structural sanity: linked list from genesis, heights consistent. *)
  let rec linked = function
    | a :: (b : Types.block) :: rest ->
        Types.Hash.equal b.b_header.parent a.Types.b_hash && linked (b :: rest)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "linked" true (linked chain)

let test_selfish_fruit_hoarding_hurts_itself () =
  (* broadcast_fruits=false: the coalition's fruits can only enter the
     ledger through its own (often-orphaned) blocks, so its share falls
     below the broadcasting variant's. *)
  let hoarder : (module Fruitchain_sim.Strategy.S) =
    (module Adv.Selfish.Make (struct
      let gamma = 0.5
      let broadcast_fruits = false
      let lead_stubborn = false
      let equal_fork_stubborn = false
    end))
  in
  let hoard_share = fruit_share (run ~rho:0.3 ~rounds:20_000 ~strategy:hoarder ()) in
  let open_share = fruit_share (run ~rho:0.3 ~rounds:20_000 ~strategy:(selfish 0.5) ()) in
  Alcotest.(check bool)
    (Printf.sprintf "hoarding (%.3f) <= broadcasting (%.3f)" hoard_share open_share)
    true
    (hoard_share <= open_share +. 0.01)

let test_stubborn_variants_run () =
  (* The stubborn state machines must preserve consistency too. *)
  List.iter
    (fun (lead, fork) ->
      let trace =
        run ~protocol:Config.Nakamoto ~rho:0.35
          ~strategy:(Fruitchain_experiments.Runs.stubborn ~gamma:0.9 ~lead ~fork)
          ()
      in
      let r = Fruitchain_metrics.Consistency.measure trace in
      Alcotest.(check bool)
        (Printf.sprintf "divergence bounded (lead=%b fork=%b)" lead fork)
        true
        (r.Fruitchain_metrics.Consistency.max_pairwise_divergence < 30))
    [ (true, false); (false, true); (true, true) ]

(* --- Fruit withholding --------------------------------------------------- *)

let test_withholder_loses_with_recency () =
  let trace = run ~strategy:(Fruitchain_experiments.Runs.withholder ~release_interval:4_000) () in
  let share = fruit_share trace in
  Alcotest.(check bool)
    (Printf.sprintf "stale hoard share %.3f << rho" share)
    true (share < 0.15)

let test_withholder_floods_without_recency () =
  let trace =
    run ~enforce_recency:false
      ~strategy:(Fruitchain_experiments.Runs.withholder ~release_interval:4_000) ()
  in
  let fruits = Extract.fruits_of_chain (Trace.honest_final_chain trace) in
  let flags = Quality.honesty_flags_of_fruits fruits in
  let worst = Quality.worst_window_fraction flags ~window:150 `Adversarial in
  Alcotest.(check bool)
    (Printf.sprintf "worst window %.3f spikes above 2x rho" worst)
    true (worst > 0.6)

(* --- Every fruit recorded once ------------------------------------------ *)

(* Figure 1 puts into F′ only the fruits "not yet recorded in the chain", so
   no honest final chain records a fruit twice — with the recency rule or
   without it, under every strategy that reorgs the honest parties or
   re-points its own head. Without the rule, "recorded" means anywhere on
   the chain, not only inside the window. *)
let test_fruits_recorded_once strategy ~enforce_recency () =
  let trace = run ~rounds:6_000 ~seed:9L ~enforce_recency ~strategy () in
  let chain = Trace.honest_final_chain trace in
  let references = List.fold_left (fun n (b : Types.block) -> n + List.length b.fruits) 0 chain in
  let distinct = List.length (Extract.fruits_of_chain chain) in
  Alcotest.(check bool) "the chain records fruits" true (distinct > 100);
  Alcotest.(check int) "fruit references = distinct fruits" distinct references

let recorded_once_cases =
  List.concat_map
    (fun (name, strategy) ->
      List.map
        (fun enforce_recency ->
          Alcotest.test_case
            (Printf.sprintf "%s, recency %s" name (if enforce_recency then "on" else "off"))
            `Quick
            (test_fruits_recorded_once strategy ~enforce_recency))
        [ true; false ])
    [
      ("null", (module Adv.Delays.Null_max : Fruitchain_sim.Strategy.S));
      ("honest coalition", (module Adv.Honest_coalition.M));
      ("selfish", selfish 0.5);
      ("withholder", Fruitchain_experiments.Runs.withholder ~release_interval:4_000);
    ]

(* --- Fee sniping ---------------------------------------------------------- *)

let test_fee_sniper_steals_whales () =
  let workload =
    Tx.Workload.with_whales ~rng:(Rng.of_seed 9L) ~every:20 ~mean_fee:0.2 ~whale_every:25
      ~whale_fee:100.0
  in
  let honest =
    run ~protocol:Config.Nakamoto ~rounds:30_000 ~strategy:(module Adv.Honest_coalition.M)
      ~workload ()
  in
  let sniping =
    run ~protocol:Config.Nakamoto ~rounds:30_000
      ~strategy:(Fruitchain_experiments.Runs.fee_sniper ~threshold:50.0)
      ~workload ()
  in
  let rule t = Fruitchain_ledger.Reward.bitcoin_rule t ~block_reward:1.0 in
  let c = Fruitchain_ledger.Reward.compare_utilities ~honest ~deviant:sniping ~rule in
  Alcotest.(check bool)
    (Printf.sprintf "sniping gain %.2f > 1" c.Fruitchain_ledger.Reward.gain)
    true
    (c.Fruitchain_ledger.Reward.gain > 1.0)

let () =
  Alcotest.run "adversary"
    [
      ( "null",
        [
          Alcotest.test_case "never mines" `Quick test_null_never_mines;
          Alcotest.test_case "delay variants" `Quick test_null_delay_variants_differ;
        ] );
      ( "honest-coalition",
        [
          Alcotest.test_case "fair fruit share" `Quick test_honest_coalition_gets_fair_share;
          Alcotest.test_case "mines blocks" `Quick test_honest_coalition_mines_blocks;
        ] );
      ( "selfish",
        [
          Alcotest.test_case "beats fair share (nakamoto)" `Slow
            test_selfish_beats_fair_share_nakamoto;
          Alcotest.test_case "gamma monotone" `Slow test_selfish_gamma_monotone;
          Alcotest.test_case "fruit share stays fair" `Slow test_selfish_fruit_share_stays_fair;
          Alcotest.test_case "consistency preserved" `Quick test_selfish_preserves_consistency;
          Alcotest.test_case "adopted chain linked" `Quick test_selfish_chain_valid;
          Alcotest.test_case "fruit hoarding hurts itself" `Slow
            test_selfish_fruit_hoarding_hurts_itself;
          Alcotest.test_case "stubborn variants consistent" `Slow test_stubborn_variants_run;
        ] );
      ( "withhold",
        [
          Alcotest.test_case "loses with recency" `Quick test_withholder_loses_with_recency;
          Alcotest.test_case "floods without recency" `Quick
            test_withholder_floods_without_recency;
        ] );
      ("recorded once", recorded_once_cases);
      ( "fee-snipe",
        [ Alcotest.test_case "steals whales" `Slow test_fee_sniper_steals_whales ] );
    ]
