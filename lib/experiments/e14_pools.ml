(* E14 (Table 9, extension): mining pools vs FruitChain's protocol-level
   variance reduction (S6).

   The paper's argument for fruit hardness is that it delivers the variance
   reduction miners join pools for, without the pool. We make the
   comparison concrete: simulate actual pooled mining (lib/pool — shares as
   partial PoW, proportional and pay-per-share payouts, operator fees) and
   put a solo FruitChain miner of the same power (via the full protocol
   simulation at q=1000, from E07's setup) next to it. *)

module Table = Fruitchain_util.Table
module Mining_pool = Fruitchain_pool.Mining_pool
module Rng = Fruitchain_util.Rng
module Config = Fruitchain_sim.Config
module Params = Fruitchain_core.Params
module Rewards = Fruitchain_metrics.Rewards

let id = "E14"
let title = "Income variance: pooled Bitcoin mining vs solo FruitChain mining"

let claim =
  "S6: raising fruit hardness gives a solo miner the variance profile of a pooled miner — \
   the decentralized replacement for pools."

let slices = 20

let run ?(scale = Exp.Full) () =
  let rounds = match scale with Exp.Full -> 50_000 | Exp.Quick -> 10_000 in
  let p_block = 2e-4 in
  let m = 10 in
  (* Ten equal members, each with a tenth of the pool's power; the pool as
     a whole has the power a solo miner would mine against. *)
  let member_power = Array.make m (1.0 /. float_of_int m) in
  let share_ratio = 1000.0 in
  let block_reward = 1.0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Per-miner income over %d rounds, %d slices (power 10%%, p_block=%g)" rounds slices
           p_block)
      ~columns:
        [
          ("setup", Table.Left);
          ("payments", Table.Right);
          ("time to first", Table.Right);
          ("income CV", Table.Right);
          ("operator take", Table.Right);
        ]
      ()
  in
  let pool_row scheme =
    let outcome =
      Mining_pool.simulate ~rng:(Rng.of_seed 14L) ~scheme ~member_power ~p_block ~share_ratio
        ~rounds ~block_reward ~slices
    in
    let member = outcome.Mining_pool.members.(0) in
    Table.add_row table
      [
        Mining_pool.scheme_name scheme;
        Table.int member.Mining_pool.payments;
        (if Float.is_nan member.Mining_pool.time_to_first then "never"
         else Table.f2 member.Mining_pool.time_to_first);
        Table.f4 member.Mining_pool.income_cv;
        Table.f2 outcome.Mining_pool.operator_income;
      ]
  in
  pool_row Mining_pool.Solo;
  pool_row (Mining_pool.Proportional { fee = 0.02 });
  pool_row (Mining_pool.Pay_per_share { fee = 0.02 });
  (* The protocol alternative: a solo miner with 10% of the power on
     FruitChain with q = 1000, measured through the full simulation. *)
  let fc_summary =
    let params = Exp.default_params ~p:p_block ~q:share_ratio ~kappa:8 ~recency_r:4 () in
    let config =
      Runs.config ~protocol:Config.Fruitchain ~n:m ~rho:0.0
        ~rounds:(min rounds 30_000)
        ~params ~seed:14L ()
    in
    ignore (Params.q params);
    let trace = Runs.run config ~strategy:Runs.null_delay () in
    Rewards.summarize trace ~miner:0 ~slices
  in
  Table.add_row table
    [
      "fruitchain solo (q=1000)";
      Table.int fc_summary.Rewards.rewards;
      Table.f2 fc_summary.Rewards.time_to_first;
      Table.f4 fc_summary.Rewards.income_cv;
      "0.00";
    ];
  {
    Exp.id;
    title;
    claim;
    table;
    notes =
      [
        "solo bitcoin-style mining: rare, lumpy payments (the reason pools exist)";
        "pooled schemes smooth income but pay an operator and centralize decisions; \
         fruitchain solo matches their CV with neither";
        "PPS operator take is its net margin: block income minus share payouts (variance \
         moved onto the operator)";
      ];
  }
