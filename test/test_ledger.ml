(* Tests for Fruitchain_ledger: transaction codec, workloads, reward rules
   and utility comparison. *)

module Tx = Fruitchain_ledger.Tx
module Reward = Fruitchain_ledger.Reward
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Rng = Fruitchain_util.Rng
module Delays = Fruitchain_adversary.Delays

(* --- Tx codec ------------------------------------------------------------ *)

let test_tx_roundtrip () =
  match Tx.decode "tx:abc:12.500000" with
  | Some tx' ->
      Alcotest.(check string) "id" "abc" tx'.Tx.id;
      Alcotest.(check (float 1e-6)) "fee" 12.5 tx'.Tx.fee
  | None -> Alcotest.fail "roundtrip failed"

let test_tx_decode_rejects () =
  Alcotest.(check bool) "empty" true (Tx.decode "" = None);
  Alcotest.(check bool) "probe" true (Tx.decode "probe/100" = None);
  Alcotest.(check bool) "garbled fee" true (Tx.decode "tx:a:notafloat" = None);
  Alcotest.(check bool) "negative fee" true (Tx.decode "tx:a:-3.0" = None);
  Alcotest.(check bool) "missing parts" true (Tx.decode "tx:a" = None)

let test_is_tx () =
  Alcotest.(check bool) "tx" true (Option.is_some (Tx.decode "tx:1:0.000000"));
  Alcotest.(check bool) "not tx" false (Option.is_some (Tx.decode "hello"))

(* --- Workloads ------------------------------------------------------------ *)

let test_interval_workload () =
  let w = Tx.Workload.interval ~rng:(Rng.of_seed 1L) ~every:10 ~mean_fee:1.0 in
  (* Same record for every party during an interval. *)
  let r0 = w ~round:0 ~party:0 and r0' = w ~round:5 ~party:3 in
  Alcotest.(check string) "stable within interval" r0 r0';
  let r1 = w ~round:10 ~party:0 in
  Alcotest.(check bool) "changes across intervals" false (String.equal r0 r1);
  Alcotest.(check bool) "records are txs" true
    (Option.is_some (Tx.decode r0) && Option.is_some (Tx.decode r1));
  (* Memoized: asking again gives the identical record (same fee). *)
  Alcotest.(check string) "memoized" r0 (w ~round:3 ~party:9)

let test_whale_workload () =
  let w =
    Tx.Workload.with_whales ~rng:(Rng.of_seed 2L) ~every:10 ~mean_fee:1.0 ~whale_every:4
      ~whale_fee:100.0
  in
  (* Slot 4 (rounds 40-49) is a whale. *)
  match Tx.decode (w ~round:42 ~party:0) with
  | Some tx ->
      Alcotest.(check (float 1e-6)) "whale fee" 100.0 tx.Tx.fee;
      Alcotest.(check bool) "ordinary slot is not a whale" true
        (match Tx.decode (w ~round:12 ~party:0) with
        | Some t -> t.Tx.fee < 100.0
        | None -> false)
  | None -> Alcotest.fail "whale slot not a tx"

(* --- Reward rules on a real run ------------------------------------------- *)

let run_with_fees ?(protocol = Config.Fruitchain) ?(rho = 0.25) () =
  let params = Params.make ~recency_r:4 ~p:0.01 ~pf:0.05 ~kappa:4 () in
  let config =
    Config.make ~protocol ~n:8 ~rho ~delta:2 ~rounds:5_000 ~seed:3L ~params ()
  in
  let workload = Tx.Workload.interval ~rng:(Rng.of_seed 7L) ~every:25 ~mean_fee:2.0 in
  Engine.run ~config ~strategy:(module Fruitchain_adversary.Honest_coalition.M) ~workload ()

let test_bitcoin_rule_totals () =
  let trace = run_with_fees () in
  let p = Reward.bitcoin_rule trace ~block_reward:1.0 in
  Alcotest.(check bool) "units counted" true (p.Reward.units > 100);
  (* Total = units * subsidy + confirmed fees >= units. *)
  Alcotest.(check bool) "total >= subsidies" true (p.Reward.total >= float_of_int p.Reward.units);
  (* Sum over miners equals the total. *)
  let sum = Hashtbl.fold (fun _ v acc -> acc +. v) p.Reward.by_miner 0.0 in
  Alcotest.(check (float 1e-6)) "conservation" p.Reward.total sum

let test_fruitchain_rule_conservation () =
  let trace = run_with_fees () in
  let bitcoin = Reward.bitcoin_rule trace ~block_reward:1.0 in
  let spread = Reward.fruitchain_rule trace ~unit_reward:1.0 ~segment:50 in
  (* Spreading redistributes but must conserve the total pot. *)
  Alcotest.(check (float 1e-6)) "same total" bitcoin.Reward.total spread.Reward.total;
  let sum = Hashtbl.fold (fun _ v acc -> acc +. v) spread.Reward.by_miner 0.0 in
  Alcotest.(check (float 1e-6)) "conservation" spread.Reward.total sum

let test_spreading_reduces_dispersion () =
  let trace = run_with_fees ~rho:0.0 () in
  let bitcoin = Reward.bitcoin_rule trace ~block_reward:1.0 in
  let spread = Reward.fruitchain_rule trace ~unit_reward:1.0 ~segment:50 in
  let dispersion p =
    let xs = List.init 8 (fun m -> Reward.miner_payout p m) in
    Fruitchain_util.Stats.std (Fruitchain_util.Stats.of_list xs)
  in
  Alcotest.(check bool) "spread has lower dispersion" true
    (dispersion spread < dispersion bitcoin +. 1e-9)

let test_duplicate_fee_credited_once () =
  (* The interval workload hands the same tx to all parties: many fruits can
     confirm the same id, but the fee must be paid once. Check by summing
     decoded ledger fees vs (total - subsidies). *)
  let trace = run_with_fees ~rho:0.0 () in
  let p = Reward.bitcoin_rule trace ~block_reward:0.0 in
  let distinct_fees =
    let chain = Trace.honest_final_chain trace in
    let fruits = Fruitchain_core.Extract.fruits_of_chain chain in
    let seen = Hashtbl.create 64 in
    List.fold_left
      (fun acc (f : Fruitchain_chain.Types.fruit) ->
        match Tx.decode f.f_header.record with
        | Some tx when not (Hashtbl.mem seen tx.Tx.id) ->
            Hashtbl.replace seen tx.Tx.id ();
            acc +. tx.Tx.fee
        | Some _ | None -> acc)
      0.0 fruits
  in
  Alcotest.(check (float 1e-6)) "fees paid once" distinct_fees p.Reward.total

let test_coalition_payout () =
  let trace = run_with_fees ~rho:0.25 () in
  let p = Reward.fruitchain_rule trace ~unit_reward:1.0 ~segment:50 in
  let config = Trace.config trace in
  let coalition =
    Hashtbl.fold
      (fun m v acc -> if m >= 0 && Config.is_corrupt config m then acc +. v else acc)
      p.Reward.by_miner 0.0
  in
  (* Honest coalition earns roughly its rho share. *)
  let share = coalition /. p.Reward.total in
  Alcotest.(check bool)
    (Printf.sprintf "share %.3f near 0.25" share)
    true
    (Float.abs (share -. 0.25) < 0.08)

let test_compare_utilities_sanity () =
  let honest = run_with_fees ~rho:0.25 () in
  let rule t = Reward.fruitchain_rule t ~unit_reward:1.0 ~segment:50 in
  let c = Reward.compare_utilities ~honest ~deviant:honest ~rule in
  Alcotest.(check (float 1e-9)) "self-comparison gain 1" 1.0 c.Reward.gain

let test_compare_utilities_mismatch () =
  let a = run_with_fees ~rho:0.25 () in
  let b = run_with_fees ~rho:0.0 () in
  Alcotest.check_raises "different coalitions"
    (Invalid_argument "Reward.compare_utilities: traces have different coalitions") (fun () ->
      ignore
        (Reward.compare_utilities ~honest:a ~deviant:b
           ~rule:(fun t -> Reward.bitcoin_rule t ~block_reward:1.0)))

let test_segment_validation () =
  let trace = run_with_fees () in
  Alcotest.check_raises "segment 0"
    (Invalid_argument "Reward.fruitchain_rule: segment must be positive") (fun () ->
      ignore (Reward.fruitchain_rule trace ~unit_reward:1.0 ~segment:0))

let () =
  Alcotest.run "ledger"
    [
      ( "tx",
        [
          Alcotest.test_case "roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "decode rejects" `Quick test_tx_decode_rejects;
          Alcotest.test_case "is_tx" `Quick test_is_tx;
        ] );
      ( "workload",
        [
          Alcotest.test_case "interval" `Quick test_interval_workload;
          Alcotest.test_case "whales" `Quick test_whale_workload;
        ] );
      ( "reward",
        [
          Alcotest.test_case "bitcoin totals" `Quick test_bitcoin_rule_totals;
          Alcotest.test_case "spread conservation" `Quick test_fruitchain_rule_conservation;
          Alcotest.test_case "spreading reduces dispersion" `Quick
            test_spreading_reduces_dispersion;
          Alcotest.test_case "duplicate fee once" `Quick test_duplicate_fee_credited_once;
          Alcotest.test_case "coalition payout" `Quick test_coalition_payout;
          Alcotest.test_case "self-comparison" `Quick test_compare_utilities_sanity;
          Alcotest.test_case "coalition mismatch" `Quick test_compare_utilities_mismatch;
          Alcotest.test_case "segment validation" `Quick test_segment_validation;
        ] );
    ]
