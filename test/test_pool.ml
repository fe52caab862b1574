(* Tests for Fruitchain_pool: share mining semantics, payout schemes,
   conservation and variance ordering. *)

module Mining_pool = Fruitchain_pool.Mining_pool
module Rng = Fruitchain_util.Rng
module Stats = Fruitchain_util.Stats

let members m = Array.make m (1.0 /. float_of_int m)

let simulate ?(scheme = Mining_pool.Solo) ?(m = 10) ?(p_block = 1e-3) ?(share_ratio = 100.0)
    ?(rounds = 50_000) ?(seed = 1L) () =
  Mining_pool.simulate ~rng:(Rng.of_seed seed) ~scheme ~member_power:(members m) ~p_block ~share_ratio
    ~rounds ~block_reward:1.0 ~slices:20

let total_member_income o = Array.fold_left (fun acc m -> acc +. m.Mining_pool.total) 0.0 o.Mining_pool.members

let test_validation () =
  let bad f = Alcotest.check_raises "invalid" (Invalid_argument f) in
  bad "Mining_pool.simulate: no members" (fun () -> ignore (simulate ~m:0 ()));
  bad "Mining_pool.simulate: p_block out of range" (fun () -> ignore (simulate ~p_block:0.0 ()));
  bad "Mining_pool.simulate: share_ratio must be >= 1" (fun () ->
      ignore (simulate ~share_ratio:0.5 ()))

let test_share_and_block_rates () =
  let o = simulate ~scheme:Mining_pool.Solo () in
  (* Expected: shares = rounds * p_block * ratio = 5000, blocks = 50. *)
  Alcotest.(check bool)
    (Printf.sprintf "shares ~5000 (got %d)" o.Mining_pool.shares)
    true
    (abs (o.Mining_pool.shares - 5000) < 500);
  Alcotest.(check bool)
    (Printf.sprintf "blocks ~50 (got %d)" o.Mining_pool.blocks)
    true
    (abs (o.Mining_pool.blocks - 50) < 25)

let test_solo_income_is_blocks () =
  let o = simulate ~scheme:Mining_pool.Solo () in
  Alcotest.(check (float 1e-6)) "each block pays 1" (float_of_int o.Mining_pool.blocks)
    (total_member_income o);
  Alcotest.(check (float 1e-6)) "no operator" 0.0 o.Mining_pool.operator_income

let test_proportional_conservation () =
  let fee = 0.05 in
  let o = simulate ~scheme:(Mining_pool.Proportional { fee }) () in
  (* Every block's reward is split (1-fee) to members + fee to operator,
     except shares still open at the end (never rewarded). *)
  let distributed = total_member_income o +. o.Mining_pool.operator_income in
  let expected = float_of_int o.Mining_pool.blocks in
  Alcotest.(check bool)
    (Printf.sprintf "distributed %.3f = blocks %.0f" distributed expected)
    true
    (Float.abs (distributed -. expected) < 1e-6);
  Alcotest.(check bool) "operator got its fee" true
    (Float.abs (o.Mining_pool.operator_income -. (fee *. expected)) < 1e-6)

let test_pps_member_income_deterministic_per_share () =
  let fee = 0.02 in
  let o = simulate ~scheme:(Mining_pool.Pay_per_share { fee }) ~share_ratio:100.0 () in
  (* Members are paid exactly (1-fee)/ratio per share. *)
  let expected = float_of_int o.Mining_pool.shares *. (1.0 -. fee) /. 100.0 in
  Alcotest.(check bool) "share payouts" true
    (Float.abs (total_member_income o -. expected) < 1e-6);
  (* Operator nets blocks - share payouts. *)
  let expected_op = float_of_int o.Mining_pool.blocks -. expected in
  Alcotest.(check bool) "operator margin" true
    (Float.abs (o.Mining_pool.operator_income -. expected_op) < 1e-6)

let test_pooling_reduces_member_variance () =
  let solo = simulate ~scheme:Mining_pool.Solo () in
  let prop = simulate ~scheme:(Mining_pool.Proportional { fee = 0.0 }) () in
  let pps = simulate ~scheme:(Mining_pool.Pay_per_share { fee = 0.0 }) () in
  let cv o = o.Mining_pool.members.(0).Mining_pool.income_cv in
  Alcotest.(check bool)
    (Printf.sprintf "prop (%.3f) < solo (%.3f)" (cv prop) (cv solo))
    true
    (cv prop < cv solo);
  Alcotest.(check bool)
    (Printf.sprintf "pps (%.3f) < prop (%.3f)" (cv pps) (cv prop))
    true
    (cv pps <= cv prop)

let test_pps_moves_variance_to_operator () =
  let pps = simulate ~scheme:(Mining_pool.Pay_per_share { fee = 0.0 }) () in
  Alcotest.(check bool) "operator CV large vs member CV" true
    (Float.abs pps.Mining_pool.operator_cv > pps.Mining_pool.members.(0).Mining_pool.income_cv)

let test_payment_counts () =
  let solo = simulate ~scheme:Mining_pool.Solo () in
  let pps = simulate ~scheme:(Mining_pool.Pay_per_share { fee = 0.0 }) () in
  let payments o = o.Mining_pool.members.(0).Mining_pool.payments in
  Alcotest.(check bool)
    (Printf.sprintf "pps pays far more often (%d vs %d)" (payments pps) (payments solo))
    true
    (payments pps > 10 * max 1 (payments solo))

let test_time_to_first_payment_ordering () =
  let solo = simulate ~scheme:Mining_pool.Solo ~seed:3L () in
  let pps = simulate ~scheme:(Mining_pool.Pay_per_share { fee = 0.0 }) ~seed:3L () in
  let ttf o = o.Mining_pool.members.(0).Mining_pool.time_to_first in
  Alcotest.(check bool) "pps pays sooner" true
    (Float.is_nan (ttf solo) || ttf pps <= ttf solo)

let test_unequal_power () =
  (* A member with double power earns about double under proportional. *)
  let power = [| 0.2; 0.1; 0.1; 0.1 |] in
  let o =
    Mining_pool.simulate ~rng:(Rng.of_seed 4L)
      ~scheme:(Mining_pool.Proportional { fee = 0.0 })
      ~member_power:power ~p_block:1e-3 ~share_ratio:200.0 ~rounds:100_000 ~block_reward:1.0
      ~slices:20
  in
  let big = o.Mining_pool.members.(0).Mining_pool.total and small = o.Mining_pool.members.(1).Mining_pool.total in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f near 2" (big /. small))
    true
    (big /. small > 1.6 && big /. small < 2.4)

let () =
  Alcotest.run "pool"
    [
      ( "mechanics",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "share and block rates" `Quick test_share_and_block_rates;
          Alcotest.test_case "solo income = blocks" `Quick test_solo_income_is_blocks;
          Alcotest.test_case "proportional conservation" `Quick test_proportional_conservation;
          Alcotest.test_case "pps per-share payout" `Quick
            test_pps_member_income_deterministic_per_share;
        ] );
      ( "variance",
        [
          Alcotest.test_case "pooling reduces member CV" `Quick
            test_pooling_reduces_member_variance;
          Alcotest.test_case "pps shifts variance to operator" `Quick
            test_pps_moves_variance_to_operator;
          Alcotest.test_case "payment counts" `Quick test_payment_counts;
          Alcotest.test_case "time to first payment" `Quick test_time_to_first_payment_ordering;
          Alcotest.test_case "unequal power" `Quick test_unequal_power;
        ] );
    ]
