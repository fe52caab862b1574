(* Tests for Fruitchain_hybrid: committee election, the BFT slot protocol
   and its optimal adversary, and the end-to-end evaluation. *)

module Committee = Fruitchain_hybrid.Committee
module Bft = Fruitchain_hybrid.Bft
module Hybrid = Fruitchain_hybrid.Hybrid
module Types = Fruitchain_chain.Types
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Params = Fruitchain_core.Params
module Rng = Fruitchain_util.Rng

let committee_of_flags flags =
  {
    Committee.seats =
      Array.of_list
        (List.map (fun honest -> if honest then Committee.Honest 0 else Committee.Byzantine) flags);
    elected_at = 0;
  }

let all_honest n = committee_of_flags (List.init n (fun _ -> true))

let with_byzantine n f =
  committee_of_flags (List.init n (fun i -> i >= f))
(* First f seats Byzantine — leader of slot 0 is Byzantine when f > 0. *)

(* --- Committee ---------------------------------------------------------- *)

let test_committee_counts () =
  let c = with_byzantine 9 3 in
  Alcotest.(check int) "size" 9 (Committee.size c);
  Alcotest.(check int) "byzantine" 3 (Committee.byzantine_seats c);
  Alcotest.(check (float 1e-9)) "honest fraction" (2.0 /. 3.0) (Committee.honest_fraction c)

let small_trace () =
  let params = Params.make ~recency_r:4 ~p:0.01 ~pf:0.05 ~kappa:4 () in
  let config =
    Config.make ~protocol:Config.Fruitchain ~n:8 ~rho:0.25 ~delta:2 ~rounds:4_000 ~seed:2L
      ~params ()
  in
  Engine.run ~config ~strategy:(module Fruitchain_adversary.Honest_coalition.M) ()

let test_committee_from_trace () =
  let trace = small_trace () in
  (match List.rev (Committee.sliding trace ~unit:`Fruits ~size:50 ~stride:10) with
  | c :: _ ->
      Alcotest.(check int) "50 seats" 50 (Committee.size c);
      Alcotest.(check bool) "some honest seats" true (Committee.honest_fraction c > 0.5)
  | [] -> Alcotest.fail "ledger long enough for a committee");
  Alcotest.(check int) "oversized election fails" 0
    (List.length (Committee.sliding trace ~unit:`Fruits ~size:1_000_000 ~stride:1))

let test_committee_sliding () =
  let trace = small_trace () in
  let committees = Committee.sliding trace ~unit:`Fruits ~size:50 ~stride:50 in
  Alcotest.(check bool) "several disjoint committees" true (List.length committees > 3);
  List.iter
    (fun c -> Alcotest.(check int) "each is full-size" 50 (Committee.size c))
    committees

(* --- BFT ----------------------------------------------------------------- *)

let test_bft_all_honest_commits () =
  let rng = Rng.of_seed 1L in
  let stats = Bft.run_slots ~rng ~committee:(all_honest 10) ~slots:20 in
  Alcotest.(check int) "no violations" 0 stats.Bft.safety_violations;
  Alcotest.(check int) "no stalls" 0 stats.Bft.liveness_failures

let test_bft_liveness_threshold () =
  (* Live iff honest seats alone reach the quorum: f <= ceil(n/3) - 1. *)
  let rng = Rng.of_seed 10L in
  let lively n f =
    let stats = Bft.run_slots ~rng ~committee:(with_byzantine n f) ~slots:n in
    stats.Bft.liveness_failures
  in
  (* n=9, q=7: f=2 keeps h=7>=q; byzantine-leader slots still stall. *)
  Alcotest.(check int) "n=9 f=2: only byzantine-leader slots stall" 2 (lively 9 2);
  (* n=9, f=3: h=6 < q=7 — everything stalls. *)
  Alcotest.(check int) "n=9 f=3: all slots stall" 9 (lively 9 3)

let test_bft_safe_below_third () =
  (* f < n/3: the optimal equivocator cannot double-commit, ever. *)
  let rng = Rng.of_seed 2L in
  List.iter
    (fun (n, f) ->
      let c = with_byzantine n f in
      Alcotest.(check bool)
        (Printf.sprintf "attack infeasible n=%d f=%d" n f)
        false
        (Bft.attack_feasible ~committee:c))
    [ (9, 2); (10, 3); (30, 9); (100, 33) ];
  List.iter
    (fun (n, f) ->
      let c = with_byzantine n f in
      let stats = Bft.run_slots ~rng ~committee:c ~slots:(2 * n) in
      Alcotest.(check int)
        (Printf.sprintf "safety holds n=%d f=%d" n f)
        0 stats.Bft.safety_violations)
    [ (9, 2); (10, 3); (30, 9); (100, 33) ]

let test_bft_breaks_at_third () =
  (* f >= 2*quorum - n (a whisker above n/3): the equivocation
     double-commits in Byzantine-leader slots. *)
  let rng = Rng.of_seed 3L in
  List.iter
    (fun (n, f) ->
      let c = with_byzantine n f in
      Alcotest.(check bool)
        (Printf.sprintf "attack feasible n=%d f=%d" n f)
        true
        (Bft.attack_feasible ~committee:c);
      let stats = Bft.run_slots ~rng ~committee:c ~slots:n in
      Alcotest.(check bool)
        (Printf.sprintf "violations occur n=%d f=%d" n f)
        true
        (stats.Bft.safety_violations > 0))
    [ (9, 5); (30, 12); (100, 34) ]

let test_bft_honest_leader_always_safe_slot () =
  (* Even in a feasible-attack committee, an honest-leader slot never
     double-commits: leader index n-1 is honest in with_byzantine. At
     n=9, f=5 the honest seats alone miss the quorum, so the slot stalls
     safely. *)
  let c = with_byzantine 9 5 in
  let o = Bft.run_slot ~rng:(Rng.of_seed 4L) ~committee:c ~slot:8 in
  Alcotest.(check bool) "honest leader" false o.Bft.leader_byzantine;
  Alcotest.(check bool) "no violation" false o.Bft.safety_violated;
  Alcotest.(check bool) "stalls safely (honest < quorum)" false o.Bft.lively

let test_bft_byzantine_leader_stalls_when_infeasible () =
  let c = with_byzantine 10 2 in
  (* Slot 0's leader is Byzantine; attack infeasible => stall. *)
  let o = Bft.run_slot ~rng:(Rng.of_seed 5L) ~committee:c ~slot:0 in
  Alcotest.(check bool) "byzantine leader" true o.Bft.leader_byzantine;
  Alcotest.(check bool) "no commit" false o.Bft.lively;
  Alcotest.(check bool) "but safe" false o.Bft.safety_violated

let test_bft_empty_committee_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Bft.run_slot: empty committee") (fun () ->
      ignore (Bft.run_slot ~rng:(Rng.of_seed 6L) ~committee:(all_honest 0) ~slot:0))

(* --- End-to-end ------------------------------------------------------------ *)

let test_hybrid_evaluate () =
  let trace = small_trace () in
  let r =
    Hybrid.evaluate trace ~unit:`Fruits ~committee_size:30 ~stride:30 ~slots_per_committee:10
      ~seed:7L
  in
  Alcotest.(check bool) "committees found" true (r.Hybrid.committees > 3);
  Alcotest.(check int) "slot accounting" (r.Hybrid.committees * 10) r.Hybrid.total_slots;
  Alcotest.(check bool) "honest coalition -> mostly safe" true
    (r.Hybrid.unsafe_committees <= r.Hybrid.committees / 3);
  Alcotest.(check bool) "mean fraction sane" true
    (r.Hybrid.mean_honest_fraction > 0.5 && r.Hybrid.mean_honest_fraction <= 1.0)

let () =
  Alcotest.run "hybrid"
    [
      ( "committee",
        [
          Alcotest.test_case "counts" `Quick test_committee_counts;
          Alcotest.test_case "from trace" `Quick test_committee_from_trace;
          Alcotest.test_case "sliding" `Quick test_committee_sliding;
        ] );
      ( "bft",
        [
          Alcotest.test_case "all honest commits" `Quick test_bft_all_honest_commits;
          Alcotest.test_case "liveness threshold" `Quick test_bft_liveness_threshold;
          Alcotest.test_case "safe below split threshold" `Quick test_bft_safe_below_third;
          Alcotest.test_case "breaks at n/3" `Quick test_bft_breaks_at_third;
          Alcotest.test_case "honest leader slot" `Quick test_bft_honest_leader_always_safe_slot;
          Alcotest.test_case "byzantine leader stalls" `Quick
            test_bft_byzantine_leader_stalls_when_infeasible;
          Alcotest.test_case "empty rejected" `Quick test_bft_empty_committee_rejected;
        ] );
      ("hybrid", [ Alcotest.test_case "evaluate" `Quick test_hybrid_evaluate ]);
    ]
