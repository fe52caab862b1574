(* Tests for Fruitchain_net: message construction and the Δ-bounded
   adversarial delivery queue. *)

module Message = Fruitchain_net.Message
module Network = Fruitchain_net.Network
module Types = Fruitchain_chain.Types
module Rng = Fruitchain_util.Rng

let msg ?(sender = 0) ?(sent_at = 0) ?priority () =
  Message.chain_announce ~sender ~sent_at ?priority ~blocks:[] ~head:Types.genesis_hash ()

let drain_all net ~recipient ~upto =
  List.concat_map (fun round -> Network.drain net ~round ~recipient) (List.init upto Fun.id)

let test_create_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Network.create: n must be positive") (fun () ->
      ignore (Network.create ~n:0 ~delta:1 ()));
  Alcotest.check_raises "delta=0" (Invalid_argument "Network.create: delta must be >= 1")
    (fun () -> ignore (Network.create ~n:3 ~delta:0 ()))

let test_broadcast_skips_sender () =
  let net = Network.create ~n:3 ~delta:1 () in
  let rng = Rng.of_seed 1L in
  Network.broadcast net ~now:0 ~rng (msg ~sender:1 ());
  Alcotest.(check int) "recipient 0 gets it" 1 (List.length (Network.drain net ~round:1 ~recipient:0));
  Alcotest.(check int) "sender skipped" 0 (List.length (Network.drain net ~round:1 ~recipient:1));
  Alcotest.(check int) "recipient 2 gets it" 1 (List.length (Network.drain net ~round:1 ~recipient:2))

let test_max_delay_default () =
  let net = Network.create ~n:2 ~delta:5 () in
  let rng = Rng.of_seed 2L in
  Network.broadcast net ~now:10 ~rng (msg ~sender:0 ~sent_at:10 ());
  for round = 11 to 14 do
    Alcotest.(check int)
      (Printf.sprintf "nothing at %d" round)
      0
      (List.length (Network.drain net ~round ~recipient:1))
  done;
  Alcotest.(check int) "arrives at now+delta" 1
    (List.length (Network.drain net ~round:15 ~recipient:1))

let test_next_round_schedule () =
  let net = Network.create ~n:2 ~delta:5 () in
  let rng = Rng.of_seed 3L in
  Network.broadcast net ~now:3 ~schedule:(fun ~recipient:_ -> Network.Next_round) ~rng
    (msg ~sender:0 ~sent_at:3 ());
  Alcotest.(check int) "arrives next round" 1 (List.length (Network.drain net ~round:4 ~recipient:1))

let test_at_schedule_clamped () =
  let net = Network.create ~n:2 ~delta:3 () in
  let rng = Rng.of_seed 4L in
  (* Too early: clamps to now+1. Too late: clamps to now+delta. *)
  Network.send_to net ~now:10 ~recipient:1 ~schedule:(Network.At 2) ~rng (msg ());
  Alcotest.(check int) "clamped up to 11" 1 (List.length (Network.drain net ~round:11 ~recipient:1));
  Network.send_to net ~now:10 ~recipient:1 ~schedule:(Network.At 99) ~rng (msg ());
  Alcotest.(check int) "clamped down to 13" 1
    (List.length (Network.drain net ~round:13 ~recipient:1))

let test_uniform_within_window () =
  let net = Network.create ~n:2 ~delta:4 () in
  let rng = Rng.of_seed 5L in
  for _ = 1 to 200 do
    Network.send_to net ~now:0 ~recipient:1 ~schedule:Network.Uniform_in_window ~rng (msg ())
  done;
  let per_round = List.init 10 (fun r -> List.length (Network.drain net ~round:r ~recipient:1)) in
  Alcotest.(check int) "nothing at 0" 0 (List.nth per_round 0);
  Alcotest.(check int) "nothing after window" 0 (List.nth per_round 5);
  let delivered = List.fold_left ( + ) 0 per_round in
  Alcotest.(check int) "all delivered in window" 200 delivered;
  List.iteri
    (fun r c ->
      if r >= 1 && r <= 4 then Alcotest.(check bool) "spread out" true (c > 20))
    per_round

let test_priority_ordering () =
  let net = Network.create ~n:2 ~delta:2 () in
  let rng = Rng.of_seed 6L in
  let honest = msg ~sender:0 () in
  let rushed = msg ~sender:0 ~priority:Message.rushed_priority () in
  let late = msg ~sender:0 ~priority:(Message.honest_priority + 10) () in
  (* Enqueue honest first, rushed second, late third — all for round 1. *)
  Network.send_to net ~now:0 ~recipient:1 ~schedule:Network.Next_round ~rng honest;
  Network.send_to net ~now:0 ~recipient:1 ~schedule:Network.Next_round ~rng rushed;
  Network.send_to net ~now:0 ~recipient:1 ~schedule:Network.Next_round ~rng late;
  match Network.drain net ~round:1 ~recipient:1 with
  | [ a; b; c ] ->
      Alcotest.(check int) "rushed first" Message.rushed_priority a.Message.priority;
      Alcotest.(check int) "honest second" Message.honest_priority b.Message.priority;
      Alcotest.(check int) "late last" (Message.honest_priority + 10) c.Message.priority
  | other -> Alcotest.fail (Printf.sprintf "expected 3 messages, got %d" (List.length other))

let test_fifo_within_priority () =
  let net = Network.create ~n:2 ~delta:2 () in
  let rng = Rng.of_seed 7L in
  let m1 = Message.fruit_announce ~sender:0 ~sent_at:0
      { Types.f_header = Types.genesis.b_header; f_hash = Types.genesis_hash; f_prov = None }
  in
  let m2 = msg ~sender:0 () in
  Network.send_to net ~now:0 ~recipient:1 ~schedule:Network.Next_round ~rng m1;
  Network.send_to net ~now:0 ~recipient:1 ~schedule:Network.Next_round ~rng m2;
  match Network.drain net ~round:1 ~recipient:1 with
  | [ a; _ ] -> (
      match a.Message.payload with
      | Message.Fruit_announce _ -> ()
      | _ -> Alcotest.fail "fifo broken within same priority")
  | _ -> Alcotest.fail "expected 2 messages"

let test_drain_removes () =
  let net = Network.create ~n:2 ~delta:1 () in
  let rng = Rng.of_seed 8L in
  Network.broadcast net ~now:0 ~rng (msg ~sender:0 ());
  Alcotest.(check int) "pending before" 1 (Network.pending net);
  ignore (Network.drain net ~round:1 ~recipient:1);
  Alcotest.(check int) "pending after" 0 (Network.pending net);
  Alcotest.(check int) "second drain empty" 0 (List.length (Network.drain net ~round:1 ~recipient:1))

let test_send_to_bad_recipient () =
  let net = Network.create ~n:2 ~delta:1 () in
  let rng = Rng.of_seed 9L in
  Alcotest.check_raises "bad recipient" (Invalid_argument "Network.send_to: bad recipient")
    (fun () -> Network.send_to net ~now:0 ~recipient:7 ~schedule:Network.Next_round ~rng (msg ()))

let test_per_recipient_schedules () =
  (* The adversary can deliver the same broadcast at different times to
     different parties. *)
  let net = Network.create ~n:3 ~delta:4 () in
  let rng = Rng.of_seed 10L in
  Network.broadcast net ~now:0
    ~schedule:(fun ~recipient -> if recipient = 1 then Network.Next_round else Network.Max_delay)
    ~rng (msg ~sender:0 ());
  Alcotest.(check int) "fast path" 1 (List.length (drain_all net ~recipient:1 ~upto:2));
  Alcotest.(check int) "slow path nothing yet" 0 (List.length (drain_all net ~recipient:2 ~upto:4));
  Alcotest.(check int) "slow path at 4" 1 (List.length (Network.drain net ~round:4 ~recipient:2))

(* --- Topology ------------------------------------------------------------ *)

module Topology = Fruitchain_net.Topology

let test_topology_complete () =
  let t = Topology.complete 6 in
  let mean, max_d = Topology.degree_stats t in
  Alcotest.(check (float 1e-9)) "degree n-1" 5.0 mean;
  Alcotest.(check int) "max degree" 5 max_d;
  Alcotest.(check int) "diameter 1" 1 (Topology.diameter t)

let test_topology_ring () =
  let t = Topology.ring 10 ~k:1 in
  let mean, _ = Topology.degree_stats t in
  Alcotest.(check (float 1e-9)) "2-regular" 2.0 mean;
  Alcotest.(check int) "diameter n/2" 5 (Topology.diameter t);
  let t2 = Topology.ring 10 ~k:2 in
  Alcotest.(check bool) "denser ring shrinks diameter" true
    (Topology.diameter t2 < Topology.diameter t)

let test_topology_validation () =
  Alcotest.check_raises "ring too small" (Invalid_argument "Topology.ring: need n > 2k")
    (fun () -> ignore (Topology.ring 4 ~k:2));
  Alcotest.check_raises "complete n=1" (Invalid_argument "Topology.complete: need n >= 2")
    (fun () -> ignore (Topology.complete 1))

let test_topology_er_connected () =
  let rng = Rng.of_seed 5L in
  for _ = 1 to 10 do
    let t = Topology.erdos_renyi rng 40 ~avg_degree:3.0 in
    let s = Topology.flood t ~source:0 ~per_hop_rounds:1 in
    Alcotest.(check int) "connected via backbone" 40 s.Topology.reached
  done

let test_flood_semantics () =
  let t = Topology.ring 8 ~k:1 in
  let s = Topology.flood t ~source:0 ~per_hop_rounds:3 in
  (* Farthest node is 4 hops away. *)
  Alcotest.(check int) "rounds = hops * per-hop" 12 s.Topology.rounds_to_full;
  Alcotest.(check int) "all reached" 8 s.Topology.reached;
  Alcotest.(check int) "worst-case delta = diameter * per-hop" 12
    (Topology.worst_case_delta t ~per_hop_rounds:3)

let test_flood_validation () =
  let t = Topology.ring 8 ~k:1 in
  Alcotest.check_raises "per-hop >= 1"
    (Invalid_argument "Topology.flood: per_hop_rounds must be >= 1") (fun () ->
      ignore (Topology.flood t ~source:0 ~per_hop_rounds:0))

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "complete" `Quick test_topology_complete;
          Alcotest.test_case "ring" `Quick test_topology_ring;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "erdos-renyi connected" `Quick test_topology_er_connected;
          Alcotest.test_case "flood semantics" `Quick test_flood_semantics;
          Alcotest.test_case "flood validation" `Quick test_flood_validation;
        ] );
      ( "network",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "broadcast skips sender" `Quick test_broadcast_skips_sender;
          Alcotest.test_case "max delay default" `Quick test_max_delay_default;
          Alcotest.test_case "next round" `Quick test_next_round_schedule;
          Alcotest.test_case "At clamped into window" `Quick test_at_schedule_clamped;
          Alcotest.test_case "uniform in window" `Quick test_uniform_within_window;
          Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
          Alcotest.test_case "fifo within priority" `Quick test_fifo_within_priority;
          Alcotest.test_case "drain removes" `Quick test_drain_removes;
          Alcotest.test_case "bad recipient" `Quick test_send_to_bad_recipient;
          Alcotest.test_case "per-recipient schedules" `Quick test_per_recipient_schedules;
        ] );
    ]
