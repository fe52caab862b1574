(* The traced exact-plane round loop.

   [Engine.run] is one monolithic loop, so per-layer time cannot be read
   from outside it. This module re-runs that loop through public APIs
   only — [Network.drain], [Node.receive] per message, [Node.mine],
   [Network.broadcast], [Strategy.act] — building messages exactly as
   [Node.step] does, and times each call with [Fruitchain_obs.Clock].
   It must reproduce [Engine.run] exactly (events, final heads, queries);
   the benchmark checks that on every traced run and the self-test pins
   it on miniature configurations.

   Only what the workloads use is supported: the Fruitchain protocol, a
   null scope, no gossip, no probes and no corruption schedules. *)

open Fruitchain_chain
module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Strategy = Fruitchain_sim.Strategy
module Rng = Fruitchain_util.Rng
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Params = Fruitchain_core.Params
module Window_view = Fruitchain_core.Window_view
module Node = Fruitchain_core.Node
module Scope = Fruitchain_obs.Scope
module Clock = Fruitchain_obs.Clock

(* Seconds spent in each layer's calls. Kept apart from the counts so the
   record stays an unboxed float block. *)
type times = {
  mutable drain : float;
  mutable receive : float;
  mutable mine : float;
  mutable broadcast : float;
  mutable act : float;
  mutable snapshot : float;
  mutable round : float;  (** Whole rounds, hook included. *)
}

type counts = {
  mutable messages : int;  (** Point-to-point deliveries drained. *)
  mutable received : int;  (** Messages handed to [Node.receive]. *)
  mutable mine_calls : int;
  mutable mine_wins : int;  (** Calls that minted a fruit or a block. *)
}

type profile = { times : times; counts : counts }

let create_profile () =
  {
    times =
      { drain = 0.0; receive = 0.0; mine = 0.0; broadcast = 0.0; act = 0.0; snapshot = 0.0; round = 0.0 };
    counts = { messages = 0; received = 0; mine_calls = 0; mine_wins = 0 };
  }

(* Round time not spent in any timed call: the loop itself, record
   lookup, event recording and clock reads. *)
let unattributed p =
  let t = p.times in
  t.round -. t.drain -. t.receive -. t.mine -. t.broadcast -. t.act -. t.snapshot

let supported (config : Config.t) =
  (match config.protocol with Config.Fruitchain -> true | Config.Nakamoto -> false)
  && (match config.engine with Config.Exact -> true | Config.Sparse -> false)
  && (not config.gossip) && config.probe_interval = 0
  && List.is_empty config.corruption_schedule
  && List.is_empty config.uncorruption_schedule
  && List.is_empty config.gossip_schedule

let heights store parties =
  Array.map
    (function Some node -> Store.height_at store (Node.head_id node) | None -> -1)
    parties

let heads parties =
  Array.map (function Some node -> Node.head node | None -> Types.genesis.b_hash) parties

(* Mirrors [Engine.run] on the exact plane, with [profile] accumulating
   the time of every layer call. *)
let run ~(config : Config.t) ~strategy ?(workload = fun ~round:_ ~party:_ -> "") ?net_policy
    ?round_hook profile =
  if not (supported config) then invalid_arg "Traced.run: configuration not supported";
  let t = profile.times and c = profile.counts in
  let params = config.params in
  let oracle =
    let seed_rng = Rng.of_seed (Int64.logxor config.seed 0x5DEECE66DL) in
    Oracle.sim ~p:params.Params.p ~pf:params.Params.pf (Rng.split seed_rng)
  in
  let scope = Scope.null in
  let master = Rng.of_seed config.seed in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let network = Network.create ~scope ?policy:net_policy ~n:config.n ~delta:config.delta () in
  let trace = Trace.create ~scope ~config ~store () in
  let net_rng = Rng.split master in
  let parties =
    Array.init config.n (fun i ->
        if Config.is_corrupt config i then None
        else Some (Node.create ~gossip:false ~id:i ~params ~store ~views ~rng:(Rng.split master) ()))
  in
  let strat =
    Strategy.instantiate strategy
      { Strategy.config; store; views; oracle; network; rng = Rng.split master; trace; workload }
  in
  let broadcast round broadcasts msg =
    broadcasts := msg :: !broadcasts;
    let t0 = Clock.now_s () in
    Network.broadcast network ~now:round
      ~schedule:(fun ~recipient -> Strategy.schedule_honest strat msg ~recipient)
      ~rng:net_rng msg;
    t.broadcast <- t.broadcast +. (Clock.now_s () -. t0)
  in
  for round = 0 to config.rounds - 1 do
    let r0 = Clock.now_s () in
    (match round_hook with None -> () | Some hook -> hook ~scope ~round);
    let broadcasts = ref [] in
    for i = 0 to config.n - 1 do
      let t0 = Clock.now_s () in
      let incoming = Network.drain network ~round ~recipient:i in
      let t1 = Clock.now_s () in
      t.drain <- t.drain +. (t1 -. t0);
      c.messages <- c.messages + List.length incoming;
      match parties.(i) with
      | None -> ()
      | Some node ->
          List.iter (Node.receive node oracle) incoming;
          t.receive <- t.receive +. (Clock.now_s () -. t1);
          c.received <- c.received + List.length incoming;
          let record = workload ~round ~party:i in
          let t2 = Clock.now_s () in
          let { Node.fruit; block } = Node.mine node oracle ~round ~record ~honest:true in
          t.mine <- t.mine +. (Clock.now_s () -. t2);
          c.mine_calls <- c.mine_calls + 1;
          (* [Node.step]'s emission order: the fruit, then the block. *)
          (match fruit with
          | None -> ()
          | Some f ->
              Trace.record_event trace
                { Trace.round; miner = i; honest = true; kind = `Fruit; hash = f.Types.f_hash };
              broadcast round broadcasts (Message.fruit_announce ~sender:i ~sent_at:round f));
          (match block with
          | None -> ()
          | Some b ->
              Trace.record_event trace
                { Trace.round; miner = i; honest = true; kind = `Block; hash = b.Types.b_hash };
              broadcast round broadcasts
                (Message.chain_announce ~sender:i ~sent_at:round ~blocks:[ b ] ~head:b.b_hash ()));
          if Option.is_some fruit || Option.is_some block then c.mine_wins <- c.mine_wins + 1
    done;
    let t0 = Clock.now_s () in
    Strategy.act strat ~round ~honest_broadcasts:(List.rev !broadcasts);
    let t1 = Clock.now_s () in
    t.act <- t.act +. (t1 -. t0);
    if round mod config.snapshot_interval = 0 then
      Trace.record_heights trace ~round (heights store parties);
    if round mod config.head_snapshot_interval = 0 then
      Trace.record_heads trace ~round (heads parties);
    let t2 = Clock.now_s () in
    t.snapshot <- t.snapshot +. (t2 -. t1);
    t.round <- t.round +. (t2 -. r0)
  done;
  Trace.set_final_heads trace (heads parties);
  Trace.set_oracle_queries trace (Oracle.queries oracle);
  trace
