open Fruitchain_chain
module Rng = Fruitchain_util.Rng
module Pool = Fruitchain_util.Pool
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Params = Fruitchain_core.Params
module Window_view = Fruitchain_core.Window_view
module Fruit_node = Fruitchain_core.Node
module Nak_node = Fruitchain_nakamoto.Node

type workload = Strategy.workload

type party = Nak of Nak_node.t | Fruit of Fruit_node.t | Corrupt

(* Heads are threaded as arena ids: the per-round watchers compare, walk,
   and measure heads without ever re-resolving a hash. Hashes are
   materialized only where they become externally visible (trace head
   snapshots). *)
let head_of = function
  | Nak node -> Some (Nak_node.head_id node)
  | Fruit node -> Some (Fruit_node.head_id node)
  | Corrupt -> None

(* [Config.make] sorts every schedule by round, so each is walked by a
   cursor: [due round act pending] applies [act] to the entries due at
   [round], in order, and returns the entries still ahead. *)
let rec due round act = function
  | (r, x) :: rest when r <= round ->
      if Int.equal r round then act x;
      due round act rest
  | pending -> pending

let run_with_oracle ~config ~strategy ~oracle ?(workload = fun ~round:_ ~party:_ -> "")
    ?net_policy ?round_hook ?scope () =
  let scope = match scope with Some s -> s | None -> Pool.current_scope () in
  let master = Rng.of_seed config.Config.seed in
  let store = Store.create () in
  let params = config.Config.params in
  (* Without the recency rule any fruit the chain does not record is
     includable, so F′ needs the whole chain's view. *)
  let views =
    if params.Params.enforce_recency then
      Window_view.Cache.create ~window:(Params.recency_window params) ~store
    else Window_view.Cache.whole_chain ~store
  in
  let network =
    Network.create ~scope ?policy:net_policy ~n:config.Config.n
      ~delta:config.Config.delta ()
  in
  let trace = Trace.create ~scope ~config ~store () in
  let net_rng = Rng.split master in
  (* Current relay setting: gossip_toggle events flip it for every live
     fruit node, and nodes respawned by uncorruption inherit it. *)
  let gossip_now = ref config.Config.gossip in
  let spawn i =
    let rng = Rng.split master in
    match config.Config.protocol with
    | Config.Nakamoto -> Nak (Nak_node.create ~id:i ~store ~rng)
    | Config.Fruitchain ->
        Fruit (Fruit_node.create ~gossip:!gossip_now ~id:i ~params ~store ~views ~rng ())
  in
  let parties =
    Array.init config.Config.n (fun i -> if Config.is_corrupt config i then Corrupt else spawn i)
  in
  let ctx =
    {
      Strategy.config;
      store;
      views;
      oracle;
      network;
      rng = Rng.split master;
      trace;
      workload;
    }
  in
  let strat = Strategy.instantiate strategy ctx in
  Trace.start trace;
  let head_at i = head_of parties.(i) in
  (* Scheduled gossip toggles (scenario sugar; no-op for Nakamoto). *)
  let toggle_gossip on =
    gossip_now := on;
    Array.iter (fun p -> match p with Fruit node -> Fruit_node.set_gossip node on | _ -> ()) parties
  in
  (* Adaptive corruption: Z hands the party to A at its scheduled round;
     the node stops acting and its query moves into the adversary's
     budget (Strategy.q_at). Its buffer's slot goes back to the fruit
     plane, for a node respawned later. *)
  let corrupt party =
    (match parties.(party) with Fruit node -> Fruit_node.release node | Nak _ | Corrupt -> ());
    parties.(party) <- Corrupt
  in
  (* Uncorruption: the released party re-spawns as a freshly initialized
     honest node (the paper treats it exactly like a new player). *)
  let uncorrupt party = parties.(party) <- spawn party in
  let gossip_due = ref config.Config.gossip_schedule in
  let corrupt_due = ref config.Config.corruption_schedule in
  let uncorrupt_due = ref config.Config.uncorruption_schedule in
  for round = 0 to config.Config.rounds - 1 do
    (* Scenario driver hook (fruitstorm): applied before the round's three
       phases so fault windows opening at [round] already govern it. *)
    (match round_hook with None -> () | Some hook -> hook ~scope ~round);
    gossip_due := due round toggle_gossip !gossip_due;
    corrupt_due := due round corrupt !corrupt_due;
    uncorrupt_due := due round uncorrupt !uncorrupt_due;
    Trace.round_start trace ~round;
    let broadcasts = ref [] in
    for i = 0 to config.Config.n - 1 do
      let incoming = Network.drain network ~round ~recipient:i in
      Trace.incoming trace ~round incoming;
      match parties.(i) with
      | Corrupt -> () (* the adversary observes everything at send time *)
      | (Nak _ | Fruit _) as p ->
          let record = Trace.record trace (workload ~round ~party:i) in
          let out =
            match p with
            | Nak node -> Nak_node.step node oracle ~round ~record ~incoming
            | Fruit node -> Fruit_node.step node oracle ~round ~record ~incoming
            | Corrupt -> assert false
          in
          Trace.minted trace ~round ~miner:i out;
          (* An idle party sends nothing: no closure for an empty outbox. *)
          if not (List.is_empty out) then
            List.iter
              (fun msg ->
                broadcasts := msg :: !broadcasts;
                Network.broadcast network ~now:round
                  ~schedule:(fun ~recipient -> Strategy.schedule_honest strat msg ~recipient)
                  ~rng:net_rng msg)
              out
    done;
    Strategy.act strat ~round ~honest_broadcasts:(List.rev !broadcasts);
    Trace.heads trace ~round head_at;
    Trace.measure trace ~round head_at network
  done;
  Trace.finish trace head_at ~network ~oracle ~extra:[];
  trace

let run ~config ~strategy ?workload ?net_policy ?round_hook ?scope () =
  match config.Config.engine with
  | Config.Sparse ->
      (* The sparse plane has no per-party nodes to strategize against:
         every party mines the converged chain (the honest-coalition
         behaviour). The strategy module is accepted for interface parity
         and ignored; see Sparse.run and DESIGN.md §14. The other three
         inputs would have nothing to act on there, so they are refused. *)
      let (module _ : Strategy.S) = strategy in
      let refuse what = invalid_arg ("Engine.run: the sparse plane takes no " ^ what) in
      if Option.is_some workload then refuse "workload";
      if Option.is_some net_policy then refuse "delivery policy";
      if Option.is_some round_hook then refuse "round hook";
      Sparse.run ~config ?scope ()
  | Config.Exact ->
      let seed_rng = Rng.of_seed (Int64.logxor config.Config.seed 0x5DEECE66DL) in
      let oracle =
        Oracle.sim
          ~p:config.Config.params.Params.p
          ~pf:config.Config.params.Params.pf
          (Rng.split seed_rng)
      in
      run_with_oracle ~config ~strategy ~oracle ?workload ?net_policy ?round_hook ?scope ()
