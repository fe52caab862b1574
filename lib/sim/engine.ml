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

let run_with_oracle ~config ~strategy ~oracle ?(workload = fun ~round:_ ~party:_ -> "")
    ?net_policy ?round_hook ?scope () =
  let scope = match scope with Some s -> s | None -> Pool.current_scope () in
  let master = Rng.of_seed config.Config.seed in
  let store = Store.create () in
  let window = Params.recency_window config.Config.params in
  let views = Window_view.Cache.create ~window ~store in
  let network =
    Network.create ~scope ?policy:net_policy ~n:config.Config.n
      ~delta:config.Config.delta ()
  in
  let obs = Observe.create ~scope ~config ~store in
  let trace = Observe.trace obs in
  let net_rng = Rng.split master in
  let parties =
    Array.init config.Config.n (fun i ->
        if Config.is_corrupt config i then Corrupt
        else
          let rng = Rng.split master in
          match config.Config.protocol with
          | Config.Nakamoto -> Nak (Nak_node.create ~id:i ~store ~rng)
          | Config.Fruitchain ->
              Fruit
                (Fruit_node.create ~gossip:config.Config.gossip ~id:i
                   ~params:config.Config.params ~store ~views ~rng ()))
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
  Observe.start obs;
  let head_at i = head_of parties.(i) in
  (* Liveness probes model a submitted transaction: from its injection round
     until the next probe replaces it, every honest party keeps offering the
     probe record to its mining attempts (the mempool behaviour the liveness
     definition quantifies over — the record is input to honest players from
     round r' on). Explicit workload records take precedence. *)
  let active_probe = ref None in
  let probe_round round =
    config.Config.probe_interval > 0 && round mod config.Config.probe_interval = 0
  in
  (* Current relay setting: gossip_toggle events flip it for every live
     fruit node, and nodes respawned by uncorruption inherit it. *)
  let gossip_now = ref config.Config.gossip in
  for round = 0 to config.Config.rounds - 1 do
    (* Scenario driver hook (fruitstorm): applied before the round's three
       phases so fault windows opening at [round] already govern it. *)
    (match round_hook with None -> () | Some hook -> hook ~scope ~round);
    (* Scheduled gossip toggles (scenario sugar; no-op for Nakamoto). *)
    List.iter
      (fun (r, on) ->
        if r = round then begin
          gossip_now := on;
          Array.iter
            (fun p -> match p with Fruit node -> Fruit_node.set_gossip node on | _ -> ())
            parties
        end)
      config.Config.gossip_schedule;
    (* Adaptive corruption: Z hands the party to A at its scheduled round;
       the node stops acting (its state is the adversary's to use) and its
       query moves into the adversary's budget (Strategy.q_at). *)
    List.iter
      (fun (r, party) -> if r = round then parties.(party) <- Corrupt)
      config.Config.corruption_schedule;
    (* Uncorruption: the released party re-spawns as a freshly initialized
       honest node (the paper treats it exactly like a new player). *)
    List.iter
      (fun (r, party) ->
        if r = round then begin
          let rng = Rng.split master in
          parties.(party) <-
            (match config.Config.protocol with
            | Config.Nakamoto -> Nak (Nak_node.create ~id:party ~store ~rng)
            | Config.Fruitchain ->
                Fruit
                  (Fruit_node.create ~gossip:!gossip_now ~id:party
                     ~params:config.Config.params ~store ~views ~rng ()))
        end)
      config.Config.uncorruption_schedule;
    Observe.schedule obs ~round;
    if probe_round round then begin
      let probe = Printf.sprintf "probe/%d" round in
      Trace.record_probe trace ~record:probe ~round;
      active_probe := Some probe
    end;
    let broadcasts = ref [] in
    for i = 0 to config.Config.n - 1 do
      let incoming = Network.drain network ~round ~recipient:i in
      Observe.incoming obs ~round incoming;
      match parties.(i) with
      | Corrupt -> () (* the adversary observes everything at send time *)
      | (Nak _ | Fruit _) as p ->
          let record =
            let base = workload ~round ~party:i in
            if String.length base = 0 then Option.value ~default:"" !active_probe else base
          in
          let out =
            match p with
            | Nak node -> Nak_node.step node oracle ~round ~record ~incoming
            | Fruit node -> Fruit_node.step node oracle ~round ~record ~incoming
            | Corrupt -> assert false
          in
          Observe.minted obs ~round ~miner:i out;
          List.iter
            (fun msg ->
              broadcasts := msg :: !broadcasts;
              Network.broadcast network ~now:round
                ~schedule:(fun ~recipient -> Strategy.schedule_honest strat msg ~recipient)
                ~rng:net_rng msg)
            out
    done;
    Strategy.act strat ~round ~honest_broadcasts:(List.rev !broadcasts);
    Observe.heads obs ~round head_at;
    if round mod config.Config.snapshot_interval = 0 then begin
      let heights =
        Array.map
          (fun p ->
            match head_of p with Some h -> Store.height_at store h | None -> -1)
          parties
      in
      Observe.snapshot obs ~round heights network
    end;
    if round mod config.Config.head_snapshot_interval = 0 then begin
      let heads =
        Array.map
          (fun p ->
            match head_of p with
            | Some h -> Store.hash_at store h
            | None -> Types.genesis.b_hash)
          parties
      in
      Trace.record_heads trace ~round heads
    end
  done;
  let final_heads =
    Array.map
      (fun p ->
        match head_of p with
        | Some h -> Store.hash_at store h
        | None -> Types.genesis.b_hash)
      parties
  in
  Trace.set_final_heads trace final_heads;
  Trace.set_oracle_queries trace (Oracle.queries oracle);
  Observe.finish obs ~network ~oracle ~extra:[];
  trace

let run ~config ~strategy ?workload ?net_policy ?round_hook ?scope () =
  match config.Config.engine with
  | Config.Sparse ->
      (* The sparse plane has no per-party nodes to strategize against:
         every party mines the converged chain (the honest-coalition
         behaviour). The strategy module is accepted for interface parity
         and ignored; see Sparse.run and DESIGN.md §14. *)
      let (module _ : Strategy.S) = strategy in
      Sparse.run ~config ?workload ?net_policy ?round_hook ?scope ()
  | Config.Exact ->
      let seed_rng = Rng.of_seed (Int64.logxor config.Config.seed 0x5DEECE66DL) in
      let oracle =
        Oracle.sim
          ~p:config.Config.params.Params.p
          ~pf:config.Config.params.Params.pf
          (Rng.split seed_rng)
      in
      run_with_oracle ~config ~strategy ~oracle ?workload ?net_policy ?round_hook ?scope ()
