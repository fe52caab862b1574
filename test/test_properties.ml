(* Cross-cutting property-based tests (QCheck): randomized equivalence and
   invariant checks that single-scenario unit tests cannot cover. *)

module Rng = Fruitchain_util.Rng
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Lamport = Fruitchain_crypto.Lamport
module Types = Fruitchain_chain.Types
module Codec = Fruitchain_chain.Codec
module Store = Fruitchain_chain.Store
module Validate = Fruitchain_chain.Validate
module Snapshot = Fruitchain_chain.Snapshot
module Window_view = Fruitchain_core.Window_view
module Buffer_f = Fruitchain_core.Buffer
module Extract = Fruitchain_core.Extract
module Transfer = Fruitchain_currency.Transfer
module State = Fruitchain_currency.State
module Quality = Fruitchain_metrics.Quality
module Theory = Fruitchain_metrics.Selfish_theory
module Retarget = Fruitchain_difficulty.Retarget
module Scenario = Fruitchain_scenario.Scenario
module Driver = Fruitchain_scenario.Driver
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message

let easy = Oracle.real ~p:1.0 ~pf:1.0

let mine_fruit rng ~pointer ~record =
  let header =
    {
      Types.parent = Types.genesis_hash;
      pointer;
      nonce = Rng.bits64 rng;
      digest = Fruitchain_crypto.Merkle.empty_root;
      record;
    }
  in
  { Types.f_header = header; f_hash = Oracle.query easy (Codec.header_bytes header); f_prov = None }

let mine_block rng ~parent fruits =
  let header =
    {
      Types.parent;
      pointer = parent;
      nonce = Rng.bits64 rng;
      digest = Validate.fruit_set_digest fruits;
      record = "";
    }
  in
  {
    Types.b_header = header;
    b_hash = Oracle.query easy (Codec.header_bytes header);
    fruits;
    b_prov = None;
  }

(* Build a random linear chain; at each position, include a random subset of
   a fruit pool. Returns (store, blocks, pool). *)
let random_chain seed ~length ~pool_size =
  let rng = Rng.of_seed (Int64.of_int (seed + 1)) in
  let pool =
    List.init pool_size (fun i -> mine_fruit rng ~pointer:Types.genesis_hash ~record:(Printf.sprintf "p%d" i))
  in
  let store = Store.create () in
  let rec go parent n acc =
    if n = 0 then List.rev acc
    else begin
      let fruits =
        List.filteri (fun i _ -> Rng.bernoulli rng 0.2 && i mod (n + 1) <> 0) pool
      in
      (* Avoid duplicate inclusion across blocks: thin the pool choice by
         filtering already-included fruits. *)
      let included =
        List.concat_map (fun (b : Types.block) -> b.fruits) acc
      in
      let fresh =
        List.filter
          (fun (f : Types.fruit) ->
            not (List.exists (fun (g : Types.fruit) -> Types.fruit_equal f g) included))
          fruits
      in
      let b = mine_block rng ~parent fresh in
      Store.add store b;
      go b.Types.b_hash (n - 1) (b :: acc)
    end
  in
  let blocks = go Types.genesis_hash length [] in
  (store, blocks, pool)

let qcheck_buffer_expire_equals_prune =
  QCheck.Test.make ~name:"buffer: expire == prune, random chain" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 1 8))
    (fun (seed, window) ->
      let store, blocks, pool = random_chain seed ~length:10 ~pool_size:12 in
      let views = Window_view.Cache.create ~window ~store in
      let incremental = Buffer_f.create views in
      let reference = Buffer_f.create views in
      List.iter
        (fun f ->
          ignore (Buffer_f.add incremental f : bool);
          ignore (Buffer_f.add reference f : bool))
        pool;
      let final_view =
        List.fold_left
          (fun _ (b : Types.block) ->
            let view = Window_view.Cache.view views ~head:b.b_hash in
            Buffer_f.expire incremental ~view;
            view)
          (Window_view.Cache.view views ~head:Types.genesis_hash)
          blocks
      in
      Buffer_f.prune reference ~store ~view:final_view;
      let hashes buf =
        List.map
          (fun (f : Types.fruit) -> Hash.to_hex f.f_hash)
          (Buffer_f.candidates buf ~view:final_view)
      in
      hashes incremental = hashes reference
      && Buffer_f.size incremental = Buffer_f.size reference)

(* A view reached by extension, one head at a time, equals the view a fresh
   cache rebuilds from the store for a head eight blocks above genesis, its
   only cached view: past every window drawn. *)
let qcheck_window_view_rebuilt_equals_extended =
  QCheck.Test.make ~name:"window view: rebuilt == extended chain" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, window) ->
      let store, blocks, pool = random_chain seed ~length:8 ~pool_size:10 in
      let head = (List.nth blocks 7).Types.b_hash in
      let extended = Window_view.Cache.create ~window ~store in
      List.iter
        (fun (b : Types.block) -> ignore (Window_view.Cache.view extended ~head:b.b_hash))
        blocks;
      let by_extend = Window_view.Cache.view extended ~head in
      let by_scan = Window_view.Cache.view (Window_view.Cache.create ~window ~store) ~head in
      List.for_all
        (fun (b : Types.block) ->
          Window_view.is_recent by_extend ~pointer:b.b_hash
          = Window_view.is_recent by_scan ~pointer:b.b_hash)
        blocks
      && List.for_all
           (fun (f : Types.fruit) ->
             Window_view.is_included by_extend ~fruit:f.f_hash
             = Window_view.is_included by_scan ~fruit:f.f_hash)
           pool)

(* [fold_newest view k] visits exactly the newest [min k window] blocks of
   every view along a chain, windowed (while the window still reaches
   genesis and after) or whole-chain. *)
let qcheck_window_view_fold_newest =
  QCheck.Test.make ~name:"window view: fold_newest = the newest k blocks" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, window) ->
      let store, blocks, _ = random_chain seed ~length:14 ~pool_size:4 in
      let whole = Window_view.Cache.whole_chain ~store in
      let sorted l = List.sort Hash.compare l in
      let newest view ~reach chain =
        List.for_all
          (fun k ->
            let expected = List.filteri (fun i _ -> i < min k reach) chain in
            let got = Window_view.fold_newest view k ~init:[] ~f:(fun acc h -> h :: acc) in
            List.equal Hash.equal (sorted expected) (sorted got))
          (List.init (window + 3) Fun.id)
      in
      let windowed = Window_view.Cache.create ~window ~store in
      let rec go chain = function
        | [] -> true
        | (b : Types.block) :: rest ->
            let chain = b.b_hash :: chain in
            newest (Window_view.Cache.view windowed ~head:b.b_hash) ~reach:window chain
            && newest (Window_view.Cache.view whole ~head:b.b_hash) ~reach:max_int chain
            && go chain rest
      in
      newest (Window_view.Cache.view windowed ~head:Types.genesis_hash) ~reach:window
        [ Types.genesis_hash ]
      && go [ Types.genesis_hash ] blocks)

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot: roundtrip on random chains" ~count:30
    (QCheck.int_bound 1000) (fun seed ->
      let store, blocks, _ = random_chain seed ~length:6 ~pool_size:8 in
      let head = (List.nth blocks 5).Types.b_hash in
      let chain = Store.to_list store ~head in
      let path = Filename.temp_file "fruitchain" ".snap" in
      let chain' =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Snapshot.save_chain ~path chain;
            Snapshot.load_chain ~path)
      in
      List.length chain = List.length chain'
      && List.for_all2 Types.block_equal chain chain'
      && Extract.ledger_of_chain chain = Extract.ledger_of_chain chain')

let qcheck_extract_dedup_invariants =
  QCheck.Test.make ~name:"extract: distinct fruits, stable under re-extraction" ~count:30
    (QCheck.int_bound 1000) (fun seed ->
      let _, blocks, _ = random_chain seed ~length:8 ~pool_size:10 in
      let chain = Types.genesis :: blocks in
      let fruits = Extract.fruits_of_chain chain in
      let hashes = List.map (fun (f : Types.fruit) -> Hash.to_hex f.f_hash) fruits in
      List.sort_uniq compare hashes = List.sort compare hashes)

let qcheck_lamport_random_messages =
  QCheck.Test.make ~name:"lamport: verify iff same message" ~count:25
    QCheck.(pair (string_of_size QCheck.Gen.(1 -- 64)) (string_of_size QCheck.Gen.(1 -- 64)))
    (fun (m1, m2) ->
      let sk, pk = Lamport.generate ~seed:"prop" in
      let s = Lamport.sign sk m1 in
      Lamport.verify pk m1 s && (String.equal m1 m2 || not (Lamport.verify pk m2 s)))

let qcheck_transfer_codec =
  QCheck.Test.make ~name:"transfer: codec roundtrip, random outputs" ~count:15
    QCheck.(list_of_size QCheck.Gen.(1 -- 5) (pair (int_bound 1000) (int_range 1 1_000_000)))
    (fun raw_outputs ->
      let sk, _ = Lamport.generate ~seed:"prop-payer" in
      let outputs =
        List.map
          (fun (r, amount) ->
            let _, pk = Lamport.generate ~seed:(Printf.sprintf "r%d" r) in
            {
              Transfer.recipient = Lamport.public_key_digest pk;
              amount = Int64.of_int amount;
            })
          raw_outputs
      in
      let t = Transfer.make ~secret:sk ~outputs in
      match Transfer.decode (Transfer.encode t) with
      | None -> false
      | Some t' ->
          Transfer.signature_valid t'
          && Int64.equal (Transfer.total t) (Transfer.total t')
          && Hash.equal (Transfer.sender_address t) (Transfer.sender_address t'))

let qcheck_state_supply_conservation =
  QCheck.Test.make ~name:"currency: transfers conserve supply" ~count:20
    (QCheck.int_bound 1000) (fun seed ->
      let rng = Rng.of_seed (Int64.of_int (seed + 7)) in
      let st = State.create () in
      (* Three funded wallets shuffle money around randomly. *)
      let wallets =
        Array.init 3 (fun i -> Fruitchain_currency.Wallet.create ~seed:(Printf.sprintf "w%d-%d" seed i))
      in
      Array.iter
        (fun w ->
          State.mint st (Fruitchain_currency.Wallet.fresh_address w)
            (Int64.of_int (100 + Rng.int rng 100)))
        wallets;
      let supply0 = State.total_supply st in
      for _ = 1 to 5 do
        let from_w = wallets.(Rng.int rng 3) in
        let to_w = wallets.(Rng.int rng 3) in
        let target = Fruitchain_currency.Wallet.fresh_address to_w in
        match
          Fruitchain_currency.Wallet.pay from_w st ~to_:target
            ~amount:(Int64.of_int (1 + Rng.int rng 50))
        with
        | Ok transfer -> (
            match State.apply st transfer with Ok () | Error _ -> ())
        | Error _ -> ()
      done;
      Int64.equal (State.total_supply st) supply0)

let qcheck_worst_window_bounds =
  QCheck.Test.make ~name:"quality: worst window bounds and minimality" ~count:100
    QCheck.(pair (list_of_size QCheck.Gen.(5 -- 60) bool) (int_range 1 10))
    (fun (flags, window) ->
      let flags = Array.of_list flags in
      QCheck.assume (Array.length flags >= window);
      let worst = Quality.worst_window_fraction flags ~window `Honest in
      (* Within [0,1], no larger than any particular window (take the
         first), and honest-worst + adversarial-worst describe the same
         extreme window family consistently. *)
      let first =
        let h = ref 0 in
        for i = 0 to window - 1 do
          if flags.(i) then incr h
        done;
        float_of_int !h /. float_of_int window
      in
      let adv_worst = Quality.worst_window_fraction flags ~window `Adversarial in
      worst >= -.1e-9 && worst <= 1.0 +. 1e-9
      && worst <= first +. 1e-9
      && adv_worst >= 1.0 -. first -. 1e-9)

let qcheck_selfish_theory_bounds =
  QCheck.Test.make ~name:"selfish theory: revenue within [0,1], monotone in gamma" ~count:100
    QCheck.(pair (float_range 0.01 0.49) (float_range 0.0 1.0))
    (fun (alpha, gamma) ->
      let r = Theory.revenue ~alpha ~gamma in
      let r_hi = Theory.revenue ~alpha ~gamma:1.0 in
      r >= -.1e-9 && r <= 1.0 +. 1e-9 && r <= r_hi +. 1e-9)

let qcheck_retarget_clamped =
  QCheck.Test.make ~name:"retarget: next_p within clamp and (0,1]" ~count:200
    QCheck.(pair (float_range 1e-6 0.9) (float_range 1.0 1_000_000.0))
    (fun (p, duration) ->
      let params = Retarget.make_params ~target_interval:25.0 () in
      let p' = Retarget.next_p params ~current_p:p ~epoch_duration:duration in
      p' > 0.0 && p' <= 1.0 && p' >= (p /. 4.0) -. 1e-12 && p' <= (p *. 4.0) +. 1e-12)

(* --- fruitstorm delivery-policy faults (lib/scenario) ------------------ *)

(* Drive a policy-equipped network round by round: every round one random
   honest party broadcasts a fruit with a uniform-in-window schedule, and
   every inbox is drained. After the scenario ends, draining continues to
   [horizon] so held messages flush. Returns the network and the delivery
   log [(sent_at, sender, recipient, delivered_at)]. *)
let drive_network s ~horizon =
  let n = s.Scenario.n and delta = s.Scenario.delta in
  let net = Network.create ~policy:(Driver.policy s) ~n ~delta () in
  let rng = Rng.of_seed (Int64.add s.Scenario.seed 13L) in
  let log = ref [] in
  let drain_round round =
    for recipient = 0 to n - 1 do
      List.iter
        (fun (m : Message.t) ->
          log := (m.Message.sent_at, m.Message.sender, recipient, round) :: !log)
        (Network.drain net ~round ~recipient)
    done
  in
  for now = 0 to s.Scenario.rounds - 1 do
    let sender = Rng.int rng n in
    let fruit = mine_fruit rng ~pointer:Types.genesis_hash ~record:(Printf.sprintf "r%d" now) in
    Network.broadcast net ~now
      ~schedule:(fun ~recipient:_ -> Network.Uniform_in_window)
      ~rng
      (Message.fruit_announce ~sender ~sent_at:now fruit);
    drain_round now
  done;
  for round = s.Scenario.rounds to horizon do
    drain_round round
  done;
  (net, List.rev !log)

let two_halves = [ [ 0; 1; 2; 3; 4 ]; [ 5; 6; 7; 8; 9 ] ]

let qcheck_policy_delta_bound_without_fault =
  QCheck.Test.make
    ~name:"scenario policy: no active fault => honest delivery within Delta" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 40 120) (int_range 20 100))
    (fun (seed, from, len) ->
      let rounds = 400 in
      let until = min (rounds - 1) (from + len) in
      let s =
        Scenario.make_exn ~name:"prop" ~n:10 ~delta:3 ~rounds
          ~seed:(Int64.of_int seed)
          ~events:
            [
              Scenario.Partition { from; until; groups = two_halves };
              Scenario.Delay_spike { from = 250; until = 320; delta' = 9 };
              Scenario.Eclipse { from = 150; until = 230; party = 7 };
            ]
          ()
      in
      let net, log = drive_network s ~horizon:(rounds + 12) in
      Network.pending net = 0
      && List.for_all
           (fun (sent_at, _, _, delivered_at) ->
             Scenario.delivery_faulted s ~round:sent_at
             || delivered_at - sent_at <= s.Scenario.delta)
           log)

let qcheck_policy_partition_blocks_cross_group =
  QCheck.Test.make
    ~name:"scenario policy: active partition => zero cross-group deliveries before heal"
    ~count:15
    QCheck.(triple (int_bound 1000) (int_range 30 150) (int_range 20 150))
    (fun (seed, from, len) ->
      let rounds = 350 in
      let until = min (rounds - 1) (from + len) in
      let group_of p = if p < 5 then 0 else 1 in
      let s =
        Scenario.make_exn ~name:"prop" ~n:10 ~delta:2 ~rounds
          ~seed:(Int64.of_int seed)
          ~events:[ Scenario.Partition { from; until; groups = two_halves } ]
          ()
      in
      let net, log = drive_network s ~horizon:(rounds + 6) in
      Network.pending net = 0
      && List.for_all
           (fun (sent_at, sender, recipient, delivered_at) ->
             let cross = sender >= 0 && group_of sender <> group_of recipient in
             (not (cross && sent_at >= from && sent_at < until))
             || delivered_at >= until)
           log)

(* --- Parallel-runner seed derivation (Rng.derive + Pool) --------------- *)

let qcheck_derive_order_independent_and_distinct =
  QCheck.Test.make
    ~name:"rng: unit seeds stable under execution-order permutation, pairwise distinct"
    ~count:200
    QCheck.(pair int64 (int_range 2 64))
    (fun (master, n) ->
      let in_order = Array.init n (fun i -> Rng.derive master ~index:i) in
      (* Re-derive in a master-dependent random permutation of the indices:
         the seed a unit receives must not depend on when it executes. *)
      let perm = Array.init n Fun.id in
      let shuffle_rng = Rng.of_seed (Int64.lognot master) in
      for i = n - 1 downto 1 do
        let j = Rng.int shuffle_rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let permuted = Array.make n 0L in
      Array.iter (fun i -> permuted.(i) <- Rng.derive master ~index:i) perm;
      permuted = in_order
      && List.length (List.sort_uniq Int64.compare (Array.to_list in_order)) = n)

let qcheck_derive_streams_no_reuse =
  QCheck.Test.make
    ~name:"rng: streams of derived unit seeds are pairwise distinct (no reuse)" ~count:100
    QCheck.(pair int64 (int_range 2 32))
    (fun (master, n) ->
      let prefix i =
        let g = Rng.of_seed (Rng.derive master ~index:i) in
        List.init 4 (fun _ -> Rng.bits64 g)
      in
      let prefixes = List.init n prefix in
      List.length (List.sort_uniq compare prefixes) = n)

let qcheck_pool_map_schedule_invariant =
  QCheck.Test.make
    ~name:"pool: map at any worker count equals the sequential reference" ~count:50
    QCheck.(pair int64 (pair (int_range 0 48) (int_range 2 6)))
    (fun (master, (n, jobs)) ->
      let f i = Rng.bits64 (Rng.of_seed (Rng.derive master ~index:i)) in
      Fruitchain_util.Pool.map ~jobs n ~f = Fruitchain_util.Pool.map ~jobs:1 n ~f)

let qcheck_store_heights_consistent =
  QCheck.Test.make ~name:"store: heights equal list positions" ~count:30
    (QCheck.int_bound 1000) (fun seed ->
      let store, blocks, _ = random_chain seed ~length:7 ~pool_size:5 in
      let head = (List.nth blocks 6).Types.b_hash in
      let chain = Store.to_list store ~head in
      List.for_all
        (fun (i, (b : Types.block)) -> Store.height store b.b_hash = i)
        (List.mapi (fun i b -> (i, b)) chain))

let () =
  Alcotest.run "properties"
    [
      ( "randomized",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_buffer_expire_equals_prune;
            qcheck_window_view_fold_newest;
            qcheck_window_view_rebuilt_equals_extended;
            qcheck_snapshot_roundtrip;
            qcheck_extract_dedup_invariants;
            qcheck_lamport_random_messages;
            qcheck_transfer_codec;
            qcheck_state_supply_conservation;
            qcheck_worst_window_bounds;
            qcheck_selfish_theory_bounds;
            qcheck_retarget_clamped;
            qcheck_policy_delta_bound_without_fault;
            qcheck_policy_partition_blocks_cross_group;
            qcheck_derive_order_independent_and_distinct;
            qcheck_derive_streams_no_reuse;
            qcheck_pool_map_schedule_invariant;
            qcheck_store_heights_consistent;
          ] );
    ]
