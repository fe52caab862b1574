open Fruitchain_chain
module Rng = Fruitchain_util.Rng
module Pool = Fruitchain_util.Pool
module Alias = Fruitchain_util.Alias
module Sampling = Fruitchain_util.Sampling
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Params = Fruitchain_core.Params
module Scope = Fruitchain_obs.Scope

(* Stream indices under the config seed: each concern owns a derived
   stream, so the draw count of one (e.g. a power change re-scheduling the
   next win round) never shifts another. *)
let scheduler_stream = 0
let attribution_stream = 1
let forge_stream = 2
let oracle_stream = 3

type pending_fruit = { ready : int; fruit : Types.fruit }

(* 1 - (1-p)^q without cancellation: the probability that a round with [q]
   total queries contains at least one win. *)
let round_win_prob ~budget ~p =
  if p >= 1.0 then 1.0
  else if p <= 0.0 || budget <= 0 then 0.0
  else -.Float.expm1 (float_of_int budget *. Float.log1p (-.p))

let validate_power ~n w =
  if Array.length w <> n then invalid_arg "Sparse.run: power vector length <> n";
  Array.iter (fun q -> if q < 0 then invalid_arg "Sparse.run: negative power") w;
  if not (Array.exists (fun q -> q > 0) w) then
    invalid_arg "Sparse.run: all-zero power vector"

let run ~config ?power ?power_schedule
    ?(workload = fun ~round:_ ~party:_ -> "") ?net_policy ?round_hook
    ?(max_skip = max_int) ?scope () =
  if max_skip < 1 then invalid_arg "Sparse.run: max_skip must be >= 1";
  let scope = match scope with Some s -> s | None -> Pool.current_scope () in
  let n = config.Config.n in
  let rounds = config.Config.rounds in
  let params = config.Config.params in
  let p = params.Params.p and pf = params.Params.pf in
  let fruiting = match config.Config.protocol with
    | Config.Fruitchain -> true
    | Config.Nakamoto -> false
  in
  let power_schedule =
    match power_schedule with
    | None -> []
    | Some sched ->
        List.iter
          (fun (r, w) ->
            if r < 0 || r >= rounds then
              invalid_arg "Sparse.run: power change round out of range";
            validate_power ~n w)
          sched;
        let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) sched in
        let rs = List.map fst sorted in
        if List.length (List.sort_uniq Int.compare rs) <> List.length rs then
          invalid_arg "Sparse.run: duplicate power change round";
        sorted
  in
  let store = Store.create () in
  let network =
    Network.create ~scope ?policy:net_policy ~n ~delta:config.Config.delta ()
  in
  let obs = Observe.create ~scope ~config ~store in
  let trace = Observe.trace obs in
  let sched_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:scheduler_stream) in
  let attr_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:attribution_stream) in
  let forge_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:forge_stream) in
  let oracle = Oracle.sim ~p ~pf (Rng.of_seed (Rng.derive config.Config.seed ~index:oracle_stream)) in
  let power =
    match power with
    | None -> Array.make n 1
    | Some w ->
        validate_power ~n w;
        Array.copy w
  in
  let budget = ref (Array.fold_left ( + ) 0 power) in
  let table = ref (Alias.create (Array.map float_of_int power)) in
  let rebuilds = ref 0 in
  let pb = ref (round_win_prob ~budget:!budget ~p) in
  let pfr = ref (if fruiting then round_win_prob ~budget:!budget ~p:pf else 0.0) in
  (* Next round containing at least one win of each kind. [from + g] with a
     geometric number of empty rounds g — drawing the gap instead of a
     Bernoulli per round is the whole event-driven trick. *)
  let next_win from prob =
    if prob <= 0.0 || from >= rounds then max_int
    else
      let g = Sampling.geometric sched_rng prob in
      if from > max_int - g then max_int else from + g
  in
  let next_b = ref (next_win 0 !pb) in
  let next_f = ref (if fruiting then next_win 0 !pfr else max_int) in
  let head_id = ref Store.genesis_id in
  let pending = Queue.create () in
  let eff_queries = ref 0 in
  let seg_start = ref 0 in
  let visited = ref 0 in
  let active_probe = ref None in
  let depth = Params.pointer_depth params in
  (* Cursor into the sorted power schedule; the processing loop advances
     past entries <= the current round. Corruption, uncorruption and gossip
     toggles change no state here (corruption is read off the config), so
     they only need their rounds visited: Observe keeps that cursor. *)
  let powers = ref power_schedule in
  Observe.start obs;
  let probe_round round =
    config.Config.probe_interval > 0 && round mod config.Config.probe_interval = 0
  in
  let head_hash () = Store.hash_at store !head_id in
  let head_height () = Store.height_at store !head_id in
  let pointer_hash () =
    let height = head_height () in
    match
      Store.ancestor_id_at_height store ~head:!head_id ~height:(max 0 (height - depth))
    with
    | Some id -> Store.hash_at store id
    | None -> Types.genesis.b_hash
  in
  let record_for ~round ~party =
    let base = workload ~round ~party in
    if String.length base = 0 then Option.value ~default:"" !active_probe else base
  in
  let take_ready round =
    let out = ref [] in
    let continue = ref true in
    while !continue && not (Queue.is_empty pending) do
      if (Queue.peek pending).ready <= round then
        out := (Queue.pop pending).fruit :: !out
      else continue := false
    done;
    List.rev !out
  in
  let apply_power_change ~round w =
    eff_queries := !eff_queries + (!budget * (round - !seg_start));
    seg_start := round;
    Array.blit w 0 power 0 n;
    budget := Array.fold_left ( + ) 0 power;
    table := Alias.create (Array.map float_of_int power);
    incr rebuilds;
    pb := round_win_prob ~budget:!budget ~p;
    pfr := (if fruiting then round_win_prob ~budget:!budget ~p:pf else 0.0);
    (* The old gap draws were made under the old rate; re-schedule both
       kinds from this round (a win at the change round itself stays
       possible). Draw order: block first, like every scheduler draw. *)
    next_b := next_win round !pb;
    next_f := (if fruiting then next_win round !pfr else max_int)
  in
  let mine_block ~round ~parent ~pointer ~sibling =
    let winner = Alias.sample !table attr_rng in
    let honest = not (Config.is_corrupt_at config ~round winner) in
    let record = record_for ~round ~party:winner in
    Rng.draw forge_rng;
    let nonce = Rng.last_bits64 forge_rng in
    let hash = Oracle.sample_win oracle ~block:true ~fruit:false forge_rng in
    (* Only the first winner of a round extends the canonical chain; later
       same-round winners are stored as siblings — the deterministic image
       of the exact plane's fork-then-resolve, where exactly one of the
       simultaneous blocks survives. Ready fruits go to the survivor. *)
    let fruits = if sibling then [] else take_ready round in
    let digest = Validate.fruit_set_digest fruits in
    let header = { Types.parent; pointer; nonce; digest; record } in
    let block =
      {
        Types.b_header = header;
        b_hash = hash;
        fruits;
        b_prov = Some { Types.miner = winner; round; honest };
      }
    in
    let id = Store.add_id store block in
    if not sibling then head_id := id;
    Observe.block_mined obs ~sibling block;
    Network.deliver_batch network ~count:(n - 1) ~delay:config.Config.delta
  in
  let mine_fruit ~round =
    let parent = head_hash () in
    let pointer = pointer_hash () in
    let winner = Alias.sample !table attr_rng in
    let honest = not (Config.is_corrupt_at config ~round winner) in
    let record = record_for ~round ~party:winner in
    Rng.draw forge_rng;
    let nonce = Rng.last_bits64 forge_rng in
    let hash = Oracle.sample_win oracle ~block:false ~fruit:true forge_rng in
    let digest = Validate.fruit_set_digest [] in
    let header = { Types.parent; pointer; nonce; digest; record } in
    let fruit =
      {
        Types.f_header = header;
        f_hash = hash;
        f_prov = Some { Types.miner = winner; round; honest };
      }
    in
    Queue.add { ready = round + config.Config.delta; fruit } pending;
    Observe.fruit_mined obs fruit;
    Network.deliver_batch network ~count:(n - 1) ~delay:config.Config.delta
  in
  let process round =
    incr visited;
    (match round_hook with None -> () | Some hook -> hook ~scope ~round);
    (* Relaying does not exist on the sparse plane (the chain is already
       converged); gossip toggles survive only as trace lines, for
       scenario parity. *)
    Observe.schedule obs ~round;
    while (match !powers with (r, _) :: _ when r <= round -> true | _ -> false) do
      (match !powers with
      | (r, w) :: _ when r = round -> apply_power_change ~round w
      | _ -> ());
      powers := List.tl !powers
    done;
    if probe_round round then begin
      let probe = Printf.sprintf "probe/%d" round in
      Trace.record_probe trace ~record:probe ~round;
      active_probe := Some probe
    end;
    if round = !next_b then begin
      let count = Sampling.binomial_pos sched_rng !budget p in
      next_b := next_win (round + 1) !pb;
      let parent = head_hash () in
      let pointer = pointer_hash () in
      for k = 0 to count - 1 do
        mine_block ~round ~parent ~pointer ~sibling:(k > 0)
      done
    end;
    if fruiting && round = !next_f then begin
      let count = Sampling.binomial_pos sched_rng !budget pf in
      next_f := next_win (round + 1) !pfr;
      for _ = 1 to count do
        mine_fruit ~round
      done
    end;
    if round mod config.Config.snapshot_interval = 0 then begin
      let height = head_height () in
      let heights =
        Array.init n (fun i ->
            if Config.is_corrupt_at config ~round i then -1 else height)
      in
      Observe.snapshot obs ~round heights network
    end;
    if round mod config.Config.head_snapshot_interval = 0 then begin
      let hh = head_hash () in
      let heads =
        Array.init n (fun i ->
            if Config.is_corrupt_at config ~round i then Types.genesis.b_hash else hh)
      in
      Trace.record_heads trace ~round heads
    end
  in
  (* Next round that needs visiting: the earliest win, scheduled event,
     snapshot multiple, or hook tick after [r]. Rounds in between contain
     no wins (by the geometric gap draw), no schedule entries, and no
     snapshots — visiting them would consume no randomness and change no
     state, which is exactly why skipping them is sound (and why a
     [max_skip = 1] run is byte-identical; the suite checks this). *)
  let next_multiple r k = ((r / k) + 1) * k in
  let next_visit r =
    let cand = ref max_int in
    let consider v = if v > r && v < !cand then cand := v in
    consider !next_b;
    consider !next_f;
    consider (next_multiple r config.Config.snapshot_interval);
    consider (next_multiple r config.Config.head_snapshot_interval);
    if config.Config.probe_interval > 0 then
      consider (next_multiple r config.Config.probe_interval);
    consider (Observe.next_scheduled obs);
    (match !powers with (rr, _) :: _ -> consider rr | [] -> ());
    (match round_hook with Some _ -> consider (r + 1) | None -> ());
    if max_skip < max_int && r <= max_int - max_skip then consider (r + max_skip);
    !cand
  in
  let r = ref 0 in
  while !r < rounds do
    process !r;
    r := next_visit !r
  done;
  eff_queries := !eff_queries + (!budget * (rounds - !seg_start));
  Oracle.charge oracle !eff_queries;
  let hh = head_hash () in
  let final_heads =
    Array.init n (fun i ->
        if Config.is_corrupt_at config ~round:(rounds - 1) i then Types.genesis.b_hash
        else hh)
  in
  Trace.set_final_heads trace final_heads;
  Trace.set_oracle_queries trace !eff_queries;
  Observe.finish obs ~network ~oracle
    ~extra:[ ("sim.rounds_visited", !visited); ("sim.alias_rebuilds", !rebuilds) ];
  trace
