open Fruitchain_chain
module Rng = Fruitchain_util.Rng
module Pool = Fruitchain_util.Pool
module Alias = Fruitchain_util.Alias
module Sampling = Fruitchain_util.Sampling
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Params = Fruitchain_core.Params

(* Stream indices under the config seed: each concern owns a derived
   stream, so the draw count of one never shifts another. *)
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

let run ~config ?(max_skip = max_int) ?scope () =
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
  let store = Store.create () in
  let network = Network.create ~scope ~n ~delta:config.Config.delta () in
  let trace = Trace.create ~scope ~config ~store () in
  let sched_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:scheduler_stream) in
  let attr_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:attribution_stream) in
  let forge_rng = Rng.of_seed (Rng.derive config.Config.seed ~index:forge_stream) in
  let oracle = Oracle.sim ~p ~pf (Rng.of_seed (Rng.derive config.Config.seed ~index:oracle_stream)) in
  (* One query per party per round (the paper's model): the round's budget
     is [n] and every party is equally likely to be a round's winner. *)
  let table = Alias.create (Array.make n 1.0) in
  let pb = round_win_prob ~budget:n ~p in
  let pfr = if fruiting then round_win_prob ~budget:n ~p:pf else 0.0 in
  (* Next round containing at least one win of each kind. [from + g] with a
     geometric number of empty rounds g — drawing the gap instead of a
     Bernoulli per round is the whole event-driven trick. *)
  let next_win from prob =
    if prob <= 0.0 || from >= rounds then max_int
    else
      let g = Sampling.geometric sched_rng prob in
      if from > max_int - g then max_int else from + g
  in
  let next_b = ref (next_win 0 pb) in
  let next_f = ref (if fruiting then next_win 0 pfr else max_int) in
  let head_id = ref Store.genesis_id in
  let pending = Queue.create () in
  let visited = ref 0 in
  let depth = Params.pointer_depth params in
  (* Corruption, uncorruption and gossip toggles change no state here
     (corruption is read off the config), so they only need their rounds
     visited: the trace keeps the schedule rounds. *)
  Trace.start trace;
  let head_hash () = Store.hash_at store !head_id in
  let pointer_hash () = Mine.pointer store ~head:!head_id ~depth in
  (* Every party mines the converged chain; a corrupt one has no head. *)
  let head_at ~round =
    let h = Some !head_id in
    fun i -> if Config.is_corrupt_at config ~round i then None else h
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
  (* One forged winner, either a block or a fruit: attribute it, forge its
     nonce and digest, and build it with the exact plane's constructor.
     Only the first block winner of a round extends the canonical chain;
     later same-round winners are stored as siblings — the deterministic
     image of the exact plane's fork-then-resolve, where exactly one of the
     simultaneous blocks survives. Ready fruits go to the survivor. *)
  let forge ~round ~parent ~pointer ~won_block ~sibling =
    let winner = Alias.sample table attr_rng in
    let honest = not (Config.is_corrupt_at config ~round winner) in
    let record = Trace.record trace "" in
    Rng.draw forge_rng;
    let nonce = Rng.last_bits64 forge_rng in
    let hash = Oracle.sample_win oracle ~block:won_block ~fruit:(not won_block) forge_rng in
    let fruits = if won_block && not sibling then take_ready round else [] in
    let { Mine.fruit; block } =
      Mine.won
        (Mine.header ~parent ~pointer ~nonce ~fruits ~record)
        ~hash ~fruits { Types.miner = winner; round; honest } ~won_fruit:(not won_block)
        ~won_block
    in
    (match block with
    | Some block ->
        let id = Store.add_id store block in
        if not sibling then head_id := id;
        Trace.block_mined trace ~sibling block
    | None -> ());
    (match fruit with
    | Some fruit ->
        Queue.add { ready = round + config.Config.delta; fruit } pending;
        Trace.fruit_mined trace fruit
    | None -> ());
    Network.deliver_batch network ~count:(n - 1) ~delay:config.Config.delta
  in
  let process round =
    incr visited;
    (* Relaying does not exist on the sparse plane (the chain is already
       converged); gossip toggles survive only as trace lines, for
       scenario parity. *)
    Trace.round_start trace ~round;
    if Int.equal round !next_b then begin
      let count = Sampling.binomial_pos sched_rng n p in
      next_b := next_win (round + 1) pb;
      let parent = head_hash () in
      let pointer = pointer_hash () in
      for k = 0 to count - 1 do
        forge ~round ~parent ~pointer ~won_block:true ~sibling:(k > 0)
      done
    end;
    if fruiting && Int.equal round !next_f then begin
      let count = Sampling.binomial_pos sched_rng n pf in
      next_f := next_win (round + 1) pfr;
      let parent = head_hash () in
      let pointer = pointer_hash () in
      for _ = 1 to count do
        forge ~round ~parent ~pointer ~won_block:false ~sibling:false
      done
    end;
    Trace.measure trace ~round (head_at ~round) network
  in
  (* Next round that needs visiting: the earliest win, or round the trace
     measures or has scheduled after [r]. Rounds in between contain no
     wins (by the geometric gap draw), no schedule entries, and no
     snapshots — visiting them would consume no randomness and change no
     state, which is exactly why skipping them is sound (and why a
     [max_skip = 1] run is byte-identical; the suite checks this). *)
  let next_visit r =
    let cand = ref max_int in
    let consider v = if v > r && v < !cand then cand := v in
    consider !next_b;
    consider !next_f;
    consider (Trace.next_visit trace ~after:r);
    if max_skip < max_int && r <= max_int - max_skip then consider (r + max_skip);
    !cand
  in
  let r = ref 0 in
  while !r < rounds do
    process !r;
    r := next_visit !r
  done;
  Oracle.charge oracle (n * rounds);
  (* The table is built once; the counter stays in the dump the goldens pin. *)
  Trace.finish trace (head_at ~round:(rounds - 1)) ~network ~oracle
    ~extra:[ ("sim.rounds_visited", !visited); ("sim.alias_rebuilds", 0) ];
  trace
