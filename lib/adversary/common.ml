open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message
module Network = Fruitchain_net.Network
module Strategy = Fruitchain_sim.Strategy
module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params

(* [Config.corrupt_parties] is [n-1; n-2; ...]: its minimum is [n - count].
   Computed arithmetically — this runs per won object and per coalition
   query, where building the list was measurable. *)
let coalition_miner (ctx : Strategy.ctx) =
  let count = Config.corrupt_count ctx.config in
  if Int.equal count 0 then -1 else ctx.config.Config.n - count

let mine_once (ctx : Strategy.ctx) ~round ~parent ~pointer ~fruits ~record =
  let miner = coalition_miner ctx in
  let mined =
    Mine.mine ctx.oracle ctx.rng ~miner ~round ~honest:false ~parent ~pointer ~fruits ~record
  in
  (match mined.fruit with
  | Some f ->
      Trace.record_event ctx.trace
        { Trace.round; miner; honest = false; kind = `Fruit; hash = f.f_hash }
  | None -> ());
  (match mined.block with
  | Some b ->
      Store.add ctx.store b;
      Trace.record_event ctx.trace
        { Trace.round; miner; honest = false; kind = `Block; hash = b.b_hash }
  | None -> ());
  mined

let pointer (ctx : Strategy.ctx) ~head =
  Mine.pointer ctx.store ~head:(Store.id ctx.store head)
    ~depth:(Params.pointer_depth ctx.config.Config.params)

let observe_best_head (ctx : Strategy.ctx) msgs ~current =
  List.fold_left
    (fun ((_, best_height) as best) (m : Message.t) ->
      match m.payload with
      | Message.Chain_announce { head; _ } -> (
          match Store.find_id ctx.store head with
          | Some hid ->
              let h = Store.height_at ctx.store hid in
              if h > best_height then (head, h) else best
          | None -> best)
      | Message.Fruit_announce _ -> best)
    current msgs

let announce_to (ctx : Strategy.ctx) ~round ~recipient ~priority ~blocks ~head =
  let msg =
    Message.chain_announce ~sender:Message.adversary_sender ~sent_at:round ~priority ~blocks
      ~head ()
  in
  Network.send_to ctx.network ~now:round ~recipient ~schedule:Network.Next_round ~rng:ctx.rng
    msg

let iter_honest (ctx : Strategy.ctx) ~round f =
  for i = 0 to ctx.config.Config.n - 1 do
    if not (Config.is_corrupt_at ctx.config ~round i) then f i
  done

let publish ctx ~round ~blocks ~head =
  iter_honest ctx ~round (fun recipient ->
      announce_to ctx ~round ~recipient ~priority:Message.rushed_priority ~blocks ~head)

let publish_tie ctx ~round ~blocks ~head ~gamma =
  iter_honest ctx ~round (fun recipient ->
      let priority =
        if Rng.bernoulli ctx.Strategy.rng gamma then Message.rushed_priority
        else Message.honest_priority + 10
      in
      announce_to ctx ~round ~recipient ~priority ~blocks ~head)

let broadcast_fruit (ctx : Strategy.ctx) ~round fruit =
  let msg =
    Message.fruit_announce ~sender:Message.adversary_sender ~sent_at:round
      ~priority:Message.rushed_priority fruit
  in
  iter_honest ctx ~round (fun recipient ->
      Network.send_to ctx.network ~now:round ~recipient ~schedule:Network.Next_round
        ~rng:ctx.Strategy.rng msg)

let fruitchain (ctx : Strategy.ctx) =
  match ctx.config.Config.protocol with Config.Fruitchain -> true | Config.Nakamoto -> false

let coalition_record (ctx : Strategy.ctx) ~round =
  (* First element of [Config.corrupt_parties] is [n - 1]; avoid building
     the list on this per-query path. *)
  if Int.equal (Config.corrupt_count ctx.config) 0 then ""
  else ctx.workload ~round ~party:(ctx.config.Config.n - 1)
