open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Message = Fruitchain_net.Message
module Network = Fruitchain_net.Network
module Strategy = Fruitchain_sim.Strategy
module Window_view = Fruitchain_core.Window_view
module Buffer_f = Fruitchain_core.Buffer

module M : Strategy.S = struct
  type t = {
    ctx : Strategy.ctx;
    buffer : Buffer_f.t;
    mutable head : Hash.t;
    mutable view : Window_view.t;
  }

  let name = "honest-coalition"

  let create (ctx : Strategy.ctx) =
    let view = Window_view.Cache.view ctx.views ~head:Types.genesis.b_hash in
    {
      ctx;
      buffer = Buffer_f.create ctx.views;
      head = Types.genesis.b_hash;
      view;
    }

  let schedule_honest _t _msg ~recipient:_ = Network.Max_delay

  let adopt t head =
    t.head <- head;
    t.view <- Window_view.Cache.view t.ctx.views ~head;
    Buffer_f.prune t.buffer ~store:t.ctx.store ~view:t.view

  let learn_fruits t (msgs : Message.t list) =
    let learn f = ignore (Buffer_f.add t.buffer f : bool) in
    List.iter
      (fun (m : Message.t) ->
        match m.payload with
        | Message.Fruit_announce f -> learn f
        | Message.Chain_announce { blocks; _ } ->
            List.iter (fun (b : Types.block) -> List.iter learn b.fruits) blocks)
      msgs

  let act t ~round ~honest_broadcasts =
    learn_fruits t honest_broadcasts;
    let best =
      Common.observe_best_head t.ctx honest_broadcasts
        ~current:(t.head, Store.height t.ctx.store t.head)
    in
    let best_head, best_height = best in
    if best_height > Store.height t.ctx.store t.head then adopt t best_head;
    let fruitchain = Common.fruitchain t.ctx in
    (* The pointer walk only depends on [t.head], which changes inside the
       loop solely on a block win — cache it and recompute there, instead of
       re-walking the ancestor chain on every losing query. The record
       depends only on the round. *)
    let pointer_now = ref (Common.pointer t.ctx ~head:t.head) in
    let record = Common.coalition_record t.ctx ~round in
    let fruits () = if fruitchain then Buffer_f.candidates t.buffer ~view:t.view else [] in
    for _ = 1 to Strategy.q_at t.ctx ~round do
      let { Mine.fruit; block } =
        Common.mine_once t.ctx ~round ~parent:t.head ~pointer:!pointer_now ~fruits ~record
      in
      (match fruit with
      | Some f when fruitchain ->
          ignore (Buffer_f.add t.buffer f : bool);
          Common.broadcast_fruit t.ctx ~round f
      | Some _ | None -> ());
      match block with
      | Some b ->
          adopt t b.Types.b_hash;
          pointer_now := Common.pointer t.ctx ~head:t.head;
          Common.publish t.ctx ~round ~blocks:[ b ] ~head:b.Types.b_hash
      | None -> ()
    done
end
