open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Network = Fruitchain_net.Network
module Strategy = Fruitchain_sim.Strategy
module Trace = Fruitchain_sim.Trace
module Json = Fruitchain_obs.Json

module type PARAMS = sig
  val release_interval : int
end

module Make (P : PARAMS) : Strategy.S = struct
  type t = {
    ctx : Strategy.ctx;
    mutable pub_head : Hash.t;
    mutable pub_height : int;
    mutable hoard : Types.fruit list;
  }

  let name = Printf.sprintf "fruit-withhold(interval=%d)" P.release_interval

  let create (ctx : Strategy.ctx) =
    { ctx; pub_head = Types.genesis.b_hash; pub_height = 0; hoard = [] }

  let schedule_honest _t _msg ~recipient:_ = Network.Next_round

  let act t ~round ~honest_broadcasts =
    let head, height =
      Common.observe_best_head t.ctx honest_broadcasts ~current:(t.pub_head, t.pub_height)
    in
    if height > t.pub_height then begin
      t.pub_head <- head;
      t.pub_height <- height
    end;
    (* Mine on the public tip; blocks are announced immediately (the attack
       is about fruits, not chain structure), but record no fruits — the
       hoard must surface in a burst, not trickle out. h′ moves only with
       the public tip, so it is walked once here and again after a win. *)
    let pointer = ref (Common.pointer t.ctx ~head:t.pub_head) in
    for _ = 1 to Strategy.q_at t.ctx ~round do
      let { Mine.fruit; block } =
        Common.mine_once t.ctx ~round ~parent:t.pub_head ~pointer:!pointer
          ~fruits:(fun () -> []) ~record:""
      in
      (match fruit with Some f -> t.hoard <- f :: t.hoard | None -> ());
      match block with
      | Some b ->
          t.pub_head <- b.Types.b_hash;
          t.pub_height <- Store.height t.ctx.store b.Types.b_hash;
          pointer := Common.pointer t.ctx ~head:t.pub_head;
          Common.publish t.ctx ~round ~blocks:[ b ] ~head:b.Types.b_hash
      | None -> ()
    done;
    if round > 0 && Int.equal (round mod P.release_interval) 0 && not (List.is_empty t.hoard)
    then begin
      let fruits = List.length t.hoard in
      Trace.adversary t.ctx.trace ~round "adv.fruit_release"
        ~counters:[ ("adv.release.fruit_bursts", 1); ("adv.release.fruits", fruits) ]
        [ ("fruits", Json.Int fruits) ];
      List.iter (Common.broadcast_fruit t.ctx ~round) t.hoard;
      t.hoard <- []
    end
end
