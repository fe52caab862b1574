open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Strategy = Fruitchain_sim.Strategy
module Tx = Fruitchain_ledger.Tx

module type PARAMS = sig
  val snipe_threshold : float
  val give_up_lead : int
end

module Make (P : PARAMS) : Strategy.S = struct
  type snipe = {
    target_record : string; (* the whale transaction being re-confirmed *)
    mutable tip : Hash.t; (* private fork tip *)
    mutable fork_blocks : Types.block list; (* oldest first *)
    mutable captured : bool; (* fork already contains the whale *)
  }

  type t = {
    ctx : Strategy.ctx;
    mutable pub_head : Hash.t;
    mutable pub_height : int;
    mutable snipe : snipe option;
  }

  let name =
    Printf.sprintf "fee-snipe(threshold=%g,give_up=%d)" P.snipe_threshold P.give_up_lead

  let create (ctx : Strategy.ctx) =
    { ctx; pub_head = Types.genesis.b_hash; pub_height = 0; snipe = None }

  let schedule_honest _t _msg ~recipient:_ = Network.Next_round

  (* Does this announcement confirm a fee worth stealing? Returns the block
     and the whale record. *)
  let find_victim (msgs : Message.t list) =
    List.find_map
      (fun (m : Message.t) ->
        match m.payload with
        | Message.Chain_announce { blocks; _ } ->
            List.find_map
              (fun (b : Types.block) ->
                match Tx.decode b.b_header.record with
                | Some tx when tx.Tx.fee >= P.snipe_threshold -> Some (b, b.b_header.record)
                | Some _ | None -> None)
              blocks
        | Message.Fruit_announce _ -> None)
      msgs

  let release t ~round (s : snipe) =
    Common.publish t.ctx ~round ~blocks:s.fork_blocks ~head:s.tip;
    t.snipe <- None

  let abandon t = t.snipe <- None

  let act t ~round ~honest_broadcasts =
    let head, height =
      Common.observe_best_head t.ctx honest_broadcasts ~current:(t.pub_head, t.pub_height)
    in
    if height > t.pub_height then begin
      t.pub_head <- head;
      t.pub_height <- height
    end;
    (* Start a snipe only when idle: one fork at a time. *)
    (match (t.snipe, find_victim honest_broadcasts) with
    | None, Some (victim, record) when Store.mem t.ctx.store victim.Types.b_header.parent ->
        t.snipe <-
          Some
            {
              target_record = record;
              tip = victim.Types.b_header.parent;
              fork_blocks = [];
              captured = false;
            }
    | _ -> ());
    (* Give up on hopeless forks. *)
    (match t.snipe with
    | Some s when t.pub_height - Store.height t.ctx.store s.tip > P.give_up_lead -> abandon t
    | _ -> ());
    for _ = 1 to Strategy.q_at t.ctx ~round do
      match t.snipe with
      | Some s ->
          (* Extend the fork; the first fork block re-confirms the whale. *)
          let record = if s.captured then "" else s.target_record in
          let { Mine.block; _ } =
            Common.mine_once t.ctx ~round ~parent:s.tip ~pointer:s.tip ~fruits:(fun () -> []) ~record
          in
          (match block with
          | Some b ->
              s.tip <- b.Types.b_hash;
              s.fork_blocks <- s.fork_blocks @ [ b ];
              s.captured <- true;
              if Store.height t.ctx.store s.tip > t.pub_height then begin
                t.pub_head <- s.tip;
                t.pub_height <- Store.height t.ctx.store s.tip;
                release t ~round s
              end
          | None -> ())
      | None ->
          (* Honest mining on the public tip, confirming the current record. *)
          let record = Common.coalition_record t.ctx ~round in
          let { Mine.block; _ } =
            Common.mine_once t.ctx ~round ~parent:t.pub_head ~pointer:t.pub_head ~fruits:(fun () -> [])
              ~record
          in
          (match block with
          | Some b ->
              t.pub_head <- b.Types.b_hash;
              t.pub_height <- Store.height t.ctx.store b.Types.b_hash;
              Common.publish t.ctx ~round ~blocks:[ b ] ~head:b.Types.b_hash
          | None -> ())
    done
end
