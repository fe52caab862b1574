open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Network = Fruitchain_net.Network
module Strategy = Fruitchain_sim.Strategy
module Window_view = Fruitchain_core.Window_view
module Buffer_f = Fruitchain_core.Buffer
module Trace = Fruitchain_sim.Trace
module Json = Fruitchain_obs.Json

module type PARAMS = sig
  val gamma : float
  val broadcast_fruits : bool

  val lead_stubborn : bool
  (* When the honest chain catches up to one behind, race instead of
     overriding (Nayak et al.'s Lead-stubborn variant). *)

  val equal_fork_stubborn : bool
  (* When winning a block during a tie race, keep it private instead of
     releasing (Equal-fork-stubborn variant). *)
end

module Make (P : PARAMS) : Strategy.S = struct
  type t = {
    ctx : Strategy.ctx;
    buffer : Buffer_f.t; (* the coalition's own fruits (censoring) *)
    mutable priv : Hash.t; (* private mining tip *)
    mutable withheld : Types.block list; (* unreleased private blocks, oldest first *)
    mutable pub_head : Hash.t; (* best honest-announced tip *)
    mutable pub_height : int;
    mutable racing : bool; (* a tie race is in flight *)
    mutable view : Window_view.t; (* recency view of the private tip *)
  }

  let name =
    let variant =
      match (P.lead_stubborn, P.equal_fork_stubborn) with
      | false, false -> "selfish"
      | true, false -> "lead-stubborn"
      | false, true -> "fork-stubborn"
      | true, true -> "lead+fork-stubborn"
    in
    Printf.sprintf "%s(gamma=%g)" variant P.gamma

  let create (ctx : Strategy.ctx) =
    {
      ctx;
      buffer = Buffer_f.create ctx.views;
      priv = Types.genesis.b_hash;
      withheld = [];
      pub_head = Types.genesis.b_hash;
      pub_height = 0;
      racing = false;
      view = Window_view.Cache.view ctx.views ~head:Types.genesis.b_hash;
    }

  (* A tight network makes the race dynamics of the classic analysis exact. *)
  let schedule_honest _t _msg ~recipient:_ = Network.Next_round

  let priv_height t = Store.height t.ctx.store t.priv

  (* Release decisions are rare (at most one per honest advance), so the
     by-name counters are fine here — no hot-path native ints. *)
  let note_release t ~round ~blocks ~tie =
    Trace.adversary t.ctx.trace ~round "adv.release"
      ~counters:
        (("adv.release.events", 1) :: ("adv.release.blocks", blocks)
        :: (if tie then [ ("adv.release.ties", 1) ] else []))
      [ ("blocks", Json.Int blocks); ("tie", Json.Bool tie) ]

  let move_priv t head =
    t.priv <- head;
    if Common.fruitchain t.ctx then begin
      t.view <- Window_view.Cache.view t.ctx.views ~head;
      Buffer_f.prune t.buffer ~store:t.ctx.store ~view:t.view
    end

  let adopt_public t ~round =
    let abandoned = List.length t.withheld in
    t.withheld <- [];
    t.racing <- false;
    move_priv t t.pub_head;
    Trace.adversary t.ctx.trace ~round "adv.adopt" ~counters:[ ("adv.adopt", 1) ]
      [ ("abandoned", Json.Int abandoned) ]

  let release_all t ~round ~tie =
    (match t.withheld with
    | [] -> ()
    | blocks ->
        note_release t ~round ~blocks:(List.length blocks) ~tie;
        if tie then
          Common.publish_tie t.ctx ~round ~blocks ~head:t.priv ~gamma:P.gamma
        else Common.publish t.ctx ~round ~blocks ~head:t.priv);
    t.withheld <- []

  let release_prefix t ~round ~upto ~tie =
    let revealed, kept =
      List.partition
        (fun (b : Types.block) -> Store.height t.ctx.store b.b_hash <= upto)
        t.withheld
    in
    (match List.rev revealed with
    | [] -> ()
    | tip :: _ ->
        note_release t ~round ~blocks:(List.length revealed) ~tie;
        if tie then
          Common.publish_tie t.ctx ~round ~blocks:revealed ~head:tip.Types.b_hash
            ~gamma:P.gamma
        else Common.publish t.ctx ~round ~blocks:revealed ~head:tip.Types.b_hash);
    t.withheld <- kept

  (* React to honest chain progress, per SM1. *)
  let on_public_advance t ~round =
    let lead = priv_height t - t.pub_height in
    if lead < 0 then adopt_public t ~round
    else if Int.equal lead 0 then begin
      if not (List.is_empty t.withheld) then begin
        release_all t ~round ~tie:true;
        t.racing <- true
      end
      else if not t.racing then
        (* Same height, nothing private in hand and no race of ours: move to
           the public tip (we may sit on a dead branch of a lost race). *)
        move_priv t t.pub_head
    end
    else if not (List.is_empty t.withheld) then
      if Int.equal lead 1 then begin
        if P.lead_stubborn then begin
          (* Stay stubborn: reveal only up to the public height (as a
             gamma-rushed tie), keeping the lead block hidden. *)
          release_prefix t ~round ~upto:t.pub_height ~tie:true;
          t.racing <- true
        end
        else begin
          release_all t ~round ~tie:false;
          t.racing <- false
        end
      end
      else release_prefix t ~round ~upto:t.pub_height ~tie:false

  let act t ~round ~honest_broadcasts =
    let head, height =
      Common.observe_best_head t.ctx honest_broadcasts ~current:(t.pub_head, t.pub_height)
    in
    if height > t.pub_height then begin
      t.pub_head <- head;
      t.pub_height <- height;
      on_public_advance t ~round
    end;
    let fruitchain = Common.fruitchain t.ctx in
    (* Hang fruits from a stabilized block of the public chain: deep enough
       to be on the common prefix, hence recent for every fork in play.
       The pointer (an ancestor walk from the public head) and the record
       depend only on state fixed before the query loop — hoist them. *)
    let pointer = Common.pointer t.ctx ~head:t.pub_head in
    let record = Common.coalition_record t.ctx ~round in
    let fruits () = if fruitchain then Buffer_f.candidates t.buffer ~view:t.view else [] in
    for _ = 1 to Strategy.q_at t.ctx ~round do
      let { Mine.fruit; block } =
        Common.mine_once t.ctx ~round ~parent:t.priv ~pointer ~fruits ~record
      in
      (match fruit with
      | Some f when fruitchain ->
          ignore (Buffer_f.add t.buffer f : bool);
          if P.broadcast_fruits then Common.broadcast_fruit t.ctx ~round f
      | Some _ | None -> ());
      match block with
      | Some b ->
          t.withheld <- t.withheld @ [ b ];
          move_priv t b.Types.b_hash;
          if t.racing && not P.equal_fork_stubborn then begin
            (* Winning block of a tie race: release immediately, the private
               chain is now strictly longest. Equal-fork-stubborn keeps it
               private and lets the lead logic decide later. *)
            release_all t ~round ~tie:false;
            t.racing <- false
          end
      | None -> ()
    done
end
