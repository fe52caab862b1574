open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

type t = {
  id : int;
  params : Params.t;
  store : Store.t;
  views : Window_view.Cache.t;
  rng : Rng.t;
  buffer : Buffer.t;
  (* F′ over [view], as a closure built once so that mining allocates none. *)
  candidates : unit -> Types.fruit list;
  mutable gossip : bool;
  mutable head_id : Store.id;
  mutable pointer : Types.Hash.t; (* h′ of the head, kept current by [adopt] *)
  mutable view : Window_view.t;
  mutable pending_relays : Message.t list; (* reverse order, drained by step *)
}

let create ?(gossip = false) ~id ~params ~store ~views ~rng () =
  let buffer = Buffer.create views in
  let view = Window_view.Cache.view views ~head:Types.genesis.b_hash in
  let rec t =
    {
      id;
      params;
      store;
      views;
      rng;
      buffer;
      candidates = (fun () -> Buffer.candidates t.buffer ~view:t.view);
      gossip;
      head_id = Store.genesis_id;
      pointer = Types.genesis.b_hash;
      view;
      pending_relays = [];
    }
  in
  t

let id t = t.id
let release t = Buffer.release t.buffer
let set_gossip t on = t.gossip <- on
let head_id t = t.head_id
let head t = Store.hash_at t.store t.head_id
let height t = Store.height_at t.store t.head_id
let chain t = Store.to_list t.store ~head:(head t)
let buffer_size t = Buffer.size t.buffer
let candidate_fruits t = t.candidates ()
let ledger t = Extract.ledger t.store ~head:(head t)

let recency t =
  if t.params.Params.enforce_recency then Some (Params.recency_window t.params) else None

(* Adopting a head that extends the current chain walks the extension
   block-by-block so the buffer sees every block leave the window; a
   genuine reorg (or an extension deeper than the recency window) prunes
   the buffer against the new view instead. *)
let adopt t new_id =
  let bound = Params.recency_window t.params in
  let rec path_to acc i steps =
    if Store.id_equal i t.head_id then Some acc
    else if Int.equal steps 0 || Store.id_equal i Store.genesis_id then None
    else path_to (Store.hash_at t.store i :: acc) (Store.parent_id t.store i) (steps - 1)
  in
  (match path_to [] new_id bound with
  | Some heads ->
      List.iter
        (fun head ->
          t.view <- Window_view.Cache.view t.views ~head;
          Buffer.expire t.buffer ~view:t.view)
        heads
  | None ->
      t.view <- Window_view.Cache.view t.views ~head:(Store.hash_at t.store new_id);
      Buffer.prune t.buffer ~store:t.store ~view:t.view);
  t.head_id <- new_id;
  t.pointer <- Mine.pointer t.store ~head:new_id ~depth:(Params.pointer_depth t.params)

(* Insert announced blocks parent-first; any invalid block invalidates the
   whole announcement (its descendants cannot be valid either). Fruits
   carried by valid blocks are learned into the buffer: if the carrying
   block is later orphaned, the node can re-record them — the re-inclusion
   mechanism behind the fairness guarantee. *)
let receive t oracle (msg : Message.t) =
  match msg.payload with
  | Message.Fruit_announce f ->
      (* [add] is the membership test: only a fruit new to the buffer is relayed. *)
      if Validate.valid_fruit oracle f && Buffer.add t.buffer f && t.gossip then
        t.pending_relays <-
          Message.fruit_announce ~sender:t.id ~sent_at:msg.sent_at ~relay:true f
          :: t.pending_relays
  | Message.Chain_announce { blocks; head } ->
      let rec insert = function
        | [] -> true
        | (b : Types.block) :: rest ->
            if Store.mem t.store b.b_hash then insert rest
            else begin
              match Validate.valid_extension oracle t.store ~recency:(recency t) b with
              | Ok () ->
                  Store.add t.store b;
                  List.iter (fun f -> ignore (Buffer.add t.buffer f : bool)) b.fruits;
                  insert rest
              | Error _ -> false
            end
      in
      let all_inserted = insert blocks in
      let adopted =
        all_inserted
        &&
        match Store.find_id t.store head with
        | Some hid when Store.height_at t.store hid > Store.height_at t.store t.head_id ->
            adopt t hid;
            true
        | _ -> false
      in
      if adopted then begin
        if t.gossip then
          t.pending_relays <-
            Message.chain_announce ~sender:t.id ~sent_at:msg.sent_at ~relay:true ~blocks ~head
              ()
            :: t.pending_relays
      end

type mined = Mine.mined = { fruit : Types.fruit option; block : Types.block option }

let mine t oracle ~round ~record ~honest =
  let mined =
    Mine.mine oracle t.rng ~miner:t.id ~round ~honest ~parent:(head t) ~pointer:t.pointer
      ~fruits:t.candidates ~record
  in
  (match mined.fruit with Some f -> ignore (Buffer.add t.buffer f : bool) | None -> ());
  (match mined.block with Some b -> adopt t (Store.add_id t.store b) | None -> ());
  mined

(* A direct walk, not [List.iter (receive t oracle)]: the partial
   application would be a closure per step, inbox empty or not. *)
let rec receive_all t oracle = function
  | [] -> ()
  | msg :: rest ->
      receive t oracle msg;
      receive_all t oracle rest

let step t oracle ~round ~record ~incoming =
  receive_all t oracle incoming;
  let relays =
    match t.pending_relays with
    | [] -> []
    | pending ->
        t.pending_relays <- [];
        List.rev pending
  in
  let { fruit; block } = mine t oracle ~round ~record ~honest:true in
  (* Fruit announcement first, then the block announcement, then relays —
     the historical emission order, built without intermediate lists so the
     common nothing-mined step stays allocation-free. *)
  match (fruit, block) with
  | None, None -> relays
  | _ ->
      let out =
        match block with
        | Some b ->
            Message.chain_announce ~sender:t.id ~sent_at:round ~blocks:[ b ] ~head:b.b_hash ()
            :: relays
        | None -> relays
      in
      (match fruit with
      | Some f -> Message.fruit_announce ~sender:t.id ~sent_at:round f :: out
      | None -> out)
