open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Merkle = Fruitchain_crypto.Merkle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

type t = {
  id : int;
  params : Params.t;
  store : Store.t;
  views : Window_view.Cache.t;
  rng : Rng.t;
  buffer : Buffer.t;
  mutable gossip : bool;
  mutable head_id : Store.id;
  mutable view : Window_view.t;
  mutable pending_relays : Message.t list; (* reverse order, drained by step *)
}

let create ?(gossip = false) ~id ~params ~store ~views ~rng () =
  {
    id;
    params;
    store;
    views;
    rng;
    buffer = Buffer.create ~enforce_recency:params.Params.enforce_recency ();
    gossip;
    head_id = Store.genesis_id;
    view = Window_view.Cache.view views ~head:Types.genesis.b_hash;
    pending_relays = [];
  }

let id t = t.id
let params t = t.params
let set_gossip t on = t.gossip <- on
let head_id t = t.head_id
let head t = Store.hash_at t.store t.head_id
let height t = Store.height_at t.store t.head_id
let chain t = Store.to_list t.store ~head:(head t)
let buffer_size t = Buffer.size t.buffer
let candidate_fruits t = Buffer.candidates t.buffer ~view:t.view
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
  t.head_id <- new_id

(* Insert announced blocks parent-first; any invalid block invalidates the
   whole announcement (its descendants cannot be valid either). Fruits
   carried by valid blocks are learned into the buffer: if the carrying
   block is later orphaned, the node can re-record them — the re-inclusion
   mechanism behind the fairness guarantee. *)
let receive t oracle (msg : Message.t) =
  match msg.payload with
  | Message.Fruit_announce f ->
      if Validate.valid_fruit oracle f && not (Buffer.mem t.buffer f.f_hash) then begin
        Buffer.add t.buffer f;
        if t.gossip then
          t.pending_relays <-
            Message.fruit_announce ~sender:t.id ~sent_at:msg.sent_at ~relay:true f
            :: t.pending_relays
      end
  | Message.Chain_announce { blocks; head } ->
      let rec insert = function
        | [] -> true
        | (b : Types.block) :: rest ->
            if Store.mem t.store b.b_hash then insert rest
            else begin
              match Validate.valid_extension oracle t.store ~recency:(recency t) b with
              | Ok () ->
                  Store.add t.store b;
                  List.iter (Buffer.add t.buffer) b.fruits;
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

type mined = { fruit : Types.fruit option; block : Types.block option }

(* Shared by every losing attempt: the miss path of [mine] must not
   allocate. *)
let nothing = { fruit = None; block = None }

let pointer_hash t =
  let pos = max 0 (height t - Params.pointer_depth t.params) in
  match Store.ancestor_id_at_height t.store ~head:t.head_id ~height:pos with
  | Some i -> Store.hash_at t.store i
  | None -> Types.genesis.b_hash

let finish t ~parent ~pointer ~nonce ~digest ~record ~candidates ~hash ~round ~honest
    ~won_fruit ~won_block =
  let header = { Types.parent; pointer; nonce; digest; record } in
  let prov = Some { Types.miner = t.id; round; honest } in
  let fruit =
    if won_fruit then begin
      let f = { Types.f_header = header; f_hash = hash; f_prov = prov } in
      Buffer.add t.buffer f;
      Some f
    end
    else None
  in
  let block =
    if won_block then begin
      let b = { Types.b_header = header; b_hash = hash; fruits = candidates; b_prov = prov } in
      adopt t (Store.add_id t.store b);
      Some b
    end
    else None
  in
  { fruit; block }

let mine t oracle ~round ~record ~honest =
  (* Under the sampling backend the oracle ignores its pre-image, so the
     header — including the pointer walk and the candidate fruit set with
     its digest, the expensive components — is looked at only when the
     attempt actually wins. Under the real backend the digest is committed
     before the query, exactly as in Figure 1; the candidate set cannot
     change between the two code paths because nothing touches the buffer
     in between. *)
  if Oracle.is_sim oracle then begin
    (* The nonce draw advances [t.rng] before the oracle attempt, as it
       always has; boxing it waits for a win. The attempt draws from the
       oracle's own generator, so the scratch slots of [t.rng] survive. *)
    Rng.draw t.rng;
    let mask = Oracle.attempt oracle "" in
    if Int.equal mask 0 then nothing
    else begin
      let parent = head t in
      let nonce = Rng.last_bits64 t.rng in
      let hash = Oracle.attempt_hash oracle in
      let won_fruit = Oracle.attempt_won_fruit mask in
      let won_block = Oracle.attempt_won_block mask in
      let pointer = pointer_hash t in
      (* Only a mined block's digest is ever checked against its fruit
         set; a lone fruit's digest field is the piggybacking artifact
         and any fixed value is canonical enough. *)
      let candidates, digest =
        if won_block then begin
          let candidates = candidate_fruits t in
          (candidates, Validate.fruit_set_digest candidates)
        end
        else ([], Merkle.empty_root)
      in
      finish t ~parent ~pointer ~nonce ~digest ~record ~candidates ~hash ~round ~honest
        ~won_fruit ~won_block
    end
  end
  else begin
    let parent = head t in
    let nonce = Rng.bits64 t.rng in
    let pointer = pointer_hash t in
    let candidates = candidate_fruits t in
    let digest = Validate.fruit_set_digest candidates in
    let header = { Types.parent; pointer; nonce; digest; record } in
    let hash = Oracle.query oracle (Codec.header_bytes header) in
    let won_fruit = Oracle.mined_fruit oracle hash in
    let won_block = Oracle.mined_block oracle hash in
    if not (won_fruit || won_block) then nothing
    else
      finish t ~parent ~pointer ~nonce ~digest ~record ~candidates ~hash ~round ~honest
        ~won_fruit ~won_block
  end

let step t oracle ~round ~record ~incoming =
  List.iter (receive t oracle) incoming;
  let relays = List.rev t.pending_relays in
  t.pending_relays <- [];
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
