open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

type t = { id : int; store : Store.t; rng : Rng.t; mutable head_id : Store.id }

let create ~id ~store ~rng = { id; store; rng; head_id = Store.genesis_id }
let head_id t = t.head_id
let head t = Store.hash_at t.store t.head_id

(* Insert the announced blocks (parent-first, so ordinary extension checks
   apply one by one), then adopt the head if it is known and strictly
   longer. A block whose validation fails is dropped together with its
   descendants, exactly as an honest verifier would drop an invalid chain. *)
let receive t oracle (msg : Message.t) =
  match msg.payload with
  | Message.Fruit_announce _ -> ()
  | Message.Chain_announce { blocks; head } ->
      let rec insert = function
        | [] -> true
        | (b : Types.block) :: rest ->
            if Store.mem t.store b.b_hash then insert rest
            else begin
              match Validate.valid_extension oracle t.store ~recency:None b with
              | Ok () ->
                  Store.add t.store b;
                  insert rest
              | Error _ -> false
            end
      in
      let all_inserted = insert blocks in
      if all_inserted then
        match Store.find_id t.store head with
        | Some hid when Store.height_at t.store hid > Store.height_at t.store t.head_id ->
            t.head_id <- hid
        | _ -> ()

(* A Nakamoto block is a Π_fruit header with [pointer = parent] and no
   fruits; a fruit the query happens to win is discarded. *)
let mine t oracle ~round ~record ~honest =
  let parent = head t in
  let { Mine.block; _ } =
    Mine.mine oracle t.rng ~miner:t.id ~round ~honest ~parent ~pointer:parent
      ~fruits:(fun () -> []) ~record
  in
  (match block with Some b -> t.head_id <- Store.add_id t.store b | None -> ());
  block

(* A direct walk: [List.iter (receive t oracle)] would build a closure per
   step. *)
let rec receive_all t oracle = function
  | [] -> ()
  | msg :: rest ->
      receive t oracle msg;
      receive_all t oracle rest

let step t oracle ~round ~record ~incoming =
  receive_all t oracle incoming;
  match mine t oracle ~round ~record ~honest:true with
  | None -> []
  | Some block ->
      [ Message.chain_announce ~sender:t.id ~sent_at:round ~blocks:[ block ] ~head:block.b_hash () ]
