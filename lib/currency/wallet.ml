module Hash = Fruitchain_crypto.Hash
module Lamport = Fruitchain_crypto.Lamport

type key_entry = { secret : Lamport.secret_key; address : Hash.t }

type t = {
  seed : string;
  mutable next_index : int;
  mutable keys : key_entry list; (* newest first *)
}

let create ~seed = { seed; next_index = 0; keys = [] }

let derive t =
  let secret, public =
    Lamport.generate ~seed:(Printf.sprintf "%s/%d" t.seed t.next_index)
  in
  t.next_index <- t.next_index + 1;
  let entry = { secret; address = Lamport.public_key_digest public } in
  t.keys <- entry :: t.keys;
  entry

let fresh_address t = (derive t).address

let balance t state =
  List.fold_left (fun acc k -> Int64.add acc (State.balance state k.address)) 0L t.keys

type payment_error = No_funded_address | Insufficient of { available : int64 }

let richest_funded t state =
  List.fold_left
    (fun best k ->
      let funds = State.balance state k.address in
      if Int64.compare funds 0L > 0 && not (State.spent state k.address) then
        match best with
        | Some (_, best_funds) when Int64.compare best_funds funds >= 0 -> best
        | _ -> Some (k, funds)
      else best)
    None t.keys

let pay t state ~to_ ~amount =
  match richest_funded t state with
  | None -> Error No_funded_address
  | Some (entry, funds) ->
      if Int64.compare funds amount < 0 then Error (Insufficient { available = funds })
      else begin
        let change = Int64.sub funds amount in
        let outputs =
          if Int64.compare change 0L = 0 then [ { Transfer.recipient = to_; amount } ]
          else
            [
              { Transfer.recipient = to_; amount };
              { Transfer.recipient = fresh_address t; amount = change };
            ]
        in
        Ok (Transfer.make ~secret:entry.secret ~outputs)
      end
