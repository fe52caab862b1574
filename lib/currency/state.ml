module Hash = Fruitchain_crypto.Hash
open Fruitchain_chain

type t = {
  balances : (Hash.t, int64) Hashtbl.t;
  spent_keys : (Hash.t, unit) Hashtbl.t;
  mutable supply : int64;
}

let create () = { balances = Hashtbl.create 256; spent_keys = Hashtbl.create 256; supply = 0L }
let balance t address = Option.value ~default:0L (Hashtbl.find_opt t.balances address)
let spent t address = Hashtbl.mem t.spent_keys address
let total_supply t = t.supply

let credit t address amount =
  Hashtbl.replace t.balances address (Int64.add (balance t address) amount)

let mint t address amount =
  if Int64.compare amount 0L <= 0 then invalid_arg "State.mint: non-positive amount";
  if spent t address then invalid_arg "State.mint: address key already spent";
  credit t address amount;
  t.supply <- Int64.add t.supply amount

type rejection = Bad_signature | Unknown_sender | Key_reused | Wrong_total | Spent_recipient

let apply t (transfer : Transfer.t) =
  let sender = Transfer.sender_address transfer in
  if not (Transfer.signature_valid transfer) then Error Bad_signature
  else if spent t sender then Error Key_reused
  else begin
    let funds = balance t sender in
    if Int64.compare funds 0L <= 0 then Error Unknown_sender
    else if Int64.compare (Transfer.total transfer) funds <> 0 then Error Wrong_total
    else if
      List.exists (fun (o : Transfer.output) -> spent t o.recipient) transfer.Transfer.outputs
    then Error Spent_recipient
    else begin
      Hashtbl.remove t.balances sender;
      Hashtbl.replace t.spent_keys sender ();
      List.iter
        (fun (o : Transfer.output) -> credit t o.recipient o.amount)
        transfer.Transfer.outputs;
      Ok ()
    end
  end

let apply_ledger t ~miner_address ~reward fruits =
  let applied = ref 0 and rejected = ref 0 in
  List.iter
    (fun (f : Types.fruit) ->
      (match f.f_prov with
      | Some prov ->
          let addr = miner_address prov in
          if not (spent t addr) then mint t addr reward
      | None -> ());
      match Transfer.decode f.f_header.record with
      | None -> ()
      | Some transfer -> (
          match apply t transfer with Ok () -> incr applied | Error _ -> incr rejected))
    fruits;
  (!applied, !rejected)
