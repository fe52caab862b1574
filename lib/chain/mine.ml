open Types
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng

type mined = { fruit : fruit option; block : block option }

(* Shared by every losing attempt: the miss path must not allocate. *)
let nothing = { fruit = None; block = None }

let pointer store ~head ~depth =
  match
    Store.ancestor_id_at_height store ~head ~height:(max 0 (Store.height_at store head - depth))
  with
  | Some i -> Store.hash_at store i
  | None -> genesis.b_hash

let header ~parent ~pointer ~nonce ~fruits ~record =
  { parent; pointer; nonce; digest = Validate.fruit_set_digest fruits; record }

let won header ~hash ~fruits prov ~won_fruit ~won_block =
  let prov = Some prov in
  {
    fruit = (if won_fruit then Some { f_header = header; f_hash = hash; f_prov = prov } else None);
    block =
      (if won_block then Some { b_header = header; b_hash = hash; fruits; b_prov = prov }
       else None);
  }

let settle oracle mask header ~fruits ~miner ~round ~honest =
  won header ~hash:(Oracle.attempt_hash oracle) ~fruits { miner; round; honest }
    ~won_fruit:(Oracle.attempt_won_fruit mask) ~won_block:(Oracle.attempt_won_block mask)

let mine oracle rng ~miner ~round ~honest ~parent ~pointer ~fruits ~record =
  (* The nonce is drawn before the query on both paths. The query draws
     from the oracle's own generator, so the nonce stays readable as the
     last draw of [rng] until a win needs it, and boxing it waits for that
     win. *)
  Rng.draw rng;
  if Oracle.needs_input oracle then begin
    let fruits = fruits () in
    let header = header ~parent ~pointer ~nonce:(Rng.last_bits64 rng) ~fruits ~record in
    let mask = Oracle.attempt oracle (Codec.header_bytes header) in
    if Int.equal mask 0 then nothing else settle oracle mask header ~fruits ~miner ~round ~honest
  end
  else begin
    let mask = Oracle.attempt oracle "" in
    if Int.equal mask 0 then nothing
    else begin
      let fruits = if Oracle.attempt_won_block mask then fruits () else [] in
      let header = header ~parent ~pointer ~nonce:(Rng.last_bits64 rng) ~fruits ~record in
      settle oracle mask header ~fruits ~miner ~round ~honest
    end
  end
