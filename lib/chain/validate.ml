open Types
module Oracle = Fruitchain_crypto.Oracle
module Hash = Fruitchain_crypto.Hash
module Merkle = Fruitchain_crypto.Merkle

let fruit_set_digest fruits = Merkle.root (List.map Codec.fruit_bytes fruits)

(* [H.ver] on a header. A memo-less sampling oracle accepts without reading
   its input, so the pre-image is serialized only when the oracle reads it. *)
let verified oracle header hash =
  (not (Oracle.needs_input oracle)) || Oracle.verify oracle (Codec.header_bytes header) hash

let valid_fruit oracle f = verified oracle f.f_header f.f_hash && Oracle.mined_fruit oracle f.f_hash

let valid_block oracle b =
  block_equal b genesis
  || Hash.equal b.b_header.digest (fruit_set_digest b.fruits)
     && List.for_all (valid_fruit oracle) b.fruits
     && verified oracle b.b_header b.b_hash
     && Oracle.mined_block oracle b.b_hash

type chain_error =
  | Not_genesis_rooted
  | Broken_link of { position : int }
  | Invalid_block of { position : int }
  | Stale_fruit of { position : int; fruit : Hash.t }

let pp_chain_error fmt = function
  | Not_genesis_rooted -> Format.fprintf fmt "chain does not start at genesis"
  | Broken_link { position } -> Format.fprintf fmt "broken parent link at position %d" position
  | Invalid_block { position } -> Format.fprintf fmt "invalid block at position %d" position
  | Stale_fruit { position; fruit } ->
      Format.fprintf fmt "fruit %a in block %d violates recency" Hash.pp fruit position

(* Is [pointer] the reference of a block in positions [lo .. i-1]?
   [positions] maps block reference -> position. *)
let recent_enough positions ~pointer ~lo ~hi =
  match Hash.Tbl.find_opt positions pointer with
  | Some j -> j >= lo && j < hi
  | None -> false

(* The recency rule for the block at [position]: each of its fruits hangs
   from one of the [window] blocks before it. Both entry points call this;
   they differ only in where [positions] comes from. *)
let check_fruits_recency ~window ~positions ~position block =
  let lo = max 0 (position - window) in
  let rec check = function
    | [] -> Ok ()
    | f :: rest ->
        if recent_enough positions ~pointer:f.f_header.pointer ~lo ~hi:position then check rest
        else Error (Stale_fruit { position; fruit = f.f_hash })
  in
  check block.fruits

let valid_chain oracle ~recency chain =
  match chain with
  | [] -> Error Not_genesis_rooted
  | first :: _ when not (block_equal first genesis) -> Error Not_genesis_rooted
  | first :: rest ->
      let positions = Hash.Tbl.create 64 in
      Hash.Tbl.replace positions first.b_hash 0;
      let rec walk prev position = function
        | [] -> Ok ()
        | b :: tail ->
            if not (Hash.equal b.b_header.parent prev.b_hash) then
              Error (Broken_link { position })
            else if not (valid_block oracle b) then Error (Invalid_block { position })
            else begin
              let recent =
                match recency with
                | None -> Ok ()
                | Some window -> check_fruits_recency ~window ~positions ~position b
              in
              match recent with
              | Error _ as e -> e
              | Ok () ->
                  Hash.Tbl.replace positions b.b_hash position;
                  walk b (position + 1) tail
            end
      in
      walk first 1 rest

let valid_extension oracle store ~recency block =
  (* Resolve the parent hash exactly once: [find_id] keeps this entry
     point total (R10) where the old [mem]-then-[height] pair re-looked
     the hash up through a raising accessor. *)
  match Store.find_id store block.b_header.parent with
  | None -> Error (Broken_link { position = -1 })
  | Some parent_id ->
      let position = Store.height_at store parent_id + 1 in
      if not (valid_block oracle block) then Error (Invalid_block { position })
      else begin
        match recency with
        | None -> Ok ()
        | Some window ->
            let positions = Store.hang_positions_id store ~head:parent_id ~window in
            check_fruits_recency ~window ~positions ~position block
      end
