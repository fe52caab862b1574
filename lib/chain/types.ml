module Hash = Fruitchain_crypto.Hash
module Sha256 = Fruitchain_crypto.Sha256

type header = {
  parent : Hash.t;
  pointer : Hash.t;
  nonce : int64;
  digest : Hash.t;
  record : string;
}

type provenance = { miner : int; round : int; honest : bool }
type fruit = { f_header : header; f_hash : Hash.t; f_prov : provenance option }

type block = {
  b_header : header;
  b_hash : Hash.t;
  fruits : fruit list;
  b_prov : provenance option;
}

let genesis_hash = Hash.of_digest (Sha256.digest "fruitchain:genesis")

let genesis =
  {
    b_header =
      {
        parent = Hash.zero;
        pointer = Hash.zero;
        nonce = 0L;
        digest = Fruitchain_crypto.Merkle.empty_root;
        record = "";
      };
    b_hash = genesis_hash;
    fruits = [];
    b_prov = None;
  }

let fruit_equal a b = Hash.equal a.f_hash b.f_hash
let block_equal a b = Hash.equal a.b_hash b.b_hash
