(** A light (SPV) client for FruitChain.

    A light client keeps only block headers (plus each block's reference
    hash), verifying proof-of-work and linkage but never downloading fruit
    sets. A full node can then prove to it that a record is in the ledger
    with a {!proof}: the fruit's wire bytes plus the Merkle path from the
    fruit to the containing block's fruit-set digest. The client checks

    - the containing block is on its header chain,
    - the fruit's own proof of work and reference hash,
    - the Merkle path against the header's committed digest,
    - the recency rule: the fruit's hang pointer is a header at most
      [R·κ] positions above the containing block.

    This mirrors Bitcoin SPV, with the twist that the proven object is a
    fruit — so a light client inherits exactly the fairness-protected
    ledger, not the (attackable) block sequence. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Merkle = Fruitchain_crypto.Merkle

type header = { fields : Types.header; reference : Hash.t }
(** What the light client stores per block: the five header fields and the
    block's reference hash [h]. *)

val header_of_block : Types.block -> header

type t

val create : oracle:Oracle.t -> recency:int option -> t
(** A client trusting the given oracle's difficulty parameters; [recency]
    as in {!Validate} (the paper's R·κ, [None] to disable). The client
    starts with only the genesis header. *)

val height : t -> int

(* fruitlint: allow R12 test_spv "happy path" (sync group) *)
val head : t -> Hash.t

type sync_error =
  | Unknown_parent
  | Bad_pow
  | Not_longer  (** The presented chain does not beat the current one. *)

val pp_sync_error : Format.formatter -> sync_error -> unit

val sync : t -> header list -> (unit, sync_error) result
(** Extend the header chain with consecutive headers (parent-first,
    starting from some known header). Verifies reference hashes and block
    difficulty; adopts only if strictly longer, mirroring the full node's
    rule. On error the client is unchanged. *)

(** {1 Inclusion proofs} *)

type proof = {
  fruit : Types.fruit;  (** The fruit carrying the record. *)
  block_reference : Hash.t;  (** Block claimed to contain it. *)
  merkle_path : Merkle.proof;  (** Fruit bytes → header digest. *)
}

val prove : Store.t -> head:Hash.t -> record:string -> proof option
(** Full-node side: build an inclusion proof for the first ledger fruit
    carrying [record] on the chain at [head]. *)

type verify_error =
  | Unknown_block
  | Invalid_fruit
  | Bad_merkle_path
  | Stale_fruit
  | Wrong_record

val pp_verify_error : Format.formatter -> verify_error -> unit

val verify : t -> record:string -> proof -> (int, verify_error) result
(** Light-client side: check the proof against the header chain; on success
    return the confirmation depth (how many headers sit above the
    containing block — the client's analogue of "κ-deep"). *)
