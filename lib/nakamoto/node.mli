(** An honest node of Nakamoto's protocol Π_nak(p), §2.4.

    Per round the node (1) replaces its chain by any valid strictly longer
    incoming chain, (2) reads a record from the environment, picks a random
    nonce, and makes its single oracle query, (3) on success appends the new
    block and broadcasts. Blocks reuse the shared {!Fruitchain_chain.Types}
    layout with [pointer = parent], an empty fruit set, and the empty-set
    digest, so the whole chain substrate (store, codec, validation, metrics)
    applies unchanged. *)

open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

type t

val create : id:int -> store:Store.t -> rng:Rng.t -> t
(** The node starts on the genesis chain. The store may be shared across a
    simulation. *)

val head_id : t -> Fruitchain_chain.Store.id
(** The node's chain tip as an arena id (see {!Fruitchain_chain.Store.id});
    its chain, height and records are read from the store through it. *)

(* fruitlint: allow R12 test_nakamoto "adopt longer only", "tie keeps first" *)
val receive : t -> Oracle.t -> Message.t -> unit
(** Process one incoming message: insert any valid blocks, then adopt the
    announced head iff it is valid and strictly longer than the current
    chain. Fruit announcements are ignored (Nakamoto has no fruits). *)

(* fruitlint: allow R12 test_nakamoto "mining extends", "ledger order" *)
val mine :
  t -> Oracle.t -> round:int -> record:string -> honest:bool -> Types.block option
(** The node's one mining query for this round: {!Fruitchain_chain.Mine.mine}
    over its head, with [pointer = parent] and no fruits (a fruit the query
    wins is discarded). On success the block is appended locally and
    returned for broadcast; provenance is stamped with [(id, round, honest)]
    for the metrics layer. *)

val step :
  t -> Oracle.t -> round:int -> record:string -> incoming:Message.t list ->
  Message.t list
(** One full honest round: receive everything, then mine; returns the
    broadcasts to hand to the network (at most one chain announcement). *)
