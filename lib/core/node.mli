(** An honest node of the FruitChain protocol Π_fruit(p, p_f, R) — Figure 1
    of the paper.

    Per round the node drains its inbox (valid fruits go to the buffer;
    valid, strictly longer chains are adopted), then makes its single
    2-for-1 oracle query over the header
    [(h_{-1}; h'; η; d(F'); m)] where [F'] is the buffered recent,
    not-yet-recorded fruit set and [h'] points κ blocks below the tip. The
    last-κ view of the digest decides fruit success, the first-κ view block
    success; both can succeed on one query. Mined fruits are broadcast
    individually; a mined block records [F'] and announces the new chain. *)

open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

type t

val create :
  ?gossip:bool -> id:int -> params:Params.t -> store:Store.t ->
  views:Window_view.Cache.t -> rng:Rng.t -> unit -> t
(** [views] is the shared window-view cache for the store (create one per
    simulation with [window = Params.recency_window params]).

    [gossip] (default [false]) enables the relay behaviour of the paper's
    footnote 2: the node re-broadcasts every fruit it had not seen before
    and every chain it adopts, so content delivered to one honest party
    reaches all of them within Δ hops even when the sender targets a
    subset. Relays are flagged ({!Message.t.relay}) and are not mining
    events. *)

val id : t -> int

val release : t -> unit
(** Hands the buffer's slot back to the run's fruit plane, for a node
    spawned later; the node must not be used again. The engine calls it
    when it corrupts the party. *)

val set_gossip : t -> bool -> unit
(** Flips the relay behaviour mid-run (scenario [gossip_toggle] events);
    takes effect from the node's next {!step}. *)

val head : t -> Types.Hash.t

val head_id : t -> Fruitchain_chain.Store.id
(** The head as an arena id — the engine's head watcher compares and walks
    heads by id, never re-resolving hashes. *)

val height : t -> int
val chain : t -> Types.block list
val buffer_size : t -> int
(* fruitlint: allow R12 test_core "includes recent fruits", "rebuffers on reorg" *)
val candidate_fruits : t -> Types.fruit list
(** The F′ the node would commit to if it mined a block right now. *)

val ledger : t -> string list
(** [extract_fruit(chain)] — see {!Extract}. *)

val receive : t -> Oracle.t -> Message.t -> unit

type mined = Mine.mined = {
  fruit : Types.fruit option;
  block : Types.block option;  (** Both set when one query won both PoWs. *)
}

val mine : t -> Oracle.t -> round:int -> record:string -> honest:bool -> mined
(** The node's single mining query for this round: {!Mine.mine} over its
    head, its h′ and its F′. Local state (buffer, chain, head) is already
    updated for anything returned; the caller is responsible for
    broadcasting. *)

val step :
  t -> Oracle.t -> round:int -> record:string -> incoming:Message.t list ->
  Message.t list
(** One full honest round; returns the broadcasts (fruit and/or chain
    announcements) for the network. *)
