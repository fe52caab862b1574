(** Shared machinery for adversary strategies: mining raw objects with the
    coalition's query budget, tracking the best honest-announced chain, and
    publishing withheld branches (optionally as a γ-rushed tie race). *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Message = Fruitchain_net.Message
module Network = Fruitchain_net.Network
module Strategy = Fruitchain_sim.Strategy
module Trace = Fruitchain_sim.Trace

val mine_once :
  Strategy.ctx -> round:int -> parent:Hash.t -> pointer:Hash.t ->
  fruits:(unit -> Types.fruit list) -> record:string -> Mine.mined
(** One coalition query: {!Fruitchain_chain.Mine.mine} over the header
    [(parent; pointer; η; d(fruits ()); record)], drawing η from the
    context's generator. [fruits] is a thunk so the (possibly large)
    candidate set is only materialized when the step needs it. Both
    outcomes are stamped with adversarial provenance and recorded in the
    trace, and a mined block is added to the shared store. Nakamoto
    strategies pass [~fruits:(fun () -> [])] and ignore the fruit outcome. *)

val pointer : Strategy.ctx -> head:Hash.t -> Hash.t
(** h′ for a coalition mining on [head] ({!Fruitchain_chain.Mine.pointer}
    at the run's κ); [head] must be in the shared store. *)

val observe_best_head :
  Strategy.ctx -> Message.t list -> current:(Hash.t * int) -> Hash.t * int
(** Fold honest chain announcements into the best (head, height) seen. *)

val publish :
  Strategy.ctx -> round:int -> blocks:Types.block list -> head:Hash.t -> unit
(** Announce a (withheld) branch to every honest party, rushed to arrive
    next round ahead of same-round honest messages. *)

val publish_tie :
  Strategy.ctx -> round:int -> blocks:Types.block list -> head:Hash.t ->
  gamma:float -> unit
(** Tie-race publication: each honest recipient independently receives the
    branch {e before} the competing honest announcement with probability
    [gamma] and after it otherwise — the network-control parameter of the
    selfish-mining literature. *)

val broadcast_fruit : Strategy.ctx -> round:int -> Types.fruit -> unit
(** Announce a fruit (rushed). *)

val fruitchain : Strategy.ctx -> bool
(** Whether the run's protocol is Π_fruit (the coalition then keeps and
    records fruits); [false] for Π_nak. *)

val coalition_record : Strategy.ctx -> round:int -> string
(** The environment record currently offered to the coalition (read through
    the run's workload for the first corrupt party). *)
