(** Protocol messages.

    The paper's nodes broadcast whole chains and individual fruits. Because
    every block is broadcast when mined, re-sending the full prefix carries
    no information; a chain announcement here is the list of blocks the
    recipients may not yet have (oldest first — e.g. a selfish miner's
    private blocks on release) together with the head to be considered for
    adoption. Recipients insert the blocks into their store and then apply
    the longest-chain rule to the head, which is semantically identical to
    receiving the full chain. *)

open Fruitchain_chain

type payload =
  | Chain_announce of { blocks : Types.block list; head : Types.Hash.t }
      (** [blocks]: blocks possibly unknown to recipients, parent-first.
          [head]: reference of the announced chain's tip. *)
  | Fruit_announce of Types.fruit

type t = {
  sender : int;  (** Party index; {!adversary_sender} for coalition messages. *)
  sent_at : int;  (** Round of broadcast. *)
  priority : int;  (** Inbox ordering key; see {!Network}. *)
  relay : bool;
      (** Gossip relay of previously-broadcast content (footnote 2 of the
          paper): processed like any message, but not a mining event. *)
  payload : payload;
}

val adversary_sender : int
(** Conventional sender id (-1) for messages injected by the adversary. *)

val chain_announce : sender:int -> sent_at:int -> ?priority:int -> ?relay:bool ->
  blocks:Types.block list -> head:Types.Hash.t -> unit -> t
(** [priority] defaults to {!honest_priority}; [relay] to [false]. *)

val fruit_announce : sender:int -> sent_at:int -> ?priority:int -> ?relay:bool ->
  Types.fruit -> t

val honest_priority : int
(** Default inbox priority (10) for honest broadcasts. *)

val rushed_priority : int
(** Priority (0) that beats honest messages delivered in the same round —
    the "rushing adversary" of the model, which may reorder deliveries
    within a round. *)
