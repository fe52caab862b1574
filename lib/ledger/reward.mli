(** Reward rules and coalition utility — §5 of the paper.

    Two reward distributions over a finished run's canonical chain:

    - {!bitcoin_rule}: the confirming miner takes the whole block reward plus
      every fee its block (Π_nak) or fruit (Π_fruit) confirms — the rule
      under which a freshly confirmed whale fee invites forks and selfish
      mining pays.
    - {!fruitchain_rule}: each reward-unit's subsidy {e and} fees are split
      evenly among the miners of the [segment]-length window of reward
      units ending at it (the first window backstops the initial phase), the
      paper's T(κ)-segment smoothing. Fairness of the unit sequence then
      caps any coalition's utility gain at (1+3δ).

    Utilities ignore duplicated confirmations: a transaction id pays its fee
    only at its first occurrence in ledger order. *)

module Trace = Fruitchain_sim.Trace

type payout = {
  by_miner : (int, float) Hashtbl.t;
  total : float;
  units : int;  (** Reward-carrying units (blocks or fruits) considered. *)
}

val miner_payout : payout -> int -> float

val bitcoin_rule : Trace.t -> block_reward:float -> payout

val fruitchain_rule : Trace.t -> unit_reward:float -> segment:int -> payout

type comparison = {
  honest_payout : float;  (** Coalition payout when it mines honestly. *)
  deviant_payout : float;  (** Coalition payout under the deviation. *)
  gain : float;  (** [deviant / honest]; the Nash-deviation gain factor. *)
}

val compare_utilities :
  honest:Trace.t -> deviant:Trace.t -> rule:(Trace.t -> payout) -> comparison
(** Both traces must share n and ρ; the coalition is the corrupt set. *)
