(** Transactions with fees, carried in protocol records.

    The execution model transports opaque records; a transaction is a
    record of the form [tx:<id>:<fee>]. Encoding fees in-band keeps the
    protocol layers untouched while letting the incentive layer recover who
    confirmed how much fee. *)

type t = { id : string; fee : float }

val decode : string -> t option
(** [None] for records that are not transactions (probes, padding). *)

(** {1 Fee workloads} *)

module Workload : sig
  type nonrec t = round:int -> party:int -> string
  (** Compatible with {!Fruitchain_sim.Engine.workload}. *)

  val interval : rng:Fruitchain_util.Rng.t -> every:int -> mean_fee:float -> t
  (** Mempool-style supply: a fresh transaction every [every] rounds, with
      exponential fee of mean [mean_fee], offered to {e every} party until
      the next one replaces it. The first miner to confirm it collects the
      fee (first-occurrence crediting in {!Reward}). *)

  val with_whales :
    rng:Fruitchain_util.Rng.t -> every:int -> mean_fee:float ->
    whale_every:int -> whale_fee:float -> t
  (** [interval], except that every [whale_every]-th transaction is a
      "whale" with fee [whale_fee] — the high-fee scenario of §5 that makes
      the Bitcoin reward rule unstable. *)
end
