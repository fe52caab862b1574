(** Committee election for hybrid consensus (§1.3 and the companion Hybrid
    Consensus paper).

    Hybrid consensus elects the miners of a recent chain segment as a BFT
    committee — one seat per unit, so a miner of k units holds k seats. The
    committee's honest fraction therefore equals the segment's chain
    quality, which is exactly where FruitChain's fairness pays off: under
    attack, fruit segments stay ≈ (1−ρ) honest while Nakamoto block
    segments degrade to the selfish-mining share. *)

module Trace = Fruitchain_sim.Trace

type seat =
  | Honest of int  (** Seat held by the honest party with this id. *)
  | Byzantine  (** Seat held by the adversary's coalition. *)

type t = {
  seats : seat array;  (** In segment order. *)
  elected_at : int;  (** Height of the segment's last unit's block. *)
}

val honest_fraction : t -> float
val byzantine_seats : t -> int
val size : t -> int

val sliding : Trace.t -> unit:[ `Blocks | `Fruits ] -> size:int -> stride:int -> t list
(** All committees obtained by sliding a [size]-seat window along the
    canonical chain's blocks or its extracted fruit ledger (the FruitChain
    election) with the given stride, one seat per unit, honest/byzantine by
    the mining-time flag. Used to estimate violation rates. *)
