(** A passive adversary: no corrupt mining, no injected messages — it only
    exercises the delivery-control power. Used for honest-majority baseline
    runs and for measuring the effect of Δ on growth and consistency. *)

module Null_max : Fruitchain_sim.Strategy.S
(** Delivers every honest message at the latest legal round [t + Δ] — the
    worst case the paper's bounds are stated against. *)
