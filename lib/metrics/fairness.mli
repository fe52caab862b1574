(** δ-approximate fairness (Def. 3.1).

    A protocol is (T₀, δ)-fair when every ϕ-fraction subset S of the honest
    players receives at least (1−δ)ϕ of the fruits in every T ≥ T₀ window of
    the ledger. We measure it directly: mark each ledger fruit with whether
    its miner belongs to S and report the minimum S-share over all windows. *)

open Fruitchain_chain
module Trace = Fruitchain_sim.Trace

(* fruitlint: allow R12 test_metrics "subset flags" *)
val subset_flags_of_fruits : Types.fruit list -> member:(int -> bool) -> bool array
(** Per provenance-carrying fruit: is its miner in S? *)

(* fruitlint: allow R12 test_metrics "min window share" *)
val min_window_share : bool array -> window:int -> float
(** Minimum fraction of [true] entries over all consecutive [window]-length
    segments; [nan] if the sequence is shorter. *)

type report = {
  phi : float;  (** |S| / n. *)
  window : int;
  min_share : float;  (** Worst window S-share observed. *)
  overall_share : float;
  fair_floor : float -> float;
      (** [fair_floor delta] = (1−δ)·ϕ, the bound to compare against. *)
}

val fruit_fairness :
  Trace.t -> subset:int list -> window:int -> report
(** Fairness of the canonical honest final chain's fruit ledger w.r.t. the
    given honest subset. Raises [Invalid_argument] if a subset member is a
    corrupt party (S must select honest players). *)
