(** Selfish mining (Eyal–Sirer SM1, generalized to both protocols).

    The coalition mines on a private tip and withholds its blocks. When the
    honest chain catches up to one behind, the whole private branch is
    released and overrides it; on an exact tie the branch is released into a
    race in which each honest miner sees the adversary's branch first with
    probability γ (the network-control parameter of [7]). While the private
    lead is larger, only the prefix up to the honest height is revealed.

    Against Π_nak this reproduces the classic result: revenue above the fair
    share ρ, approaching all blocks as ρ → ½ with γ = 1 (experiment E01).
    Against Π_fruit the same block-level attack erases honest {e blocks}
    but not honest {e fruits} — erased fruits are still buffered by every
    honest node and re-recorded by the next honest block within the recency
    window — so the adversary's share of the fruit ledger stays ≈ ρ
    (experiment E02). The fruitchain variant also censors: its blocks record
    only its own fruits.

    [broadcast_fruits] controls whether the coalition announces its fruits
    (so honest miners record them — individually rational) or hoards them
    for its own blocks only. *)

module Strategy = Fruitchain_sim.Strategy

module type PARAMS = sig
  val gamma : float
  (** Fraction of honest mining power that sees the adversary's branch first
      in a tie race; in [\[0, 1\]]. *)

  val broadcast_fruits : bool

  val lead_stubborn : bool
  (** Nayak et al.'s Lead-stubborn variant: when the honest chain closes to
      one behind, reveal only the matching prefix and race at the tip
      instead of overriding. More aggressive; pays off at high γ. *)

  val equal_fork_stubborn : bool
  (** Equal-fork-stubborn: on winning a block during a tie race, keep it
      private rather than claiming the race immediately. *)
end

module Make (_ : PARAMS) : Strategy.S
