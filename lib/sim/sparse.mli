(** The sparse event-driven simulation plane.

    The exact engine ({!Engine.run}) charges one oracle attempt per party
    per round — O(n·rounds) work that caps experiments near n ≈ 10³. This
    plane simulates the same mining process in aggregate: per round the
    number of block (resp. fruit) wins is a Binomial(Q, p) draw over the
    total query budget Q, rounds containing no win are skipped with a
    geometric gap draw (never landing past a win round), and each win is
    attributed to a party through an alias table
    ({!Fruitchain_util.Alias}) in O(1). Every party makes one query per
    round (the paper's model), so Q is n and the table is uniform; it is
    built once. Work and randomness are O(wins + schedule events),
    independent of n except for attribution.

    The price is strategic fidelity: every party mines the single
    converged canonical chain (the exact plane's honest-coalition
    behaviour), so withholding/selfish strategies, network partitions and
    gossip relaying have no effect here — DESIGN.md §14 gives the
    equivalence argument and the full list of legitimate divergences. The
    statistical suite ([test/test_sparse_differential.ml]) holds the two
    planes to the same marginals.

    Determinism: all draws come from streams {!Fruitchain_util.Rng.derive}d
    from the config seed (scheduler, attribution, digest forging), so runs
    are byte-identical at any jobs count and unchanged by observation,
    like the exact plane. *)

val run :
  config:Config.t -> ?max_skip:int -> ?scope:Fruitchain_obs.Scope.t -> unit -> Trace.t
(** Runs the configured execution on the sparse plane. Corruption is read
    off the config; the exact plane's workload, delivery policy and round
    hook have no counterpart here ({!Engine.run} rejects them).

    [max_skip] caps how far ahead the engine may jump (default:
    unlimited). Because skipped rounds consume no randomness and mutate no
    state, any cap — including 1, i.e. visiting every round — produces a
    byte-identical trace; the determinism suite pins this.

    [oracle.queries] reports the {e effective} simulated attempts
    (n · rounds), not RNG draws, so fruitscope dumps stay comparable with
    the exact engine. *)
