(** Sampling from standard distributions, on top of {!Rng}.

    These are the distributions the simulator and the experiments need:
    geometric waiting times for mining successes, binomial counts for
    aggregated adversarial queries, exponential inter-arrival times, and a
    shuffle for randomized schedules. *)

val geometric : Rng.t -> float -> int
(** [geometric g p] is the number of failures before the first success in
    i.i.d. Bernoulli(p) trials (support 0, 1, 2, …). Raises [Invalid_argument]
    unless [0 < p <= 1]. Sampled by inversion, O(1). *)

(* fruitlint: allow R12 test_util "binomial edges" and the other binomial cases *)
val binomial : Rng.t -> int -> float -> int
(** [binomial g n p] counts successes in [n] Bernoulli(p) trials. Uses direct
    simulation for small [n·p] and a BTRS-free normal approximation with
    continuity correction (clamped to [\[0, n\]]) once [n·p(1-p) > 100]; the
    approximation error there is far below the simulation noise we measure. *)

val binomial_pos : Rng.t -> int -> float -> int
(** [binomial_pos g n p] samples Binomial(n, p) conditioned on the count
    being at least 1 — the per-round win count of the sparse simulation
    plane, which only visits rounds already known (via the geometric
    round-skip) to contain a win. Sampled by first-success decomposition:
    the index of the first success is a truncated geometric, the remaining
    trials an unconditioned binomial. Requires [n > 0] and [p > 0]. *)

val exponential : Rng.t -> float -> float
(** [exponential g rate] with mean [1/rate]. *)

(* fruitlint: allow R12 test_util "shuffle permutation", "shuffle preserves multiset" *)
val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
