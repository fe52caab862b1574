(** The random oracle [H] of the execution model (§2.3), with the paper's
    query accounting.

    The model charges one [H] query per honest party per round and [q]
    sequential queries per round to an adversary controlling [q] parties,
    while verification queries [H.ver] are free. Accordingly an oracle
    carries a counter that {!query} increments and {!verify} does not; a
    run's trace reads it once, at the end of the run.

    Two instantiations share this interface:

    - {!real} hashes the canonical serialization with our SHA-256 and
      compares the digest views against the difficulty thresholds — the
      protocol as it would be deployed.
    - {!sim} Bernoulli-samples the two mining outcomes with the exact
      marginals [p] (block, on the first κ bits) and [p_f] (fruit, on the
      last κ bits), independently — the 2-for-1 trick of Garay et al. used by
      the paper — and {e encodes} the sampled outcome into the digest views,
      so the unmodified threshold checks, and therefore all unmodified
      validation code, accept exactly the sampled successes. This is what
      makes million-round experiments affordable.

    With [~memo:true] the simulated oracle remembers input→digest bindings,
    so {!verify} behaves like a genuine random oracle table; without it
    {!verify} accepts any previously produced digest shape (structural
    validation still applies), which is sound for the experiments because no
    strategy in this repository forges proofs of work. *)

type t

val real : p:float -> pf:float -> t
(** SHA-256-backed oracle with block hardness [p] and fruit hardness [pf]. *)

val sim : ?memo:bool -> p:float -> pf:float -> Fruitchain_util.Rng.t -> t
(** Sampling oracle; [memo] defaults to [false]. *)

val query : t -> string -> Hash.t
(** One proof-of-work attempt on the given serialized header. Counted. *)

(** {1 Allocation-free attempts}

    [query] materializes a 32-byte digest per attempt, but ~99% of mining
    attempts lose on both difficulties and never look at it. {!attempt}
    performs exactly the same draw (same counters, same randomness, and —
    for any attempt whose digest {e is} materialized — the same digest) but
    returns only the win mask; {!attempt_hash} reconstructs the digest of
    the most recent attempt on demand. The differential suite checks
    attempt-then-materialize against the historical per-query path. *)

val attempt : t -> string -> int
(** One counted proof-of-work attempt; returns a win mask to be read with
    {!attempt_won_block} / {!attempt_won_fruit}. Equivalent to {!query}
    except that the digest is not materialized until {!attempt_hash}. *)

val attempt_won_block : int -> bool
val attempt_won_fruit : int -> bool

val attempt_hash : t -> Hash.t
(** The digest of the most recent {!attempt} (or {!query}) on this oracle.
    Must not be called before the first attempt. *)

val sample_win : t -> block:bool -> fruit:bool -> Fruitchain_util.Rng.t -> Hash.t
(** [sample_win o ~block ~fruit rng] materializes the digest of an attempt
    whose mining outcome is already known — the attribution path of the
    sparse simulation plane, which decides {e how many} attempts won per
    round from the aggregate binomial and only then forges each winner's
    digest. Draws four words from [rng] (never from the oracle's own
    stream) and encodes views that meet exactly the requested difficulties,
    so unmodified validation accepts the forgery iff it should. Win
    counters advance; the query counter does not — aggregate accounting
    goes through {!charge}. A requested win against a zero threshold is
    unencodable and degrades to a loss, mirroring {!attempt}. Simulation
    backend only: raises [Invalid_argument] on a {!real} oracle. *)

val charge : t -> int -> unit
(** [charge o n] adds [n] to the query counter without drawing anything:
    the sparse plane simulates [n·rounds] per-party attempts with O(wins)
    RNG draws, and charges the {e effective} attempt count here so that
    [oracle.queries] means the same thing on both engines. *)

val needs_input : t -> bool
(** Whether the oracle reads its pre-image at all: [true] for the real
    backend and for memoized simulation, [false] for plain simulation —
    in which case callers may pass [""] and skip serializing the header
    they are mining on. It has two readers: [Chain.Mine], which builds a
    mined header before the query only when this holds, and
    [Chain.Validate], which serializes a header for [verify] only when it
    holds. *)

val verify : t -> string -> Hash.t -> bool
(** [H.ver]: does this input evaluate to this digest? Not counted. *)

val queries : t -> int
(** Mining queries since creation. *)

val block_wins : t -> int
(** Queries whose digest met the block difficulty, since creation. Kept as
    a native counter (the observability layer harvests it once per run)
    because [query] is the simulator's hottest call. *)

val fruit_wins : t -> int
(** Queries whose digest met the fruit difficulty, since creation. *)

val mined_block : t -> Hash.t -> bool
(** [mined_block o h]: does [h] meet the block difficulty, the paper's
    [\[h\]_{:κ} < D_p], i.e. is {!Hash.prefix64} below
    {!Hash.threshold}[ p] (unsigned)? *)

val mined_fruit : t -> Hash.t -> bool
(** [mined_fruit o h]: does [h] meet the fruit difficulty
    [\[h\]_{−κ:} < D_{p_f}], on {!Hash.suffix64}? *)
