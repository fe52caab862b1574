(** Configuration of one protocol execution (the (n, ρ, Δ)-respecting
    environment of §2.1, plus protocol and measurement parameters). *)

module Params = Fruitchain_core.Params

type protocol = Nakamoto | Fruitchain

type engine = Exact | Sparse
(** Which simulation plane executes the run. [Exact] is the reference
    per-party-per-query engine ({!Engine.run}'s historical behaviour);
    [Sparse] is the aggregate-sampling event-driven plane ([Sparse.run]):
    per round the number of wins is drawn binomially from the total query
    budget, empty rounds are skipped geometrically, and each win is
    attributed through a hash-power alias table. Statistically equivalent
    for honest-majority throughput/fairness measurements (see DESIGN.md
    §14 for the argument and the known divergences), and the only way to
    reach n ≈ 10⁵ parties. *)

(** Private: only {!make} builds one, so every record has passed its checks
    and its schedules are sorted, which the exact engine's schedule cursors
    rely on. *)
type t = private {
  protocol : protocol;
  engine : engine;  (** Simulation plane; default [Exact]. *)
  n : int;  (** Number of parties activated by Z. *)
  rho : float;  (** Fraction of parties controlled by the adversary. *)
  delta : int;  (** Network delay bound Δ (≥ 1). *)
  rounds : int;  (** Execution length |view|. *)
  seed : int64;  (** Master seed; everything else derives from it. *)
  params : Params.t;
      (** p, p_f, κ, R (and recency enforcement). Π_nak uses only p and κ. *)
  corruption_schedule : (int * int) list;
      (** Adaptive corruption (§2.1): [(round, party)] pairs at which Z
          hands an initially-honest party to the adversary. Sorted, at most
          one entry per party; statically corrupt parties may not appear.
          From its corruption round on, the party stops executing the
          honest protocol and its query joins the adversary's budget. *)
  uncorruption_schedule : (int * int) list;
      (** §2.1 uncorruption: at the given round, a corrupted party is
          released by the adversary and re-spawns as a fresh honest node
          (re-initialized state, per the paper). Must follow the party's
          corruption. *)
  gossip : bool;
      (** Honest nodes relay unseen fruits and adopted chains (footnote 2);
          default off — the standard model already delivers every broadcast
          to everyone within Δ. *)
  gossip_schedule : (int * bool) list;
      (** Scenario [gossip_toggle] events: [(round, on)] pairs at which the
          engine flips relaying on every live honest node (and on nodes
          spawned later by uncorruption). Sorted; at most one toggle per
          round. No-op under Π_nak, whose nodes do not relay. *)
  snapshot_interval : int;
      (** Record per-party chain heights (growth metric) every this many
          rounds. *)
  head_snapshot_interval : int;
      (** Record full per-party heads (consistency metric) every this many
          rounds — dearer, so less frequent. *)
  probe_interval : int;
      (** Inject a traced liveness probe record every this many rounds;
          [0] disables probes. *)
}

val corrupt_count : t -> int
(** ⌊ρ·n⌋ — the adversary's per-round sequential query budget [q]. *)

val is_corrupt : t -> int -> bool
(** Statically corrupt (from round 0): the last {!corrupt_count} indices. *)

val is_corrupt_at : t -> round:int -> int -> bool
val is_ever_corrupt : t -> int -> bool

val corrupt_count_at : t -> round:int -> int
(** The adversary's query budget q at the given round. *)

val make :
  ?protocol:protocol -> ?engine:engine -> ?n:int -> ?rho:float -> ?delta:int -> ?rounds:int ->
  ?seed:int64 -> ?corruption_schedule:(int * int) list ->
  ?uncorruption_schedule:(int * int) list -> ?gossip:bool ->
  ?gossip_schedule:(int * bool) list ->
  ?snapshot_interval:int ->
  ?head_snapshot_interval:int -> ?probe_interval:int -> params:Params.t -> unit -> t
(** Defaults: Fruitchain, n = 40, ρ = 0, Δ = 2, 50_000 rounds, seed 1,
    snapshots every 50 rounds, head snapshots every 500, probes off. Raises [Invalid_argument] on inconsistent values
    (ρ ∉ [0, 1), n ≤ 0, Δ < 1, rounds ≤ 0). *)

val pp : Format.formatter -> t -> unit
