(** The record of one run, and the one module that observes it.

    The paper's [view] is the joint view of all parties; materializing that
    for 10⁵–10⁶ rounds is pointless, so a trace keeps exactly what the
    security-property metrics (§2.5, §3) consume: the shared block store,
    final per-party heads, periodic height/head snapshots, every mining
    event with provenance, and liveness probe records.

    Both simulation planes report through one value of this type, and it
    alone turns what they report into records, trace lines, lifecycle
    spans ({!Fruitchain_obs.Span}) and end-of-run counters, so the planes
    cannot drift apart in what they report. The engines state protocol
    facts — a mint, a drained inbox, the head of party [i] — and the trace
    keeps the measurement cadence: probe injection, height and head
    snapshots, the final heads. Strategies report through it as well
    ({!record_event}, {!adversary}).

    With the scope off, the per-inbox and per-round hooks ({!incoming},
    {!heads}, the lines of {!round_start}) cost one branch and {!finish}
    only sets the final heads and the query count; the records themselves
    are always kept. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message

type event = {
  round : int;
  miner : int;
  honest : bool;  (** Honest at mining time (the adversary also mines). *)
  kind : [ `Fruit | `Block ];
  hash : Hash.t;
}

type t

val create : ?scope:Fruitchain_obs.Scope.t -> config:Config.t -> store:Store.t -> unit -> t
(** One per run. [?scope] (default {!Fruitchain_obs.Scope.null}) is the
    fruitscope channel of the run: the trace streams its lines into the
    scope's tracer and harvests the run's counters into its metrics
    registry. *)

val config : t -> Config.t
val store : t -> Store.t

val scope : t -> Fruitchain_obs.Scope.t
(** The run's observability scope, for anomalies raised about the run. *)

(** {1 Run cadence (both planes)} *)

val start : t -> unit
(** The [run.start] line; the sparse plane adds ["engine":"sparse"]. *)

val round_start : t -> round:int -> unit
(** At the top of a round, after its scheduled state changes: the
    [scenario.gossip], [corrupt] and [uncorrupt] lines scheduled at
    [round], in that order; then, on a probe round, the probe's record and
    its [probe] line. Every round {!next_visit} names must be visited. *)

val record : t -> string -> string
(** [record t base] is what an honest party offers its mining attempt:
    the workload's [base], or when that is empty the latest probe's record
    (a submitted transaction stays on offer until the next probe replaces
    it; [""] before the first probe). *)

val next_visit : t -> after:int -> int
(** The earliest snapshot, head-snapshot, probe, gossip, corruption or
    uncorruption round after [after]. *)

val measure : t -> round:int -> (int -> Store.id option) -> Network.t -> unit
(** [measure t ~round head network], after the round's mining: on a
    snapshot round, every party's height ([-1] where [head i] is [None],
    i.e. corrupt) plus the [heights] and [net] lines; on a head-snapshot
    round, every party's head (genesis for a corrupt party). *)

val finish :
  t -> (int -> Store.id option) -> network:Network.t -> oracle:Fruitchain_crypto.Oracle.t ->
  extra:(string * int) list -> unit
(** Sets the final heads from [head] (genesis for a corrupt party) and the
    query count from [oracle]; then harvests the run's counters (plus the
    plane's [extra] ones), back-fills and closes every span, and emits
    [run.end]. *)

(** {1 Mints and decisions} *)

val record_event : t -> event -> unit
(** One mint and its [mint] line. *)

val adversary :
  t -> round:int -> string -> counters:(string * int) list ->
  (string * Fruitchain_obs.Json.t) list -> unit
(** [adversary t ~round name ~counters fields]: a strategy's decision.
    Bumps each counter by its amount and emits the line [name] with
    [round] and [fields]. *)

(** {2 Exact plane} *)

val minted : t -> round:int -> miner:int -> Message.t list -> unit
(** An honest miner's outgoing messages: one event per fresh fruit or
    single-block announce, then their spans. *)

val incoming : t -> round:int -> Message.t list -> unit
(** One recipient's drained inbox: gossip, delivery and reference marks. *)

val heads : t -> round:int -> (int -> Store.id option) -> unit
(** Head watch over parties [0 .. n-1] ([None]: corrupt): counts
    extensions and switches, records switch depths ([sim.reorg_depth],
    [reorg] lines and spans) and adoption marks. *)

(** {2 Sparse plane} *)

val fruit_mined : t -> Types.fruit -> unit
(** Records the mint; the other parties receive it Δ rounds later. *)

val block_mined : t -> sibling:bool -> Types.block -> unit
(** Records the mint of a stored block; the other n-1 parties receive it
    Δ rounds later. A [sibling] (later same-round winner) is never
    adopted. *)

(** {2 Direct recording}

    For a loop that keeps its own cadence instead of {!measure} and
    {!finish}. *)

val record_heights : t -> round:int -> int array -> unit
val record_heads : t -> round:int -> Hash.t array -> unit
val set_final_heads : t -> Hash.t array -> unit
val set_oracle_queries : t -> int -> unit

(** {1 Reading (metrics side)} *)

val events : t -> event list
(** Chronological. Events are held in a growable buffer
    ({!Fruitchain_util.Vec}), so recording is amortized O(1) per event and
    long runs (10⁵–10⁶ events) stay linear. *)

(* fruitlint: allow R12 test_differential "first-sighting span marks" (Ref_observe), test_obs *)
val event_count : t -> int
val iter_events : t -> f:(event -> unit) -> unit
(** Chronological, without materializing the list. *)

val height_snapshots : t -> (int * int array) list
(** Chronological [(round, per-party height)]. A party corrupt at the
    snapshot round reports [-1]. *)

val head_snapshots : t -> (int * Hash.t array) list
(** Chronological [(round, per-party head)]. A party corrupt at the
    snapshot round reports genesis. *)

val probes : t -> (string * int) list
val final_heads : t -> Hash.t array

val honest_parties : t -> int list
(** Parties never corrupted during the run (statically or adaptively). *)

val oracle_queries : t -> int

val final_head_of : t -> party:int -> Hash.t

val honest_final_chain : t -> Types.block list
(** The chain of the lowest-indexed honest party at the end of the run —
    the canonical chain on which window metrics (fairness, quality) are
    evaluated. *)
