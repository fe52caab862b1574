(** Execution traces: what a run records for the metrics layer.

    The paper's [view] is the joint view of all parties; materializing that
    for 10⁵–10⁶ rounds is pointless, so a trace keeps exactly what the
    security-property metrics (§2.5, §3) consume: the shared block store,
    final per-party heads, periodic height/head snapshots, every mining
    event with provenance, and liveness probe records. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type event = {
  round : int;
  miner : int;
  honest : bool;  (** Honest at mining time (the adversary also mines). *)
  kind : [ `Fruit | `Block ];
  hash : Hash.t;
}

type t

val create : ?scope:Fruitchain_obs.Scope.t -> config:Config.t -> store:Store.t -> unit -> t
(** [?scope] (default {!Fruitchain_obs.Scope.null}) is the fruitscope
    channel of the run: recording functions stream structured events into
    its tracer (one branch when disabled), and {!Observe} harvests the
    run's aggregate counters into its metrics registry. *)

val config : t -> Config.t
val store : t -> Store.t

val scope : t -> Fruitchain_obs.Scope.t
(** The run's observability scope — how adversary strategies reach the
    tracer/metrics without threading another value. *)

val short_hex : Hash.t -> string
(** The first 8 bytes in hex (16 chars) — the entity id used in trace
    events and spans. Renders only those bytes. *)

(** {1 Recording (engine/strategy side)} *)

val record_event : t -> event -> unit
val record_heights : t -> round:int -> int array -> unit
val record_heads : t -> round:int -> Hash.t array -> unit
val record_probe : t -> record:string -> round:int -> unit
val set_final_heads : t -> Hash.t array -> unit
val set_oracle_queries : t -> int -> unit

(** {1 Reading (metrics side)} *)

val events : t -> event list
(** Chronological. Events are held in a growable buffer
    ({!Fruitchain_util.Vec}), so recording is amortized O(1) per event and
    long runs (10⁵–10⁶ events) stay linear. *)

val event_count : t -> int
val iter_events : t -> f:(event -> unit) -> unit
(** Chronological, without materializing the list. *)

val height_snapshots : t -> (int * int array) list
(** Chronological [(round, per-party height)]. Corrupt parties report the
    height of the adversary's public head. *)

val head_snapshots : t -> (int * Hash.t array) list
val probes : t -> (string * int) list
val probe_count : t -> int
val final_heads : t -> Hash.t array

val honest_parties : t -> int list
(** Parties never corrupted during the run (statically or adaptively). *)

val oracle_queries : t -> int

val final_head_of : t -> party:int -> Hash.t

val honest_final_chain : t -> Types.block list
(** The chain of the lowest-indexed honest party at the end of the run —
    the canonical chain on which window metrics (fairness, quality) are
    evaluated. *)
