(** Deterministic metrics: named monotone counters, gauges, and
    fixed-bucket integer histograms.

    The determinism contract: a {e golden} instrument (the default) holds
    a value that is a pure function of the work performed, never of the
    schedule — merging per-worker registries in unit-index order
    ({!merge_into}) reproduces exactly what a sequential run accumulates,
    so metric dumps are byte-identical at any worker count.  Histograms
    observe integers because integer addition is associative and
    commutative; float accumulation would leak merge order into the dump.

    Schedule-dependent telemetry (worker utilization, claim overshoot) is
    registered with [~golden:false] and excluded from the default dump. *)

type t
(** A registry. Not thread-safe: one registry per execution context; the
    worker pool forks one per work unit and merges each back, in
    unit-index order, once its unit and every lower-indexed one have
    finished. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?golden:bool -> string -> counter
(** Find-or-create. Raises [Invalid_argument] if the name is already a
    different kind of instrument. *)

val incr : ?by:int -> counter -> unit

val gauge : t -> ?golden:bool -> string -> gauge
val set : gauge -> float -> unit

val histogram : t -> ?golden:bool -> buckets:int array -> string -> histogram
(** [buckets] are strictly increasing inclusive upper bounds; values above
    the last bound land in an implicit overflow bucket. Re-registration
    with different buckets raises [Invalid_argument]. *)

val observe : histogram -> int -> unit

val observe_many : histogram -> int -> count:int -> unit
(** [observe_many h v ~count] is [count] repetitions of [observe h v] in
    O(buckets): the batch-delivery path of the sparse engine records one
    delay for [n-1] recipients at once. [count] must be non-negative. *)

(* fruitlint: allow R12 test_obs "histogram quantile" *)
val histogram_quantile : histogram -> int -> int option
(** Nearest-rank quantile from the bucket counts: the upper bound of the
    bucket holding the q-th percentile observation (q in [0,100]).
    [None] for an empty histogram or a rank in the unbounded overflow
    bucket. Deterministic — dumps stay golden-safe. *)

val get_counter : t -> string -> int option
(** Current value of a counter by name, if registered as one. *)

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst]: counters and histogram buckets add, a gauge
    overwrites iff it was ever set in [src]. Instruments missing from
    [dst] are created with [src]'s golden tag. Raises [Invalid_argument]
    on kind or bucket mismatches. *)

val to_json : ?all:bool -> t -> Json.t
(** Canonical dump: instruments sorted by name, golden-only unless
    [~all:true]. *)

val dump : ?all:bool -> t -> string
(** [Json.to_string (to_json t)] — the byte-compared artifact. *)
