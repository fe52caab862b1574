(** A fruitscope scope: the metrics registry, tracer, and flight
    recorder of one execution context, threaded as a single value
    through instrumented components.

    {!null} is the disabled scope — every instrumented entry point
    defaults to it and pays one branch per instrumentation site.  The
    parallel worker pool forks a child scope per work unit and merges
    children back in unit-index order, which keeps metric dumps, trace
    files, and flight-recorder artifacts byte-identical at any worker
    count (see DESIGN.md §10, §15). *)

type t

val null : t
val make : ?metrics:Metrics.t -> ?tracer:Tracer.t -> ?flight:Flight.t -> unit -> t
val metrics : t -> Metrics.t option

val enabled : t -> bool
(** Whether anything (metrics, tracer, or flight recorder) is attached —
    gate for instrumentation work that is not worth doing into the void. *)

val tracing : t -> bool
(** Whether events are being kept — a tracer or a flight recorder is
    attached — gate before allocating event field lists. *)

val emit : t -> string -> (string * Json.t) list -> unit
(** Emit one event to the tracer (if any) and the flight ring (if any).
    With both attached the line is rendered once, in the tracer's
    buffer, and the ring keeps that string; with the ring alone the ring
    renders it into bytes its slot reuses ({!Tracer.ring}). *)

val anomaly : t -> reason:string -> (string * Json.t) list -> unit
(** Report an anomaly: emits an ["anomaly"] event carrying [reason] plus
    the given fields, and — when a flight recorder is attached — dumps
    the ring and metrics to a post-mortem artifact.  Inside a forked
    child the dump is written at merge time, in unit-index order, so
    artifacts stay jobs-invariant. *)

val incr : ?by:int -> ?golden:bool -> t -> string -> unit
(** Counter bump by name; convenience for cold call sites (hot paths
    should resolve a {!Metrics.counter} once and use {!Metrics.incr}). *)

val set_gauge : ?golden:bool -> t -> string -> float -> unit

val fork : t -> t
(** Child scope for one parallel work unit: a fresh registry, plus a
    buffering tracer if a user tracer is attached, or else a
    {!Flight.fork} of the flight recorder, if any (a bounded ring).
    [fork null] is [null]. *)

val merge_child : t -> child:t -> unit
(** Fold a child back into this scope: metrics merge by addition (gauges
    last-writer-wins), then buffered trace lines append to the parent
    tracer and flight ring, buffered anomaly events triggering flight
    dumps, or a recorder fork is merged into the flight recorder
    ({!Flight.merge}). Apply children in unit-index order; a dump that
    cannot be written raises. *)
