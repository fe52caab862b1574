(** Flight recorder: an always-on ring of recent trace events with a
    dump-on-anomaly hook.

    A recorder keeps the last N rendered events in memory, in slots
    that later events overwrite ({!Tracer.ring}), so recording allocates
    nothing once every slot has held an event and a dump renders nothing. When
    an anomaly fires (κ-violation, scenario diagnostic, engine
    assertion), {!anomaly} writes a post-mortem artifact
    [<prefix><seq>.json] holding the schema tag
    ["fruitchains-flight/1"], the anomaly reason, the buffered events
    (oldest first), and an optional metrics dump. Anomalies are
    processed in unit-index merge order, so the artifact set is
    deterministic at any [--jobs] value. *)

type t

val create : ?capacity:int -> prefix:string -> unit -> t
(** A ring of [capacity] events (default 4096) whose dumps are written to
    [<prefix>NNNN.json]. *)

val fork : t -> t
(** A recorder for one parallel work unit: a ring of [t]'s capacity that
    holds each of its anomaly dumps (the ring at that moment) instead of
    writing it. Fold it back with {!merge}. *)

val record : t -> string -> (string * Json.t) list -> unit
(** Render one event into the ring. *)

val record_line : t -> string -> unit
(** Append one already-rendered JSONL event line to the ring. *)

val anomaly : ?metrics:Metrics.t -> t -> reason:string -> unit
(** Snapshot the ring (plus [metrics], if given) to the next numbered
    dump file; in a {!fork}, hold the snapshot for {!merge}. *)

val merge : ?metrics:Metrics.t -> t -> child:t -> unit
(** Fold a {!fork} back, as if its events had been recorded here: each
    held dump is delivered (written, or held again if [t] is a fork) with
    the newest entries of [t]'s ring in front of it, then the fork's
    final ring is appended to [t]'s. [metrics] is embedded in every dump
    written. *)

val dumps : t -> int
(** Dump files written so far. *)

val last_dump : t -> string option
(** Path of the most recent dump, if any. *)
