(** Low-overhead structured event sink (JSONL).

    Events are single-line JSON objects [{"ev":<name>,...fields}]. Every
    tracer records: disabled is a scope without one ({!Scope.null}), and
    hot call sites test for that before building field lists, so none are
    allocated when tracing is off. *)

type t

val to_file : string -> t
(** [to_channel (open_out path)]. *)

val ring : int -> t
(** Keep the most recent [n] lines in memory, in slots that later lines
    overwrite: an appended line is kept as given, an emitted one is
    rendered into bytes its slot reuses. Read with {!lines} or
    {!latest}. *)

val buffer : unit -> t
(** Keep every event in memory — the fork/join vehicle for parallel work
    units ({!Scope.fork}); the pool flushes buffers in unit-index order. *)

val emitted : t -> int
(** Events accepted so far (lines dropped by a full ring still count). *)

val emit : t -> string -> (string * Json.t) list -> unit
(** [emit t name fields] appends [{"ev":name, ...fields}]. *)

val render : t -> string -> (string * Json.t) list -> string
(** The line {!emit} would append, rendered in the tracer's own scratch
    buffer; it is not appended. *)

val append_line : t -> string -> unit
(** Append an already-rendered line (no trailing newline) — used when
    merging a child buffer into a parent sink. *)

val lines : t -> string list
(** Contents of a ring or buffer sink, oldest first; [[]] for a channel
    sink. *)

val latest : t -> int -> string array
(** The [k] most recent lines of a ring (all of them if it holds fewer),
    oldest first; [[||]] for the other sinks. *)

val close : t -> unit
(** Flush and close a channel sink; idempotent, no-op for the others. *)
