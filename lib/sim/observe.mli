(** The engines' single observation module.

    Both simulation planes report what happened through one value of this
    type: the run's {!Trace} plus everything fruitscope derives from it —
    trace lines, lifecycle spans ({!Fruitchain_obs.Span}) and end-of-run
    counters — so the planes cannot drift apart in what they report. The
    [mint] and [probe] lines are the exception: {!Trace.record_event} and
    {!Trace.record_probe} emit them, because strategies record through the
    trace directly.

    With the scope off, the per-inbox and per-round hooks ({!incoming},
    {!schedule}, {!heads}) cost one branch and {!finish} does nothing;
    trace recording ({!minted}, {!fruit_mined}, {!block_mined},
    {!snapshot}) always happens. *)

open Fruitchain_chain
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message

type t

val create : scope:Fruitchain_obs.Scope.t -> config:Config.t -> store:Store.t -> t
(** One per run; creates the run's trace on [scope]. *)

val trace : t -> Trace.t

val start : t -> unit
(** The [run.start] line; the sparse plane adds ["engine":"sparse"]. *)

val schedule : t -> round:int -> unit
(** The [scenario.gossip], [corrupt] and [uncorrupt] lines scheduled at
    [round], in that order. Every scheduled round must be visited. *)

val next_scheduled : t -> int
(** The earliest gossip, corruption or uncorruption round not yet passed
    to {!schedule} ([max_int]: none left). *)

(** {1 Exact plane} *)

val minted : t -> round:int -> miner:int -> Message.t list -> unit
(** An honest miner's outgoing messages: one trace event per fresh fruit
    or single-block announce, then their spans. *)

val incoming : t -> round:int -> Message.t list -> unit
(** One recipient's drained inbox: gossip, delivery and reference marks. *)

val heads : t -> round:int -> (int -> Store.id option) -> unit
(** Head watch over parties [0 .. n-1] ([None]: corrupt): counts
    extensions and switches, records switch depths ([sim.reorg_depth],
    [reorg] lines and spans) and adoption marks. *)

(** {1 Sparse plane} *)

val fruit_mined : t -> Types.fruit -> unit
(** Records the mint; the other parties receive it Δ rounds later. *)

val block_mined : t -> sibling:bool -> Types.block -> unit
(** Records the mint of a stored block; the other n-1 parties receive it
    Δ rounds later. A [sibling] (later same-round winner) is never
    adopted. *)

(** {1 Both planes} *)

val snapshot : t -> round:int -> int array -> Network.t -> unit
(** Per-party heights ([-1]: corrupt) plus the [heights] and [net] lines. *)

val finish :
  t -> network:Network.t -> oracle:Fruitchain_crypto.Oracle.t -> extra:(string * int) list -> unit
(** After the final heads are set: harvests the run's counters (plus the
    plane's [extra] ones), back-fills and closes every span, emits
    [run.end]. *)
