(** The fruit buffer of Figure 1.

    Honest players store every valid fruit they hear of — whether broadcast
    on its own or carried inside a (possibly later abandoned) block — and on
    every block they mine include all buffered fruits that are recent w.r.t.
    their chain and not already recorded in it. Keeping fruits that are
    currently recorded is deliberate: if the recording block is orphaned by
    a reorg, the fruit becomes includable again, which is exactly the
    mechanism by which FruitChain neutralizes block-erasing attacks.

    The buffer stores fruits grouped by hang point and keeps nothing per
    fruit up to date: a player needs F′ only when it mines a block, so
    {!candidates} derives it on demand from the groups the window names.
    Arrivals are one insertion; a block leaving the window drops its whole
    group; a reorg prunes whole groups. Fruits whose hang point has dropped
    below the recency window can never be recorded again and are pruned.

    All views passed to one buffer must come from one window size (one
    {!Window_view.Cache}). *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val create : ?enforce_recency:bool -> unit -> t
(** [enforce_recency] (default [true]) mirrors {!Params.t.enforce_recency}:
    when off, fruits are never ruled out (or pruned) by pointer age, and a
    fruit seen recorded stays out of F′ after its block leaves the window,
    until the next {!prune}. *)

val size : t -> int
(** Fruits currently retained. *)

val mem : t -> Hash.t -> bool

val add : t -> Types.fruit -> unit
(** Insert a fruit into its hang point's group (idempotent). *)

val expire : t -> view:Window_view.t -> unit
(** The owner's chain grew by one block and [view] is the extended view:
    drops every fruit hanging from {!Window_view.expired}, which is stale on
    this chain forever. O(that group). A buffer that follows its chain must
    see each extended view in turn; anything else goes through {!prune}. *)

val prune : t -> store:Store.t -> view:Window_view.t -> unit
(** The reorg path: drops every group whose hang point is stale w.r.t.
    [view] ({!Window_view.stale_pointer}). O(groups). *)

val candidates : t -> view:Window_view.t -> Types.fruit list
(** F′ for [view]: buffered fruits hanging from a block in the window (any
    block when recency is off) and not recorded there, sorted by reference
    (a canonical order shared by all honest miners). Computed from the
    window's groups in O(window + their fruits + |F′| log |F′|); a
    repeated call with the same head and no mutation in between returns
    the memoized list. *)
