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
    {!candidates} derives it on demand, from the previous F′ where it can.
    Arrivals are one insertion and one counter bump; a block leaving the
    window drops its whole group; a reorg prunes whole groups. Fruits whose
    hang point has dropped below the recency window can never be recorded
    again and are pruned.

    All views passed to one buffer must come from one {!Window_view.Cache}:
    a windowed one ({!Window_view.Cache.create}) when recency is enforced, a
    whole-chain one ({!Window_view.Cache.whole_chain}) when it is not. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val create : ?enforce_recency:bool -> unit -> t
(** [enforce_recency] (default [true]) mirrors {!Params.t.enforce_recency}:
    when off, fruits are never ruled out (or pruned) by pointer age, and
    "not yet recorded" means not recorded anywhere on the chain, which the
    whole-chain views answer. *)

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
    [view] ({!Window_view.stale_pointer}). O(groups). Nothing is stale when
    recency is off. *)

val candidates : t -> view:Window_view.t -> Types.fruit list
(** F′ for [view]: buffered fruits hanging from a block in the window (any
    block when recency is off) and not recorded there (not recorded on the
    chain when recency is off), sorted by reference (a canonical order
    shared by all honest miners).

    The previous F′ is memoized with its view's head. A repeated call with
    the same head and no mutation in between returns it as is. When the
    memo's head is still on [view]'s chain inside its window — after
    extensions, arrivals, expiries, and prunes that kept it — F′ is derived
    from it: the memo's fruits still buffered, recent and unrecorded, the
    fruits buffered since (each group counts its arrivals since the last
    F′ walked it), and the whole groups of the blocks that entered the
    window since. That costs O(window + |memo| + new fruits + their sort). Only a
    cold memo — the first call, a reorg below the memo's head, or a memo
    head that has left the window — walks every fruit hanging in the
    window: O(window + their fruits + |F′| log |F′|).

    With recency off the window is the whole chain and its
    {!Window_view.is_included} is the "already recorded" check over every
    block. Every group is in scope, so O(groups) replaces O(window), and
    the delta applies while the memo's head is on [view]'s chain. *)
