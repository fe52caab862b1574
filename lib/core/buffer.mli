(** The fruit buffer of Figure 1.

    Honest players store every valid fruit they hear of — whether broadcast
    on its own or carried inside a (possibly later abandoned) block — and on
    every block they mine include all buffered fruits that are recent w.r.t.
    their chain and not already recorded in it. Keeping fruits that are
    currently recorded is deliberate: if the recording block is orphaned by
    a reorg, the fruit becomes includable again, which is exactly the
    mechanism by which FruitChain neutralizes block-erasing attacks.

    The buffer keeps nothing per fruit up to date: a player needs F′ only
    when it mines a block, so {!candidates} derives it on demand, from the
    previous F′ where it can. Fruits whose hang point has dropped below the
    recency window can never be recorded again and are pruned.

    {b One copy per run.} On the exact plane every fruit reaches nearly
    every party, so n buffers would keep n copies of it. A buffer is
    instead a slot of its cache's {!Fruit_plane}
    ({!Window_view.Cache.plane}), which stores each fruit once, grouped by
    hang point, with a held and a fresh bit per buffer. An arrival of a
    fruit the plane already holds is one table lookup, two bit sets and two
    counter bumps; a block leaving the window clears the buffer's bits on
    its group (the last holder takes the group out of the plane); a reorg
    does the same for every group whose pointer is stale.

    {b Identity.} A fruit is identified by its hash within its hang point:
    two fruits with one hash and different pointers would both be kept. A
    fruit's hash commits to its header, pointer included — the real and
    memoizing oracles check that binding, and the sampling oracle's hashes
    are 256-bit draws — so for every fruit the simulator makes this is the
    same as identity by hash.

    {b Recency} is the view's: a buffer fed windowed views
    ({!Window_view.Cache.create}) enforces it, one fed whole-chain views
    ({!Window_view.Cache.whole_chain}) does not
    ({!Window_view.enforces_recency}). *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val create : Window_view.Cache.t -> t
(** An empty buffer on a slot of the cache's fruit plane; every view passed
    to it must come from this cache. Without recency (whole-chain views)
    fruits are never ruled out, expired or pruned by pointer age, and "not
    yet recorded" means not recorded anywhere on the chain, which those
    views answer. *)

val release : t -> unit
(** Drops every fruit and hands the slot back to the plane, for the next
    {!create}; the buffer must not be used again. *)

val size : t -> int
(** Fruits currently retained. O(1). *)

(* fruitlint: allow R12 test_differential "hang-point buffer = eager candidate set" *)
val mem : t -> Types.fruit -> bool
(** Whether the fruit is retained: one lookup in the plane. *)

val add : t -> Types.fruit -> bool
(** Retain a fruit. Returns [true] if it was new, [false] (and changes
    nothing) if it was already retained; one lookup in the plane either
    way, so callers test membership through it. *)

val expire : t -> view:Window_view.t -> unit
(** The owner's chain grew by one block and [view] is the extended view:
    drops every fruit hanging from {!Window_view.expired}, which is stale on
    this chain forever. O(fruits the plane holds there). A buffer that
    follows its chain must see each extended view in turn; anything else
    goes through {!prune}. *)

val prune : t -> store:Store.t -> view:Window_view.t -> unit
(** The reorg path: drops every group whose hang point is stale w.r.t.
    [view] ({!Window_view.stale_pointer}). O(groups in the plane). Nothing
    is stale in a whole-chain view. *)

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
    fruits buffered since (the plane marks them fresh, and counts them per
    group, until an F′ walks their group), and the whole groups of the
    blocks that entered the window since. That costs O(window + |memo| + new fruits + their sort). Only a
    cold memo — the first call, a reorg below the memo's head, or a memo
    head that has left the window — walks every fruit hanging in the
    window: O(window + their fruits + |F′| log |F′|).

    With recency off the window is the whole chain and its
    {!Window_view.is_included} is the "already recorded" check over every
    block. Every group is in scope, so O(groups) replaces O(window), and
    the delta applies while the memo's head is on [view]'s chain. *)
