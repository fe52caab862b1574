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
    Arrivals are one group lookup, a membership test inside that group and
    one counter bump; a block leaving the window drops its whole group in
    O(1); a reorg prunes whole groups. Fruits whose hang point has dropped
    below the recency window can never be recorded again and are pruned.

    {b Membership is decided per group.} There is no buffer-wide set of
    fruits: a fruit is looked up in its hang point's group, which {!add}
    finds anyway. A group holds about p_f/p fruits. While it holds at most
    {!scan_limit} of them, a membership test scans it; the arrival that
    takes it past the limit builds a table of the group's hashes once, and
    every later arrival updates it. Only the group's size selects the path;
    nothing configures it. Scanning alone makes each arrival linear in its
    group, which at q in the hundreds (E07, E14) made whole experiments
    about 5× slower; a table on every group costs memory in each of the
    n − 1 buffers that keep a copy of every fruit.

    {b Identity.} A fruit is identified by its hash within its hang point:
    two fruits with one hash and different pointers would both be kept. A
    fruit's hash commits to its header, pointer included — the real and
    memoizing oracles check that binding, and the sampling oracle's hashes
    are 256-bit draws — so for every fruit the simulator makes this is the
    same as identity by hash.

    {b Recency} is the view's: a buffer fed windowed views
    ({!Window_view.Cache.create}) enforces it, one fed whole-chain views
    ({!Window_view.Cache.whole_chain}) does not
    ({!Window_view.enforces_recency}). All views passed to one buffer must
    come from one {!Window_view.Cache}. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val create : unit -> t
(** An empty buffer. Without recency (whole-chain views) fruits are never
    ruled out, expired or pruned by pointer age, and "not yet recorded"
    means not recorded anywhere on the chain, which those views answer. *)

(* fruitlint: allow R12 test_core "relays once past the scan limit" *)
val scan_limit : int
(** The group size past which a group's membership goes through its own
    table instead of a scan: 64, a constant. *)

val size : t -> int
(** Fruits currently retained. O(1). *)

(* fruitlint: allow R12 test_differential "hang-point buffer = eager candidate set" *)
val mem : t -> Types.fruit -> bool
(** Whether the fruit is retained: a lookup of its hang point's group and a
    membership test inside it. *)

val add : t -> Types.fruit -> bool
(** Insert a fruit into its hang point's group. Returns [true] if it was
    new, [false] (and changes nothing) if it was already retained; one
    group lookup either way, so callers test membership through it. *)

val expire : t -> view:Window_view.t -> unit
(** The owner's chain grew by one block and [view] is the extended view:
    drops every fruit hanging from {!Window_view.expired}, which is stale on
    this chain forever. O(1). A buffer that follows its chain must
    see each extended view in turn; anything else goes through {!prune}. *)

val prune : t -> store:Store.t -> view:Window_view.t -> unit
(** The reorg path: drops every group whose hang point is stale w.r.t.
    [view] ({!Window_view.stale_pointer}). O(groups). Nothing is stale in a
    whole-chain view. *)

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
