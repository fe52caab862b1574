(** Incremental view of a chain's recency window.

    Deciding which fruits may go into the next block requires two facts
    about the last [window] blocks of a chain: which block references a
    fruit may legally hang from, and which fruits are already recorded
    there. Recomputing these by scanning the window on every round is what
    makes a naive simulator quadratic. Here a view is a small record over
    the arena {!Store}: its head, its height and a vector of the chain's
    block ids by height, shared by the views of one chain. Its {!Cache}
    keeps one index from each fruit to the blocks that record it, built
    once per block when the block first enters a view. {!is_recent} is a
    store lookup and one vector read; {!is_included} an index lookup and
    one vector read per recording block. Extending a chain by one block
    appends to its vector in place; a fork, or a rebuild after a reorg
    deeper than the window, copies at most the window into a new vector.
    A new view is O(1) amortized.

    A view is immutable and keyed by its head, so all nodes currently on the
    same head share one view through {!Cache}. The cache, made once per
    run, also owns the run's {!Fruit_plane}: every {!Buffer} made from it
    is a slot there, so a fruit that reaches every party is stored once.

    Runs without the recency rule use whole-chain views
    ({!Cache.whole_chain}): their window is the entire chain, so
    {!is_included} answers for every block and nothing ever expires. Their
    forks copy the whole prefix. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val head : t -> Hash.t
val height : t -> int

val enforces_recency : t -> bool
(** [false] for whole-chain views ({!Cache.whole_chain}), whose window is
    the entire chain: fruits may hang from anywhere and never go stale. *)

val expired : t -> Hash.t option
(** The block that left the window when the chain reached this view's head
    — the block at height [height − window] — or [None] while the chain is
    shorter than that, and always for whole-chain views. A view depends on
    its head alone, however it was built, so buffers that follow a chain
    one view at a time see every block leave, exactly once, and can expire
    what hangs from it. *)

val fold_window : t -> init:'a -> f:('a -> Hash.t -> 'a) -> 'a
(** Folds over the references of the blocks in the window — exactly the
    pointers for which {!is_recent} holds — in an unspecified order. *)

val fold_newest : t -> int -> init:'a -> f:('a -> Hash.t -> 'a) -> 'a
(** [fold_newest view k] folds over the references of the newest [k] blocks
    of the window (all of them when [k] exceeds it), in an unspecified
    order. O(k). *)

val is_recent : t -> pointer:Hash.t -> bool
(** May a fruit with this hang pointer still go into the {e next} block of
    this chain? True iff the pointer references one of the last [window]
    blocks (§4.1's recency): heights [max 0 (height − window + 1)] to
    [height], genesis included while the chain is shorter than the window. *)

val is_included : t -> fruit:Hash.t -> bool
(** Is this fruit already recorded within the window? For recency-respecting
    chains this is a complete duplicate test: an in-window hang point forces
    every legal inclusion to be in-window too. A fruit recorded twice on one
    chain stays included while either recording block is in the window. *)

val stale_pointer : store:Store.t -> t -> pointer:Hash.t -> bool
(** [true] when the pointer names a stored block whose height is already
    below the window. Such a fruit can never again be recorded on this chain
    — heights only grow — so buffers may prune it. Never [true] for a
    whole-chain view. *)

module Cache : sig
  type view = t
  type t

  val create : window:int -> store:Store.t -> t
  (** Views of the last [window] blocks: the recency window. *)

  val whole_chain : store:Store.t -> t
  (** Views of the whole chain, for runs that do not enforce recency: every
      block of the chain is in the window, and no block ever leaves it. *)

  val plane : t -> Fruit_plane.t
  (** The run's fruit plane, shared by every {!Buffer} made from this
      cache. *)

  val view : t -> head:Hash.t -> view
  (** The view for any stored head: derived from the nearest cached
      ancestor's view when one exists within [window] steps (at any depth
      for a whole-chain cache), rebuilt from the store otherwise; memoized
      either way, so the same head returns the same view. Raises
      [Not_found] for a head the store does not hold. *)
end
