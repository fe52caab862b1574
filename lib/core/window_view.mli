(** Incremental view of a chain's recency window.

    Deciding which fruits may go into the next block requires two facts
    about the last [window] blocks of a chain: which block references a
    fruit may legally hang from, and which fruits are already recorded
    there. Recomputing these by scanning the window on every round is what
    makes a naive simulator quadratic; this module maintains them as
    persistent maps derived in O((1 + |fruits|)·log window) when a chain is
    extended by one block, with a from-scratch rebuild only on reorgs.

    A view is immutable and keyed by its head, so all nodes currently on the
    same head share one view through {!Cache}.

    Runs without the recency rule use whole-chain views
    ({!Cache.whole_chain}): their window is the entire chain, so
    {!is_included} answers for every block and nothing ever expires. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val genesis : t
(** The view of the genesis-only chain. *)

val head : t -> Hash.t
val height : t -> int

val expired : t -> (Hash.t * Hash.t list) option
(** The block that fell out of the window when this view was made — its
    reference and the references of the fruits it records — or [None] while
    the chain is still shorter than the window. A view rebuilt by
    {!of_chain} reports the same block as one derived by {!extend}, so
    buffers that follow a chain one view at a time see every block leave,
    exactly once, and can expire what hangs from it. *)

val fold_window : t -> init:'a -> f:('a -> Hash.t -> 'a) -> 'a
(** Folds over the references of the blocks in the window — exactly the
    pointers for which {!is_recent} holds — in an unspecified order. *)

val fold_newest : t -> int -> init:'a -> f:('a -> Hash.t -> 'a) -> 'a
(** [fold_newest view k] folds over the references of the newest [k] blocks
    of the window (all of them when [k] exceeds it), in an unspecified
    order. O(k) at best, O(window) at worst. *)

val extend : window:int -> t -> Types.block -> t
(** [extend ~window view block] where [block.parent] is the view's head.
    Raises [Invalid_argument] otherwise. Entries that fall below the window
    are expired. *)

val of_chain : window:int -> store:Store.t -> head:Hash.t -> t
(** Rebuild by scanning the last [window] blocks — the reorg path. *)

val is_recent : t -> pointer:Hash.t -> bool
(** May a fruit with this hang pointer still go into the {e next} block of
    this chain? True iff the pointer references one of the last [window]
    blocks (§4.1's recency). *)

val is_included : t -> fruit:Hash.t -> bool
(** Is this fruit already recorded within the window? For recency-respecting
    chains this is a complete duplicate test: an in-window hang point forces
    every legal inclusion to be in-window too. *)

val stale_pointer : store:Store.t -> t -> pointer:Hash.t -> bool
(** [true] when the pointer names a stored block whose height is already
    below the window. Such a fruit can never again be recorded on this chain
    — heights only grow — so buffers may prune it. *)

module Cache : sig
  type view = t
  type t

  val create : window:int -> store:Store.t -> t
  (** Views of the last [window] blocks: the recency window. *)

  val whole_chain : store:Store.t -> t
  (** Views of the whole chain, for runs that do not enforce recency: every
      block of the chain is in the window, and no block ever leaves it. *)

  val view : t -> head:Hash.t -> view
  (** The view for any stored head: derived from the nearest cached
      ancestor's view when one exists within [window] steps (at any depth
      for a whole-chain cache), rebuilt by scanning otherwise; memoized
      either way. *)
end
