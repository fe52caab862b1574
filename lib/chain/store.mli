(** A hash-indexed block store over the whole block tree.

    Every party in a simulation shares one store (the adversary sees all
    messages anyway); a party's "chain" is just a head reference plus the
    store's parent links, so adopting a longer chain is O(1) and reorgs never
    copy blocks. Heights are memoized on insertion (genesis has height 0, so
    a chain's height equals the paper's |chain| − 1). *)

open Types
module Hash = Fruitchain_crypto.Hash

type t

type id
(** Dense arena index of a stored block. Ids are assigned at insertion and
    never change; protocol messages still name blocks by hash, but once a
    hash is resolved (once, at a message boundary) every traversal —
    ancestor walks, common-prefix meets, height reads — is index arithmetic.
    The representation is deliberately abstract: an id is only meaningful
    against the store that issued it. *)

val genesis_id : id
(** The id of {!Types.genesis} in every store. *)

val id_equal : id -> id -> bool

val id : t -> Hash.t -> id
(** Raises [Not_found] for unknown hashes. *)

val find_id : t -> Hash.t -> id option

val block_at : t -> id -> block
val hash_at : t -> id -> Hash.t
val height_at : t -> id -> int

val parent_id : t -> id -> id
(** Genesis is its own parent, so ancestor walks can terminate on a height
    test alone. *)

val ancestor_id_at_height : t -> head:id -> height:int -> id option
(** [None] iff [height] is negative or above the head's height. *)

val common_prefix_height_id : t -> id -> id -> int

val to_list_id : t -> head:id -> block list
(** The chain from genesis (inclusive, first) to [head] (last).  Total:
    ids are valid by construction, so resolved callers (validation,
    extraction) can list chains without a raising hash lookup. *)

val hang_positions_id : t -> head:id -> window:int -> int Hash.Tbl.t
(** Maps the reference of each of the last [window] blocks of the chain at
    [head] (and genesis when in range) to its height; a fruit is
    {e recent} w.r.t. [head] iff its pointer is a key (§4.1). *)

val create : unit -> t
(** A store containing only {!Types.genesis}. *)

val add : t -> block -> unit
(** Inserts a block whose parent is already present; raises
    [Invalid_argument] otherwise (the network layer guarantees parents are
    delivered first, and tests exercise the failure). Re-inserting an
    existing hash is a no-op. *)

val add_id : t -> block -> id
(** [add] returning the inserted (or already-present) block's id. *)

val mem : t -> Hash.t -> bool
val find_exn : t -> Hash.t -> block
val height : t -> Hash.t -> int
(** Raises [Not_found] for unknown hashes. *)

val to_list : t -> head:Hash.t -> block list
(** The chain from genesis (inclusive, first) to [head] (last). *)

(* fruitlint: allow R12 test_store's five "last_n/to_list" edge cases, test_chain "last_n" *)
val last_n : t -> head:Hash.t -> int -> block list
(** The at-most-[n] trailing blocks of the chain ending at [head], oldest
    first. [last_n t ~head n] with [n] ≥ chain length returns the full
    chain; [n] ≤ 0 returns [[]]. *)

val common_prefix_height : t -> Hash.t -> Hash.t -> int
(** Height of the deepest common ancestor of two heads — the paper's common
    prefix measure. Genesis guarantees the result is ≥ 0. *)
