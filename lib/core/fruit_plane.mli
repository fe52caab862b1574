(** The run's fruit plane: every buffered fruit, stored once, with the
    buffers that hold it.

    Figure 1's honest player stores every valid fruit it hears of, so on
    the exact plane nearly every fruit is held by every party. The plane
    keeps each (hang point, fruit) once, as an entry in its hang point's
    group, and a {e slot} — a small int, one per {!Buffer} — marks what
    each buffer holds: per entry, a held bit and a fresh bit per slot; per
    group, how many of its fruits each slot holds and how many of those
    arrived since the slot last walked the group. A group leaves the plane,
    with its entries, when no slot holds a fruit of it.

    Receiving a fruit the plane already holds is one table lookup, two bit
    sets and two counter bumps, and allocates nothing that outlives the
    call. One plane belongs to one {!Window_view.Cache}, which the run
    creates once; it is not shared across domains. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t

val create : unit -> t

val claim : t -> int
(** A slot that holds nothing: the most recently released one, or a new
    one. *)

val release : t -> int -> unit
(** Drops everything the slot holds and hands it back for {!claim}. *)

val add : t -> int -> Types.fruit -> bool
(** Marks the fruit held by the slot, and fresh. [true] if the slot did not
    hold it already; [false] changes nothing. A fruit is identified by its
    pointer and its hash: two fruits with one hash and different pointers
    are two entries. *)

val mem : t -> int -> Types.fruit -> bool

val drop : t -> int -> pointer:Hash.t -> int
(** The slot lets go of every fruit hanging from [pointer]; returns how
    many it held. O(fruits the plane holds there). *)

val prune : t -> int -> stale:(Hash.t -> bool) -> int
(** {!drop} for every hang point the slot holds a fruit of and [stale]
    accepts; returns how many fruits went. O(groups in the plane). *)

val walk :
  t -> int -> pointer:Hash.t -> all:bool -> init:'a -> f:('a -> Types.fruit -> 'a) -> 'a
(** Folds [f] over the slot's fruits hanging from [pointer], newest first:
    all of them, or ([all = false]) only the fresh ones. Either way none of
    them is fresh afterwards. A fresh walk stops at the last fresh fruit,
    and usually finds them first: fruits reach the plane in the order
    slots receive them, give or take the network's delays. *)

val fold_held : t -> int -> all:bool -> init:'a -> f:('a -> Types.fruit -> 'a) -> 'a
(** {!walk} over every hang point the slot holds a fruit of, in an
    unspecified order. *)
