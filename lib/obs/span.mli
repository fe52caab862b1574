(** Causal lifecycle spans (fruittrace).

    A span tracker follows entities — fruits, blocks, reorgs — through
    their lifecycle phases, timestamped in {e logical rounds} so that
    span-bearing traces stay byte-identical at any [--jobs] value.
    Entities are keyed by opaque string ids (the simulator passes raw
    digests, and the tables hash a key by its leading eight bytes), one
    namespace per entity kind: one oracle query can win
    both difficulties, and the fruit and the block it yields share a
    digest but are two spans. The id a trace line shows is rendered from
    the key when the span opens and again when it closes, so phase marks
    only look the key up.
    Each phase mark carries its own round, so both the exact per-message
    engine and the sparse batch engine can feed the same tracker and
    emit the same schema.

    Emission: [span.open] once per fruit/block at its mint round;
    [span.close] per span — fruits and blocks on {!close_all} (in open
    order), reorgs immediately from {!reorg}. Phase marks use
    min-semantics (an earlier round wins) and silently drop ids that
    were never opened. *)

type t

val create : scope:Scope.t -> render:(string -> string) -> unit -> t
(** [render id] is the id a span's trace lines show, computed at the
    span's open and again at its close. *)

val fruit : t -> id:string -> round:int -> miner:int -> honest:bool -> unit
(** Open a fruit span at its mined round; idempotent per id. *)

val block :
  t -> id:string -> round:int -> miner:int -> honest:bool -> height:int -> bool
(** Open a block span at its mint round ([height] may be [-1] until
    known); idempotent per id. [true] iff this call opened the span: the
    caller's first sighting of the block, the one time its fruits need
    marking. *)

val fruit_gossiped :
  t -> id:string -> mined:int -> miner:int -> honest:bool -> round:int -> unit
(** First round any party other than the miner received the fruit. The
    fruit's span is opened first if it has none, as by {!fruit} with
    [~round:mined]: one lookup for a fruit already open. *)

val fruit_referenced : t -> id:string -> round:int -> unit
(** Mint round of the first block referencing the fruit. *)

val fruit_stable : t -> id:string -> round:int -> unit
(** Round the referencing block got buried κ deep in the final chain. *)

val block_delivered : t -> id:string -> round:int -> count:int -> unit
(** [count] per-recipient deliveries of the block at [round] (relays
    included); updates first/last-seen rounds and the delivery total. *)

val block_adopted : t -> id:string -> round:int -> unit
(** First round any party's head chain adopted the block. *)

val block_height : t -> id:string -> height:int -> unit
(** Late height fill-in for spans opened with [height = -1]; a known
    height is never overwritten. *)

val reorg : t -> party:int -> round:int -> depth:int -> duration:int -> unit
(** Emit an instantaneous reorg span: [party] switched away from a head
    it had held for [duration] rounds, abandoning [depth] blocks. *)

val close_all : t -> unit
(** Emit [span.close] for every open fruit/block span, in open order,
    and reset the tracker. *)
