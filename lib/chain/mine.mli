(** The one mining step of Figure 1, shared by every miner: the honest
    Π_fruit node, the Π_nak node and the adversary's coalition.

    A step is one counted 2-for-1 oracle query over the header
    [(h_{-1}; h'; η; d(F'); m)]. The first κ bits of the digest decide a
    block, the last κ bits a fruit, and one query can win both. The step
    draws the nonce η, makes the query and, on a win, returns the fruit
    and/or the block with their provenance. It touches no store, buffer or
    trace: each caller applies its own side effects to what it gets back.

    Whether the header exists before the query is decided by
    {!Fruitchain_crypto.Oracle.needs_input}:
    - an oracle that reads its pre-image (SHA-256, or a memoizing sampler
      whose [verify] must later accept the header) is queried on the full
      serialized header, with d(F') committed first, as in Figure 1;
    - a memo-less sampler ignores its pre-image, so the header is built
      only on a win, and F' with its Merkle digest only on a block win.
      A lone fruit's header then commits to the empty fruit set, which
      nothing checks (only a block's digest is checked against its
      fruits). A losing attempt allocates nothing.

    Both paths make the same draws in the same order. *)

open Types
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng

type mined = { fruit : fruit option; block : block option }
(** Both set when one query won both proofs of work. *)

val mine :
  Oracle.t -> Rng.t -> miner:int -> round:int -> honest:bool -> parent:Hash.t ->
  pointer:Hash.t -> fruits:(unit -> fruit list) -> record:string -> mined
(** One step for party [miner] at [round], extending [parent] and hanging
    its fruit from [pointer] (h′, see {!pointer}). The nonce comes from
    [rng], which must not be the oracle's own generator. [fruits] yields
    F′; it is called at most once, and must return the same set whether it
    is called before or after the query. Objects are stamped with
    provenance [(miner, round, honest)]. *)

val pointer : Store.t -> head:Store.id -> depth:int -> Hash.t
(** h′ for a miner whose chain ends at [head]: the block [depth] (κ)
    below it, or genesis while the chain is shorter than that. *)

val header :
  parent:Hash.t -> pointer:Hash.t -> nonce:int64 -> fruits:fruit list -> record:string -> header
(** The header of a mined object, committing to [fruits] through their
    digest d(F). *)

val won :
  header -> hash:Hash.t -> fruits:fruit list -> provenance -> won_fruit:bool ->
  won_block:bool -> mined
(** The objects a won query over [header] yields: the fruit, the block
    recording [fruits] (those [header] commits to), or both. The sparse
    plane builds its forged winners through this and {!header}. *)
