(** Block, fruit and header types shared by Π_nak and Π_fruit.

    The paper piggybacks fruit mining and block mining on a single oracle
    query (§4.1), so fruits and blocks share one header layout
    [(h_{-1}; h'; η; digest; m)]: a block cares about [h_{-1}] (the chain it
    extends) and [digest] (its fruit-set commitment); a fruit cares about
    [h'] (the stabilized block it hangs from) and [m] (its record). The
    unused fields are, in the paper's words, artifacts of the piggybacking —
    they are still hashed and verified.

    Nakamoto blocks reuse the same layout with [pointer = parent] and an
    empty fruit set, which keeps one codec, one store and one validation core
    for both protocols. *)

module Hash = Fruitchain_crypto.Hash

type header = {
  parent : Hash.t;  (** [h_{-1}]: reference of the previous block. *)
  pointer : Hash.t;  (** [h']: the block this fruit hangs from. *)
  nonce : int64;  (** [η]: the proof-of-work solution. *)
  digest : Hash.t;  (** [d(F)]: commitment to the included fruit set. *)
  record : string;  (** [m]: the record carried by the fruit. *)
}

type provenance = {
  miner : int;  (** Party index that mined this object. *)
  round : int;  (** Round in which it was mined. *)
  honest : bool;  (** Was the miner honest at that round? (Def. 2.2 / 3.1.) *)
}
(** Simulation-only annotation used by the fairness and chain-quality
    metrics. It is not serialized and carries no protocol meaning. *)

type fruit = {
  f_header : header;
  f_hash : Hash.t;  (** [h]: the fruit's reference, [H(header)]. *)
  f_prov : provenance option;
}

type block = {
  b_header : header;
  b_hash : Hash.t;  (** [h]: the block's reference, [H(header)]. *)
  fruits : fruit list;  (** [F]: the fruit set committed to by [digest]. *)
  b_prov : provenance option;
}

val genesis_hash : Hash.t
(** A fixed constant ([SHA-256("fruitchain:genesis")]) so that both oracle
    backends agree on the genesis reference. *)

val genesis : block
(** The genesis block: zero parent/pointer/nonce, empty fruit set. *)

(* fruitlint: allow R12 test_chain "equality by hash" *)
val fruit_equal : fruit -> fruit -> bool
(** Equality by reference hash. *)

val block_equal : block -> block -> bool
