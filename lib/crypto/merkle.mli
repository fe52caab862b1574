(** Merkle trees over byte strings.

    Instantiates the paper's collision-resistant digest [d(·)] over fruit
    sets: a block commits to its fruit set by storing the Merkle root of the
    fruits' canonical serializations. Leaves and interior nodes are
    domain-separated (prefix bytes [0x00] / [0x01]) so that a leaf can never
    be reinterpreted as an interior node — the classic second-preimage
    defence. The empty set digests to a distinguished constant. *)

val empty_root : Hash.t
(** Digest of the empty leaf sequence, [SHA-256("fruitchain:merkle:empty")]. *)

val root : string list -> Hash.t
(** [root leaves] is the Merkle root of [leaves] in order. A level with an
    odd number of nodes promotes its last node unchanged (no duplication, so
    the CVE-2012-2459-style ambiguity does not arise). *)

type proof = (Hash.t * [ `Left | `Right ]) list
(** An inclusion proof: sibling hashes from leaf to root, each tagged with
    the side on which the sibling sits. *)

val proof : string list -> int -> proof
(** [proof leaves i] proves inclusion of element [i]. Raises
    [Invalid_argument] if [i] is out of range. *)

val verify_proof : root:Hash.t -> leaf:string -> proof -> bool
