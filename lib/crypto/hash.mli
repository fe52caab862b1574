(** 256-bit digests and the difficulty tests of the FruitChain paper.

    The paper's proof-of-work checks are threshold comparisons on the hash
    output: a {e block} is mined when the first κ bits are below [D_p], a
    {e fruit} when the last κ bits are below [D_{p_f}] (§4.1). We realize
    both tests on 64-bit views of the 256-bit digest: the first eight bytes
    (big-endian) for blocks and the last eight for fruits. All hardness
    parameters used anywhere in this repository exceed 2⁻⁶⁴, so 64 bits of
    granularity represent every threshold exactly enough. *)

type t
(** An immutable 32-byte digest. *)

val of_raw : string -> t
(** [of_raw s] wraps a 32-byte string. Raises [Invalid_argument] otherwise. *)

val of_digest : string -> t
(** Total variant of {!of_raw} for strings that are 32 bytes by
    construction — SHA-256 output ({!Sha256.digest}).
    Not validated: passing anything else breaks the digest invariant.
    Boundary input (hex, decoded messages) must use {!of_raw}. *)

val to_raw : t -> string
val zero : t
(** The all-zero digest, used by the genesis block. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A table hash: the leading eight bytes (digests are uniform), as a
    non-negative int. Stable across OCaml versions, and it allocates
    nothing. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by digests, hashed by {!hash} and compared with
    {!equal}. Every digest-keyed table goes through this instead of the
    polymorphic [Hashtbl]. *)

val to_hex : t -> string
val pp : Format.formatter -> t -> unit
(** Prints the first four bytes of hex followed by an ellipsis. *)

(** {1 Difficulty views} *)

val prefix64 : t -> int64
(** First 8 bytes, big-endian, as an unsigned 64-bit value. *)

val suffix64 : t -> int64
(** Last 8 bytes, big-endian, as an unsigned 64-bit value. *)

val threshold : float -> int64
(** [threshold p] is ⌊p·2⁶⁴⌋ represented as an unsigned [int64]; a view [v]
    satisfies the difficulty iff [unsigned_lt v (threshold p)]. [p] is
    clamped to [\[0, 1\]]. *)

(** {1 Construction helpers} *)

val of_views : block_view:int64 -> fruit_view:int64 -> filler:int64 * int64 -> t
(** Builds a digest whose {!prefix64} is [block_view], whose {!suffix64} is
    [fruit_view], and whose middle 16 bytes are the two [filler] words. Used
    by the simulated oracle to encode sampled mining outcomes into a digest
    that the ordinary difficulty checks accept or reject correctly; the 128
    filler bits keep accidental digest collisions negligible. *)
