(** Canonical serialization.

    [header_bytes] defines the exact byte string fed to the oracle when
    mining or verifying, so it {e is} the protocol's notion of
    [(h_{-1}; h'; η; d(F); m)]. Fruits and blocks also serialize fully
    (including the fruit set) for wire-size accounting (experiment E08) and
    round-trip tests. All integers are big-endian; variable-length fields
    carry a 32-bit length prefix. *)

open Types

val header_bytes : header -> string
(** The oracle pre-image of a header. Injective by construction. *)

val fruit_bytes : fruit -> string
(** Full wire encoding of a fruit (header + reference hash). This is the
    80-byte-class object of §6 when [record] is a 32-byte transaction
    digest. *)

val block_bytes : block -> string
(** Full wire encoding of a block: header, reference, fruit count, fruits. *)

val block_of_bytes : string -> block
(** Raises [Invalid_argument] on malformed input. Provenance (the block's
    and its fruits') is not encoded and comes back as [None]. *)

val fruit_wire_size : fruit -> int
val block_wire_size : block -> int
