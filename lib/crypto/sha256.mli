(** SHA-256 (FIPS 180-4), implemented in-repo.

    This is the hash function instantiating the paper's random oracle [H] in
    "real" mode, and the collision-resistant function [d] (via
    {!Merkle}). The 64-byte block function is portable C
    ([sha256_stubs.c], built by dune, no CPU-feature dispatch); buffering
    and padding stay in OCaml. It is validated against the NIST test
    vectors and, in the differential suite, against a reference copy of
    the earlier pure-OCaml implementation. *)

type ctx
(** Incremental hashing context (mutable). *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** Absorb bytes. May be called any number of times. *)

val update_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be used afterwards. *)

val digest : string -> string
(** One-shot: [digest s] is the 32-byte SHA-256 of [s]. Compresses the
    whole blocks of [s] in place and pads in one scratch block; it builds
    no {!ctx}. *)

val hmac : key:string -> string -> string
(** HMAC-SHA256 (RFC 2104); used for domain-separated derivations. *)
