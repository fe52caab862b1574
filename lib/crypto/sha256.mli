(** SHA-256 (FIPS 180-4), implemented in-repo.

    This is the hash function instantiating the paper's random oracle [H] in
    "real" mode, and the collision-resistant function [d] (via
    {!Merkle}). The 64-byte block function is C ([sha256_stubs.c], built
    by dune) in two versions computing the same compression: one on the
    x86 SHA extensions, and a portable one for every other host. A CPUID
    probe picks one once, when this module is initialised; no flag,
    environment variable or argument can force either. Buffering and
    padding stay in OCaml. Both block functions are validated against the
    NIST test vectors and, in the differential suite, against a reference
    copy of the earlier pure-OCaml implementation. *)

type ctx
(** Incremental hashing context (mutable). *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** Absorb bytes. May be called any number of times. *)

val update_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Absorb [len] bytes of the buffer from [pos]. Raises [Invalid_argument]
    unless [pos] and [len] are non-negative and [len <= length - pos]. *)

val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be used afterwards. *)

val digest : string -> string
(** One-shot: [digest s] is the 32-byte SHA-256 of [s]. Compresses the
    whole blocks of [s] in place and pads in one scratch block; it builds
    no {!ctx}. *)

val accelerated : bool
(** Whether this host runs the SHA-extension block function (the CPU has
    SHA, SSSE3 and SSE4.1); false off x86-64. Fixed for the process. *)

val digest_portable : string -> string
(** [digest] over the portable block function whatever the host. It
    exists for the differential suite, which holds both block functions
    to the reference; everything else calls {!digest}. *)

val hmac : key:string -> string -> string
(** HMAC-SHA256 (RFC 2104); used for domain-separated derivations. *)
