(** SHA-256 (FIPS 180-4), implemented in-repo.

    This is the hash function instantiating the paper's random oracle [H] in
    "real" mode, and the collision-resistant function [d] (via
    {!Merkle}). The 64-byte block function is C ([sha256_stubs.c], built
    by dune) in two versions computing the same compression: one on the
    x86 SHA extensions, and a portable one for every other host. A CPUID
    probe picks one once, when this module is initialised; no flag,
    environment variable or argument can force either. Padding stays in
    OCaml. Both block functions are validated against the NIST test
    vectors and, in the differential suite, against a reference copy of
    the earlier pure-OCaml implementation. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 of [s]. Compresses the whole blocks
    of [s] in place and pads the tail in one scratch block. *)

val accelerated : bool
(** Whether this host runs the SHA-extension block function (the CPU has
    SHA, SSSE3 and SSE4.1); false off x86-64. Fixed for the process. *)

(* fruitlint: allow R12 test_differential "C SHA-256 = pure-OCaml reference" *)
val digest_portable : string -> string
(** [digest] over the portable block function whatever the host. It
    exists for the differential suite, which holds both block functions
    to the reference; everything else calls {!digest}. *)
