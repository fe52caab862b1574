(** Chain persistence: save a chain to disk and load it back.

    The format is a small envelope over {!Codec}: a magic string, a format
    version, a block count, then each block's wire encoding behind a 32-bit
    length prefix, parent-first so a load can insert blocks in order.
    Provenance is simulation-only and not persisted, mirroring the codec.

    Loading re-validates structurally (parents must precede children and
    link correctly); PoW/digest validation is the caller's concern, via
    {!Validate.valid_chain} with the appropriate oracle. *)

open Types

val save_chain : path:string -> block list -> unit
(** Serialize a genesis-first chain to [path]. The genesis block itself is
    skipped (it is a protocol constant). Raises [Invalid_argument] if the
    list does not start at genesis or does not link. *)

val load_chain : path:string -> block list
(** Inverse; returns the chain including the genesis constant. Raises
    [Invalid_argument] on bad magic, version, truncation or broken links. *)
