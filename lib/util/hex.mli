(** Lowercase hexadecimal encoding of byte strings. *)

val encode : string -> string
(** [encode s] is the 2·length hex rendering of [s]. *)

(* fruitlint: allow R12 test_util "roundtrip", "known vectors", "invalid input" (hex group) *)
val decode : string -> string
(** Inverse of {!encode}; accepts upper- and lowercase digits. Raises
    [Invalid_argument] on odd length or non-hex characters. *)
