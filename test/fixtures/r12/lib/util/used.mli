(* R12 fixture: one export per case. *)

val used_elsewhere : int -> int
(** Called from lib/sim/consumer.ml: clean. *)

val only_here : int -> int
(** Called only by [doubled_succ], in this file: flagged. *)

val doubled_succ : int -> int

val only_tests : int
(** Read only by test/reader.ml, outside the linted roots: flagged. *)

(* fruitlint: allow R12 test_lint "R12 unused exports" reads it *)
val hook : int
