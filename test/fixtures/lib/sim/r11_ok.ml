(* R11 negative fixture: OCaml-level wrappers around stdlib code, the word
   "external" where it is not a declaration, and suppressions. *)
let get s i = String.get s i
let external_ = "external f : int -> int = \"c_f\""

(* fruitlint: allow R11 *)
external bits : unit -> int = "fixture_bits"
external now : unit -> float = "fixture_now" (* fruitlint: allow R11 *)
