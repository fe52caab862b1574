(* R11 positive fixture: every line below must fire the foreign-code rule. *)
external bits : unit -> int = "fixture_bits"
external peek : Bytes.t -> int -> int = "fixture_peek" [@@noalloc]
module Inner = struct external now : unit -> float = "fixture_now" end
let id x = let module L = struct external id : 'a -> 'a = "%identity" end in L.id x
external get : string -> int -> char = "%string_safe_get"
