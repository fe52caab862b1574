(* The [val]s of a module type are a signature, not exports. *)
module type S = sig
  val id : string
  val run : unit -> int
end

val all : (module S) list
