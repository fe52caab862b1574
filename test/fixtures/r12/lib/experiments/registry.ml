(* The registry names its experiments only as modules: E01 packed as a
   first-class module, E02 as a functor argument. Each counts as a use
   of every value of the unit. *)
module type S = sig
  val id : string
  val run : unit -> int
end

module Twice (E : S) = struct
  let id = E.id ^ "x2"
  let run () = 2 * E.run ()
end

let all : (module S) list = [ (module E01); (module Twice (E02)) ]
