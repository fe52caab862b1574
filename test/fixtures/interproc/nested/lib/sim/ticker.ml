(* The clock is reached only through the file's [open], from inside a
   nested module and from inside a functor body that is applied and then
   used.  Both structures must see the [open] above them. *)
open Fruitchain_obs

module Inner = struct
  let tick () = Clock.now_s ()
end

module Make (X : sig
  val scale : float
end) =
struct
  let stamp () = X.scale *. Clock.now_s ()
end

module M = Make (struct
  let scale = 2.0
end)

let stamped () = M.stamp ()
