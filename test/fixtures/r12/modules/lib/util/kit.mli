(* R12 fixture for module declarations: one declared module per case. *)

module type S = sig
  val name : string
end
(** A module type is a signature, not an export: out of scope. *)

module Packed : S
(** Packed as a first-class module in lib/sim/user.ml: clean. *)

module Nested : sig
  val deep : int
end
(** Only [Nested.deep] is read, from lib/sim/user.ml: clean. *)

module Tbl : Hashtbl.S with type key = int
(** A functor application, used as [Kit.Tbl.create]: clean. *)

module Make (_ : S) : S
(** Applied by a module binding in lib/sim/user.ml: clean. *)

module Unused : S
(** No user at all: flagged. *)

module Own : S
(** Named only by [own_name], in this unit: flagged. *)

module Alias = Stdlib.List
(** An alias abbreviates, it exports nothing new: out of scope. *)

val own_name : string
