module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
open Fruitchain_chain

type workload = round:int -> party:int -> string

type ctx = {
  config : Config.t;
  store : Store.t;
  views : Fruitchain_core.Window_view.Cache.t;
  oracle : Oracle.t;
  network : Network.t;
  rng : Rng.t;
  trace : Trace.t;
  workload : workload;
}

let q_at ctx ~round = Config.corrupt_count_at ctx.config ~round

module type S = sig
  type t

  val name : string
  val create : ctx -> t
  val schedule_honest : t -> Message.t -> recipient:int -> Network.schedule
  val act : t -> round:int -> honest_broadcasts:Message.t list -> unit
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let instantiate (module M : S) ctx = Packed ((module M), M.create ctx)

let schedule_honest (Packed ((module M), s)) msg ~recipient =
  M.schedule_honest s msg ~recipient

let act (Packed ((module M), s)) ~round ~honest_broadcasts =
  M.act s ~round ~honest_broadcasts
