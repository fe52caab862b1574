(** The adversary interface.

    The model's adversary A (§2.1) has three powers: it controls message
    delivery (subject to the Δ bound, with rushing), it controls the corrupt
    parties' [q = ρ·n] sequential oracle queries per round, and it may
    inject arbitrary (valid-looking) messages. A strategy exercises all
    three:

    - {!S.schedule_honest} chooses, per recipient, when each honest
      broadcast is delivered;
    - {!S.act} runs once per round {e after} the honest parties — the
      adversary is rushing, it sees the round's honest broadcasts before
      acting — and may mine (spending up to [q] oracle queries), inject
      messages into {!ctx.network}, and record its mining events into
      {!ctx.trace}.

    Strategies write mined blocks straight into the shared {!ctx.store}
    (withheld blocks simply are not announced; honest nodes only ever adopt
    heads they were sent), which keeps private-chain bookkeeping trivial. *)

open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Rng = Fruitchain_util.Rng
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message

type workload = round:int -> party:int -> string
(** The environment's record inputs (same function the engine feeds honest
    parties); corrupt parties read their records through it. *)

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

val q_at : ctx -> round:int -> int
(** The budget at a given round, including adaptively corrupted parties —
    what strategies should spend each round. *)

module type S = sig
  type t

  val name : string
  val create : ctx -> t
  val schedule_honest : t -> Message.t -> recipient:int -> Network.schedule
  val act : t -> round:int -> honest_broadcasts:Message.t list -> unit
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

val instantiate : (module S) -> ctx -> packed
val schedule_honest : packed -> Message.t -> recipient:int -> Network.schedule
val act : packed -> round:int -> honest_broadcasts:Message.t list -> unit
