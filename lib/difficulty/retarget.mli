(** Difficulty retargeting.

    The security analyses (the paper's, and [18]'s, which it builds on)
    take the mining hardness p as "appropriately set" for the network's
    total power and delay; real deployments keep it appropriate with
    feedback. This module implements Bitcoin-style epoch retargeting —
    after every [epoch_length] blocks, scale the hardness by
    (target epoch duration / actual epoch duration), clamped to a maximum
    per-epoch adjustment — together with a round-based mining simulation
    under drifting total hash power, so the tracking error of the rule can
    be measured (experiment E15). Hardness p is the per-unit-power
    per-round success probability, so the expected block interval is
    1 / (p · power). *)

module Rng = Fruitchain_util.Rng

type params = {
  target_interval : float;  (** Desired rounds between blocks. *)
  epoch_length : int;  (** Blocks per retarget epoch. *)
  max_adjustment : float;  (** Clamp: p changes at most this factor per epoch (> 1). *)
}

val make_params :
  ?epoch_length:int -> ?max_adjustment:float -> target_interval:float -> unit -> params
(** Defaults: epoch 32 blocks, clamp 4.0 (Bitcoin's). *)

(* fruitlint: allow R12 test_difficulty "direction", "fixed point", "clamped" *)
val next_p : params -> current_p:float -> epoch_duration:float -> float
(** The retarget rule. [epoch_duration] is the rounds the last epoch took;
    the result is clamped into [p/max_adjustment, p·max_adjustment] and
    into (0, 1]. *)

(** {1 Simulation under drifting hash power} *)

type power_profile = int -> float
(** Total hash power (arbitrary units) as a function of the round. *)

val constant : float -> power_profile
val step : before:float -> after:float -> at:int -> power_profile
val exponential_growth : initial:float -> doubling_rounds:float -> power_profile
val oscillating : mean:float -> amplitude:float -> period:int -> power_profile

type epoch_report = {
  epoch : int;
  start_round : int;
  duration : int;  (** Rounds the epoch took. *)
  p : float;  (** Hardness in force during the epoch. *)
  mean_power : float;
  mean_interval : float;  (** Realized rounds per block. *)
}

val simulate :
  rng:Rng.t -> params:params -> initial_p:float -> power:power_profile -> rounds:int ->
  epoch_report list
(** Mine with per-round success probability [min 1 (p · power round)],
    retargeting at every epoch boundary; reports one record per completed
    epoch. *)
