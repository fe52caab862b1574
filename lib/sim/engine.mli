(** The round engine: EXEC_Π(A, Z, κ) of §2.1.

    Each round, in order: (1) every honest party drains its inbox, receives
    its record from the environment, takes its single mining step and hands
    its broadcasts to the network under the adversary's delivery schedule;
    (2) the adversary acts with its [q]-query budget, having seen the
    round's honest broadcasts (rushing); (3) the engine takes the configured
    measurements. Everything is driven by one master seed. *)

module Rng = Fruitchain_util.Rng
module Oracle = Fruitchain_crypto.Oracle

type workload = Strategy.workload
(** The environment's record inputs. The default returns [""] everywhere
    (pure mining workload); liveness probes are injected on top of it. *)

val run :
  config:Config.t -> strategy:(module Strategy.S) -> ?workload:workload ->
  ?net_policy:Fruitchain_net.Network.policy ->
  ?round_hook:(scope:Fruitchain_obs.Scope.t -> round:int -> unit) ->
  ?scope:Fruitchain_obs.Scope.t -> unit -> Trace.t
(** Runs the execution to completion and returns the trace, dispatching on
    [config.engine]: [Exact] (default) runs the per-party-per-query round
    loop below; [Sparse] hands the whole run to {!Sparse.run}, which
    simulates the same mining process by aggregate sampling (the strategy
    module is then ignored — the sparse plane is honest-coalition by
    construction). On the exact plane the oracle is the sampling backend
    seeded from [config.seed]; every honest party, the adversary, and the
    network get independent split streams.

    [?workload], [?net_policy] and [?round_hook] are exact-plane inputs:
    on a [Sparse] config any of them raises [Invalid_argument].
    [?net_policy] is installed on the run's network at creation — the
    fruitstorm fault-injection hook ({!Fruitchain_net.Network.policy}).
    [?round_hook] is called at the top of every round, before the round's
    three phases (inbox drain / mining / adversary action), with the run's
    scope — the scenario driver uses it to emit [scenario.*] trace events
    and maintain the [scenario.active_faults] gauge. Both must be pure
    (deterministic) in the simulated round to preserve the jobs-invariance
    contract.

    [?scope] is the fruitscope channel of the run; it defaults to the
    calling domain's ambient scope ({!Fruitchain_util.Pool.current_scope}),
    so runs fanned out by the worker pool land in per-unit forked scopes
    automatically and a plain call with no scope installed pays one branch
    per instrumentation site. *)

(* fruitlint: allow R12 test_sim "real oracle end to end" *)
val run_with_oracle :
  config:Config.t -> strategy:(module Strategy.S) -> oracle:Oracle.t ->
  ?workload:workload ->
  ?net_policy:Fruitchain_net.Network.policy ->
  ?round_hook:(scope:Fruitchain_obs.Scope.t -> round:int -> unit) ->
  ?scope:Fruitchain_obs.Scope.t -> unit -> Trace.t
(** Same, but with a caller-provided oracle — used by tests that exercise
    the real SHA-256 backend end to end. *)
