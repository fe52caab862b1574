(** fruitstorm scenarios: declarative, validated fault-injection timelines.

    A scenario is a pure description of one experiment under adversity: a
    protocol configuration plus a list of timed fault events. Events with a
    window [\[from, until)] are active on rounds [from <= r < until] and
    heal at [until]; [gossip_toggle] fires at a single round. The module is
    deliberately free of any simulator dependency — it only knows
    {!Fruitchain_obs.Json} — so validation, canonicalization and the fault
    queries can be golden-tested in isolation and the engine glue lives in
    {!Driver}.

    Everything here is static: the fault queries are functions of the
    timeline and the simulated round only, never of execution state, which
    is what makes a scenario-driven run byte-identical at any worker
    count. *)

type protocol = Nakamoto | Fruitchain

type event =
  | Partition of { from : int; until : int; groups : int list list }
      (** The network splits into the given groups: cross-group messages
          sent while the partition is active are held and delivered only
          after [until] (as if re-sent at the heal with their original
          delay). Groups must be at least two, disjoint, non-empty and
          cover every party. *)
  | Delay_spike of { from : int; until : int; delta' : int }
      (** The effective delay bound widens from Δ to [delta' > Δ] for
          messages sent while the spike is active. *)
  | Eclipse of { from : int; until : int; party : int }
      (** All honest traffic to and from [party] is held until the heal;
          adversary injections still reach it (an eclipse attacker feeds
          the victim its own view). *)
  | Churn of { from : int; until : int; party : int }
      (** Sugar over the engine's corruption/uncorruption schedules: the
          party is corrupted at [from] and re-spawns honest at [until]
          (never, if [until] = rounds). *)
  | Gossip_toggle of { at : int; on : bool }
      (** Flip footnote-2 relaying on every live honest node at [at]. *)
  | Workload_burst of { from : int; until : int; tag : string }
      (** Honest parties receive non-empty records tagged [tag] while
          active (environment input pressure); a no-op for Π_nak metrics
          but visible in fruit ledgers. *)

type t = {
  name : string;
  description : string;
  protocol : protocol;
  n : int;
  rho : float;
  delta : int;
  rounds : int;
  seed : int64;
  trials : int;  (** Independent repetitions, fanned out over the pool. *)
  p : float;
  q : float;  (** p_f = p·q, as in the experiment layer. *)
  kappa : int;
  events : event list;
}

(** {1 Diagnostics}

    Validation never raises; every problem is a {!diag} carrying a stable
    code, mirroring fruitlint's rule codes:

    - [S1] malformed shape: unknown kind, unknown/missing/mistyped field,
      or an out-of-range scenario parameter;
    - [S2] invalid window: negative start, heal before cut
      ([until <= from]), or a window past the end of the run;
    - [S3] illegal party index or malformed partition groups;
    - [S4] duplicate events, or overlapping windows of the same kind;
    - [S5] contradictory events: opposing gossip toggles at one round,
      overlapping churns of one party, churning a statically corrupt party;
    - [S6] a delay spike whose [delta'] does not exceed Δ.

    [event] is the index into the scenario's (original, unsorted) event
    list, or [None] for scenario-level problems; {!Loader} maps it to a
    file line. *)

type diag = { event : int option; code : string; msg : string }

(* fruitlint: allow R12 test_scenario "S1 scenario level" and the other S-code cases *)
val make :
  ?description:string -> ?protocol:protocol -> ?n:int -> ?rho:float ->
  ?delta:int -> ?rounds:int -> ?seed:int64 -> ?trials:int -> ?p:float ->
  ?q:float -> ?kappa:int -> name:string -> events:event list -> unit ->
  (t, diag list) result
(** Validated construction. Defaults match the experiment layer: the
    fruitchain protocol, n = 20, ρ = 0, Δ = 2, 8000 rounds, seed 1,
    1 trial, p = 0.002, q = 10, κ = 8. *)

val make_exn :
  ?description:string -> ?protocol:protocol -> ?n:int -> ?rho:float ->
  ?delta:int -> ?rounds:int -> ?seed:int64 -> ?trials:int -> ?p:float ->
  ?q:float -> ?kappa:int -> name:string -> events:event list -> unit -> t
(** Like {!make}; raises [Invalid_argument] with the rendered diagnostics.
    For programmatic scenarios (experiments, tests) where a bad timeline is
    a bug, not user input. *)

(** {1 JSON} *)

val of_json : Fruitchain_obs.Json.t -> (t, diag list) result
(** Parses and validates. The shape is
    [{"name", "description"?, "config"?, "events"?}] with config fields
    [protocol n rho delta rounds seed trials p q kappa] (seed as int or
    decimal string) and events discriminated on ["kind"]. Unknown fields
    anywhere are [S1] diagnostics — a typo must not silently disable a
    fault. *)

val to_string : t -> string
(** Canonical JSON: fixed field order, all config fields explicit, events
    sorted by (start round, kind, canonical bytes). Parsing it back with
    {!of_json} and printing again is the identity on canonical scenarios,
    which is what the golden fixtures pin. *)

val window_of : event -> (int * int) option
(** The [\[from, until)] window of a windowed event; [None] for toggles. *)

val kind_name : event -> string
(** The JSON discriminator (["partition"], ["delay_spike"], …). *)

(** {1 Fault queries}

    Pure functions of the timeline; [round]/[now] is the simulated round at
    which a message is sent or a measurement taken. *)

val delivery_round : t -> now:int -> sender:int -> recipient:int -> round:int -> int
(** The {!Fruitchain_net.Network.policy} computation: [round] is the
    delivery round the Δ-clamped schedule resolved to, and the result is
    the (possibly later) faulted delivery round. A spike active at [now]
    adds [delta' − Δ]; a partition or eclipse separating the pair holds the
    message to [heal + (round − now)], i.e. it is re-sent at the heal with
    its original delay. Adversary-injected traffic
    ({!Fruitchain_net.Message.adversary_sender}) bypasses partitions and
    eclipses — the adversary is the network. *)

(* fruitlint: allow R12 test_scenario "predicates", test_properties no-fault delivery *)
val delivery_faulted : t -> round:int -> bool
(** A partition, spike or eclipse is active at [round] — exactly the
    condition under which honest traffic may exceed Δ. The no-fault QCheck
    property quantifies over its negation. *)

val active_faults : t -> round:int -> int
(** Number of windowed events active at [round] (the
    [scenario.active_faults] gauge). *)

val burst_record : t -> round:int -> party:int -> string
(** The record an active workload burst feeds the party this round
    (["tag/round/party"]), or [""] when no burst is active. *)

val churn_schedules : t -> (int * int) list * (int * int) list
(** The (corruption, uncorruption) schedule entries the scenario's churn
    events desugar to; a churn healing at [rounds] yields no uncorruption
    (the party stays corrupt to the end). *)

val gossip_schedule : t -> (int * bool) list
(** The [Config.gossip_schedule] entries of the scenario's toggles. *)
