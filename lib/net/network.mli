(** The Δ-bounded message-delivery network of §2.1.

    The adversary is responsible for delivering every broadcast message; it
    may delay or reorder arbitrarily, subject to the constraint that a
    message broadcast by an honest player at round [t] has been received by
    every honest player by round [t + Δ]. This module is that mailbox: a
    {!broadcast} enqueues one delivery per recipient, each with its own
    delivery round chosen by the caller (the adversary strategy) and clamped
    into [\[t+1, t+Δ\]] for honest traffic. Adversarial messages may also be
    scheduled at [t+1 .. t+Δ] but with {!Message.rushed_priority} to win
    same-round ordering — the "rushing" capability.

    Inboxes are drained once per round per party; a drain returns the
    round's messages in (priority, enqueue sequence) order, so rushed
    messages are processed before honest ones that arrive the same round.

    Layout. A recipient's inbox is made on its first delivery: until then
    it holds nothing and drains [[]] without allocating, so [create]
    allocates one word per party and the sparse plane, which only calls
    {!deliver_batch}, holds no inboxes at all. An inbox is a ring of Δ+1
    round slots; a slot keeps two arrays side by side, the delivered
    messages and their enqueue sequence numbers, so a delivery stores a
    pointer to the broadcast's one shared message and an int. Entries
    enter a slot in sequence order, which makes (priority, seq) order a
    stable order by priority: a drain emits the slot's entries one
    priority class at a time, lowest first, and sorts nothing. A delivery
    due past [now + Δ] (a fault policy holding traffic), or whose slot
    still holds another round (a drain that was skipped), spills into a
    per-inbox table by round, made on the first spill, and keeps its
    sequence number; a held delivery never takes a slot, so in-window
    traffic stays on the ring during a hold. The drain of a round merges
    its spilled entries with the slot's by sequence number before
    emitting. *)

type t

type policy = now:int -> sender:int -> recipient:int -> round:int -> int
(** An environment-level delivery policy (the fruitstorm fault-injection
    hook). After a schedule is resolved and clamped into the honest window
    [\[now+1, now+Δ\]], the policy sees the send round, the message's
    sender (-1 for adversary injections), the recipient, and the resolved
    delivery [round], and returns the actual delivery round — which {e may}
    exceed the Δ bound (that is the point: a partition or an eclipse holds
    cross-group traffic until it heals, a delay spike widens the clamp
    window). The result is re-clamped to [>= now + 1]. A policy must be a
    pure function of its arguments to preserve the determinism contract;
    whenever no fault covers [now] it must return [round] unchanged, which
    keeps the honest-traffic Δ-bound intact (guarded by a QCheck property
    in [test/test_properties.ml]). *)

val create : ?scope:Fruitchain_obs.Scope.t -> ?policy:policy -> n:int -> delta:int -> unit -> t
(** [n] parties (indices [0 .. n-1]); honest messages must arrive within
    [delta] rounds. [delta >= 1]. With a live [?scope] (default
    {!Fruitchain_obs.Scope.null}) the network resolves a [net.delay]
    histogram at creation and observes each message's delivery delay in
    rounds — delays are protocol semantics, so the histogram is part of the
    golden (deterministic) metric dump. [?policy] (default: none, i.e. the
    identity) is the fault-injection delivery policy above. *)

type schedule =
  | At of int  (** Absolute delivery round (clamped to the legal window). *)
  | Uniform_in_window  (** Uniform in [\[t+1, t+Δ\]]. *)
  | Next_round  (** Round [t+1] — the fastest legal delivery. *)
  | Max_delay  (** Round [t+Δ] — the slowest legal delivery. *)

val broadcast :
  t -> now:int -> ?schedule:(recipient:int -> schedule) -> rng:Fruitchain_util.Rng.t ->
  Message.t -> unit
(** Enqueue the message for every party except its sender, in recipient
    order: the paper's broadcasts go to "all other players". A message
    whose sender is {!Message.adversary_sender} reaches every party. Each
    delivery is {!send_to} with [schedule ~recipient]. [schedule] defaults
    to [fun ~recipient:_ -> Max_delay], the adversary-pessimal choice under
    which the paper's bounds are stated. *)

val send_to :
  t -> now:int -> recipient:int -> schedule:schedule -> rng:Fruitchain_util.Rng.t ->
  Message.t -> unit
(** Targeted delivery (the adversary may send different things to different
    parties; honest players never use this). *)

val drain : t -> round:int -> recipient:int -> Message.t list
(** All messages due for [recipient] at [round], in (priority, enqueue
    sequence) order; removes them. The engine drains every recipient every
    round, so no delivery is ever skipped. *)

val deliver_batch : t -> count:int -> delay:int -> unit
(** Account [count] point-to-point deliveries, all with the same [delay]
    in rounds, without materializing envelopes: the sparse simulation
    plane keeps one converged chain, so a broadcast's [n-1] deliveries
    carry no information beyond their count and delay. Advances the
    [sent]/[delivered] counters and the golden [net.delay] histogram
    exactly as [count] enqueue-then-drain round trips at that delay
    would. [count >= 0], [delay >= 1]. *)

val pending : t -> int
(** Messages enqueued but not yet drained. *)

val sent : t -> int
(** Point-to-point deliveries enqueued since creation (a broadcast counts
    [n - 1] times). Native counter, harvested once per run by the engine. *)

val delivered : t -> int
(** Deliveries drained since creation. *)
