(** A synchronous quorum-vote BFT protocol executed by an elected committee,
    with an optimal equivocating adversary.

    Hybrid consensus hands the elected committee a classical consensus
    protocol; the committee tolerates Byzantine seats strictly below one
    third. We implement a concrete three-phase slot protocol:

    + {e propose} — the slot's round-robin leader sends a value to every
      seat;
    + {e vote} — every seat broadcasts a vote for the proposal it received;
    + {e commit} — a seat commits any value with at least ⌊2n/3⌋+1 votes.

    The adversary controls the Byzantine seats and plays optimally: a
    Byzantine leader equivocates between two values with the vote-split
    that maximizes double-commit (Byzantine voters double-voting to push
    both halves over the quorum); when equivocation cannot reach two
    quorums, Byzantine seats withhold everything — the leader stalls and
    the voters deny the honest leader their votes. Consequently the
    protocol is {e live} iff the honest seats alone form a quorum
    (f < ⌈n/3⌉, the classical bound) and {e safe} iff the honest seats
    cannot be split into two quorum-completing halves (f < 2·quorum − n ≈
    n/3 + 2). Both thresholds are exercised by the test suite. *)

type slot_outcome = {
  leader_byzantine : bool;
  committed_values : int;  (** Distinct values committed by honest seats. *)
  safety_violated : bool;  (** [committed_values > 1]. *)
  lively : bool;  (** Some honest seat committed. *)
}

(* fruitlint: allow R12 test_hybrid "honest leader slot", "byzantine leader stalls" *)
val run_slot :
  rng:Fruitchain_util.Rng.t -> committee:Committee.t -> slot:int -> slot_outcome
(** Execute one slot. The leader is seat [slot mod size]. *)

type stats = {
  slots : int;
  safety_violations : int;
  liveness_failures : int;
  byzantine_leader_slots : int;
}

val run_slots : rng:Fruitchain_util.Rng.t -> committee:Committee.t -> slots:int -> stats

(* fruitlint: allow R12 test_hybrid "breaks at n/3", "safe below split threshold" *)
val attack_feasible : committee:Committee.t -> bool
(** Can the optimal equivocation split double-commit this committee at all?
    True iff the honest seats can be split into two parts that both reach a
    quorum with Byzantine help, i.e. iff [byzantine >= ceil(n/3)] (up to
    rounding) — exposed so experiments can cross-check the simulation
    against the closed form. *)
