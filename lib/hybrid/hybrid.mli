(** End-to-end hybrid consensus over a finished blockchain run: slide
    committee elections along the chain, run the BFT slot protocol on each,
    and aggregate safety/liveness outcomes. *)

module Trace = Fruitchain_sim.Trace

type report = {
  committees : int;
  unsafe_committees : int;
      (** Committees on which the optimal adversary double-committed at
          least one slot. *)
  stalled_committees : int;
      (** Committees that could not commit in some slot (Byzantine leader
          stalling) but never double-committed. *)
  total_slots : int;
  stalled_slots : int;
      (** Slots without an honest commit — ≈ the Byzantine-leader slot
          fraction, since a real deployment would view-change past them. *)
  mean_honest_fraction : float;
  min_honest_fraction : float;
}

val evaluate :
  Trace.t -> unit:[ `Blocks | `Fruits ] -> committee_size:int -> stride:int ->
  slots_per_committee:int -> seed:int64 -> report
(** Elect every sliding committee from the canonical chain, run
    [slots_per_committee] BFT slots on each, and aggregate. *)
