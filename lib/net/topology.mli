(** Network topologies and gossip propagation.

    The execution model postulates a delay bound Δ; a deployment gets Δ from
    its gossip network's diameter and per-hop latency, and §2.6 sets the
    mining hardness from Δ. This module supplies the graphs and the flood
    simulation that connect the two: build a topology, measure how many
    hops/rounds a broadcast needs to reach everyone, and that is the Δ the
    protocol parameters must absorb (experiment E18). *)

module Rng = Fruitchain_util.Rng

type t
(** An undirected connected graph over nodes [0 .. n-1]. *)

val degree_stats : t -> float * int
(** (mean degree, max degree). *)

val complete : int -> t
val ring : int -> k:int -> t
(** Each node linked to its [k] nearest neighbours on each side
    (a 2k-regular circulant). [k ≥ 1], [n > 2k]. *)

val erdos_renyi : Rng.t -> int -> avg_degree:float -> t
(** G(n, p) with [p = avg_degree/(n-1)], plus a ring backbone so the result
    is always connected (the backbone's two edges per node count toward the
    realized degree). *)

val diameter : t -> int
(** Exact, by BFS from every node. O(n·(n+m)). *)

(** {1 Flood propagation} *)

type spread = {
  rounds_to_full : int;  (** Rounds until every node has the message. *)
  reached : int;  (** Nodes reached (= n for connected graphs). *)
}

(* fruitlint: allow R12 test_net "flood semantics", "erdos-renyi connected" *)
val flood : t -> source:int -> per_hop_rounds:int -> spread
(** Deterministic flood: the source has the message at round 0; a node that
    first holds it at round r hands it to all neighbours at
    [r + per_hop_rounds]. This is the gossip relay of footnote 2 running on
    a real graph; [rounds_to_full] is the empirical Δ for this topology. *)

val worst_case_delta : t -> per_hop_rounds:int -> int
(** max over sources of [rounds_to_full] — the Δ a deployment on this graph
    must configure. Equals [diameter * per_hop_rounds]. *)
