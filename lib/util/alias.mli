(** Walker/Vose alias tables: O(1) sampling from a fixed discrete
    distribution.

    The sparse simulation plane attributes every aggregate mining win to a
    party in proportion to its hash power; with up to 10⁵ parties and one
    attribution per win, linear scans are off the table. An alias table
    costs O(n) to build and exactly two RNG draws per sample. The plane
    builds one, from uniform power, and never rebuilds it: corruption is
    read off the config. *)

type t

val create : float array -> t
(** [create weights] builds a table sampling index [i] with probability
    [weights.(i) / Σ weights]. Weights must be finite and non-negative with
    a positive sum; the vector must be non-empty. Raises [Invalid_argument]
    otherwise. Construction is deterministic: the table is a pure function
    of the weight vector. *)

val sample : t -> Rng.t -> int
(** Two draws from the generator ({!Rng.int} then {!Rng.float}), regardless
    of table size. *)
