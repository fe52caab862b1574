(** Streaming and batch statistics used by the experiment harness. *)

(** {1 Streaming accumulator} *)

type t
(** A Welford-style online accumulator: numerically stable mean and variance,
    plus min/max, in O(1) per observation. *)

val create : unit -> t
val add : t -> float -> unit
val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val std : t -> float
(** Square root of the unbiased sample variance; [nan] with fewer than two
    observations. *)

val min_value : t -> float

val coefficient_of_variation : t -> float
(** [std / mean]; [nan] when the mean is zero or undefined. *)

(* fruitlint: allow R12 test_util "merge", "merge with empty", "stats merge = concat" *)
val merge : t -> t -> t
(** Combine two accumulators as if all observations were added to one. *)

(** {1 Batch helpers} *)

val of_list : float list -> t
val of_array : float array -> t

(* fruitlint: allow R12 test_util "quantile", "quantile invalid" *)
val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0, 1\]], linear interpolation between order
    statistics; sorts a copy. Raises [Invalid_argument] on an empty array. *)

val gini : float array -> float
(** Gini coefficient of a non-negative sample (0 = perfectly equal,
    → 1 = concentrated): the reward-concentration headline of the E22
    sweep. An all-zero sample has coefficient 0. Sorts a copy; raises
    [Invalid_argument] on an empty array or a negative value. *)
