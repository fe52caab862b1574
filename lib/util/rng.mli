(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    generator of this type, so that a run is fully determined by its seed.
    The core generator is xoshiro256++ seeded through splitmix64, which is
    fast, has a 256-bit state and passes the usual statistical batteries —
    more than adequate for discrete-event simulation (it is of course not a
    cryptographic generator; the protocol's hashing lives in
    {!Fruitchain_crypto}). *)

type t
(** A mutable generator. Generators are never shared between logical
    components; use {!split} to derive independent streams. *)

val of_seed : int64 -> t
(** [of_seed s] creates a generator deterministically from [s]. Distinct
    seeds yield (for all practical purposes) independent streams. *)

val split : t -> t
(** [split g] derives a fresh generator whose stream is independent of the
    subsequent output of [g]. [g] advances. Used to give each party,
    adversary and oracle its own stream so that adding draws to one component
    does not perturb the others. *)

val derive : int64 -> index:int -> int64
(** [derive master ~index] is the seed of work unit [index] under the
    master seed [master] — a pure function (no generator state), so the
    derivation cannot depend on the order in which units execute, and for
    a fixed master all derived seeds are pairwise distinct (the index map
    is injective and the splitmix64 finalizer a bijection). This is how
    the parallel experiment runner ({!Pool}, [Runs.run_parallel]) gives
    every trial and sweep point its own independent stream. [index] must
    be non-negative. *)

val bits64 : t -> int64
(** Uniform 64 random bits. *)

val draw : t -> unit
(** Advance the generator by one draw — the same state step as {!bits64} —
    and keep the drawn 64 bits in the generator, readable through
    {!last_bits64} until the next draw. The hot-path entry point: the step
    runs on unboxed 64-bit words and allocates nothing, where {!bits64}
    boxes its result. *)

val last_bits64 : t -> int64
(** The most recent draw as a boxed [int64] (0 before the first draw;
    [bits64 g] is [draw g; last_bits64 g]). *)

(** {1 Slots}

    A generator holds six slots of 64 bits beside its state, for callers
    that make several draws at once and read few of them back. A slot
    keeps its word until a {!draws} or {!draw_to} writes it again; no
    other call touches the slots. A slot index [j] is in [\[0, 6)]; any
    other raises [Invalid_argument]. *)

val draws : t -> int -> unit
(** [draws g k] is [k] draws in one pass, the [j]-th into slot [j]: the
    state, every slot and {!last_bits64} end as after [draw_to g 0; ...;
    draw_to g (k - 1)]. [k] is in [\[0, 6\]]. Allocates nothing. *)

val draw_to : t -> int -> unit
(** [draw_to g j] is {!draw} that also keeps the drawn word in slot [j]. *)

val slot_bits64 : t -> int -> int64
(** The word in slot [j], boxed (0 until a draw writes it). *)

val slot_below : t -> int -> float -> bool
(** [slot_below g j p] is the Bernoulli test that {!bernoulli} makes for a
    [p] in (0, 1), on slot [j]'s word instead of a fresh draw: its top 53
    bits as a uniform in [\[0, 1)], compared with [p]. Allocates nothing. *)

val float : t -> float
(** Uniform in [\[0, 1)]. Uses the top 53 bits. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

(* fruitlint: allow R12 test_differential's Ref_oracle, the sim oracle's reference *)
val int64_range : t -> int64 -> int64
(** [int64_range g bound] is uniform in [\[0, bound)] for positive [bound]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to [\[0, 1\]]). *)
