(** Protocol parameters of Π_fruit(p, p_f, R), §4.2.

    The protocol is parameterized by the block hardness [p], the fruit
    hardness [p_f] and the recency parameter [R]; the security parameter κ
    fixes the pointer depth (fruits hang from the block κ positions below
    the tip, i.e. a "recently stabilized" block) and, with R, the recency
    window Rκ. The paper's main theorem instantiates R = 17 and
    κ_f = 2qRκ where q = p_f / p.

    Deployed parameters would use κ on the order of hundreds; simulations
    use smaller κ so that runs of a few hundred thousand rounds contain
    enough κ-windows to measure — the theorem's bounds are stated for every
    κ, so this is a scale choice, not a model change. *)

type t = private {
  p : float;  (** Block mining hardness: per-query success probability. *)
  pf : float;  (** Fruit mining hardness. *)
  kappa : int;  (** Security parameter κ: pointer depth and confirmation depth. *)
  recency_r : int;  (** The paper's R; the recency window is [R·κ] blocks. *)
  enforce_recency : bool;
      (** When [false], miners and verifiers skip the fruit-recency rule —
          the ablation of experiment E09 that demonstrates the withholding
          attack the rule exists to prevent. Never disable outside that
          experiment. *)
}

val make : ?recency_r:int -> ?enforce_recency:bool -> p:float -> pf:float -> kappa:int -> unit -> t
(** [recency_r] defaults to the paper's 17; [enforce_recency] to [true]. Raises [Invalid_argument] unless
    [0 < p <= 1], [0 < pf <= 1] and [kappa > 0]. *)

val recency_window : t -> int
(** [R·κ]: how far above its hang point a fruit may be recorded. *)

val pointer_depth : t -> int
(** κ: honest miners hang fruits from [chain\[max(0, height − κ)\]]. *)

val q : t -> float
(** [p_f / p], the fruits-per-block ratio of §6. *)

val pp : Format.formatter -> t -> unit
