(** Growable array with amortized O(1) push.

    The event buffer behind {!Fruitchain_sim.Trace}: long executions
    record 10⁵–10⁶ events, which want constant-time append, dense
    storage, and a chronological read-out without a reversal pass. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val iter : 'a t -> f:('a -> unit) -> unit
(** In push (chronological) order. *)

val to_list : 'a t -> 'a list
(** Chronological. *)
