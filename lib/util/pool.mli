(** Deterministic work-stealing worker pool on OCaml 5 domains.

    The experiment layer decomposes sweeps and trial batches into
    {e independent work units}: closures that depend only on their unit
    index and an explicitly derived per-unit RNG seed (see {!Rng.derive}).
    This module fans such units out across domains and merges the results
    {e by unit index}, so the output is identical — byte for byte — to a
    sequential run, regardless of how the scheduler interleaves workers.

    Scheduling is dynamic: workers repeatedly steal the next unclaimed
    unit index from a shared atomic counter, so a slow unit (a long sweep
    point) never stalls the queue behind it. Determinism survives because
    scheduling only decides {e which domain} computes a unit, never
    {e what} the unit computes (units share no mutable state and derive
    their randomness from their index alone), and the merge order is the
    index order, not the completion order.

    This is the single place in the tree where [Domain]/[Atomic] (and the
    other concurrency primitives) may appear — fruitlint rule R5 enforces
    the confinement.

    The pool also owns the {e ambient observability scope}
    ({!Fruitchain_obs.Scope}): the CLI installs one with {!set_scope},
    every parallel unit runs under a fork of it, and each fork is merged
    back in unit-index order as soon as its unit and every lower-indexed
    one have finished — so metric dumps and trace files, like results,
    are byte-identical at any worker count, and a finished fork is not
    kept until the join. *)

val default_jobs : unit -> int
(** The ambient worker count used when [?jobs] is omitted: initially
    [Domain.recommended_domain_count ()] (how many domains the hardware
    usefully supports), overridable with {!set_default_jobs} (the [--jobs]
    flag of [bench/main.exe] and the CLI). *)

val set_default_jobs : int -> unit
(** Clamped to at least 1. [set_default_jobs 1] restores fully sequential
    execution in the calling domain (no domains are spawned). *)

val current_scope : unit -> Fruitchain_obs.Scope.t
(** The calling domain's ambient observability scope — {!Scope.null}
    unless {!set_scope} installed one (main domain) or the pool is running
    the caller inside a work unit (worker domains, per-unit fork).
    Instrumented entry points ([Engine.run]) default their [?scope] to
    this. *)

val set_scope : Fruitchain_obs.Scope.t -> unit
(** Install the ambient scope of the calling domain. The CLI calls this
    once around a run when [--trace]/[--metrics] are given; restore
    {!Fruitchain_obs.Scope.null} afterwards. *)

val map : ?jobs:int -> int -> f:(int -> 'a) -> 'a array
(** [map n ~f] evaluates [f i] for every [i] in [0 .. n-1] on
    [min jobs n] domains and returns [[| f 0; f 1; ...; f (n-1) |]].

    [f] must be safe to run in any domain: it must not mutate state shared
    with other units (reading shared immutable data is fine). If any unit
    raises, the exception of the {e lowest-indexed} failing unit is
    re-raised after all workers have drained — so failures, too, are
    deterministic under scheduling; a failed unit's scope is still
    merged. If merging a unit's scope raises (a flight dump that cannot
    be written), no later scope is merged and that exception is re-raised
    after all workers have drained, ahead of any unit's.

    With [jobs = 1] (or [n <= 1]) the units run in the calling domain, in
    index order, with no concurrency machinery at all — exactly the
    historical sequential behaviour. *)
