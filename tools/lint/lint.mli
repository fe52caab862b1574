(** fruitlint — repo-specific static-analysis rules for determinism and
    protocol invariants.

    The engine parses sources with compiler-libs (no typing pass, no ppx)
    and reports violations of the repo rules:

    - {b R1} determinism: no [Stdlib.Random], [Sys.time], [Unix.*] or
      [Hashtbl.hash] outside [lib/util/rng.ml] and the allowlist.
    - {b R2} no polymorphic compare/equality ([=], [<>], [==], [!=],
      [compare]) in [lib/chain/], [lib/crypto/], [lib/core/], [lib/net/].
    - {b R3} total validation: no [failwith]/[invalid_arg]/[raise]/[assert]
      in [lib/chain/validate.ml] and [lib/core/extract.ml].
    - {b R4} interface completeness: every [.ml] under [lib/] has a
      matching [.mli].
    - {b R5} concurrency confinement: [Domain]/[Atomic]/[Mutex]/[Condition]
      only in [lib/util/pool.ml] — all other parallelism goes through the
      deterministic worker pool ([Fruitchain_util.Pool]).
    - {b R6} clock confinement: wall-clock reads ([Unix.gettimeofday],
      [Unix.time], [Sys.time], ...) only in [lib/obs/clock.ml] — time
      telemetry goes through [Fruitchain_obs.Clock].
    - {b R7} input confinement: file reads ([open_in*] and [In_channel])
      under [lib/] only in [lib/scenario/loader.ml] and
      [lib/chain/snapshot.ml] — library results must be functions of
      explicit arguments, not of ambient files.

    On top of the per-file rules, three whole-program rules run on an
    interprocedural effect fixpoint ({!Graph} + {!Effects}):

    - {b R8} effect confinement: a binding under [lib/] outside the
      blessed capability modules may not transitively reach
      Rng/Clock/Io/DomainPrim; laundering an effect through aliases,
      [include]s or helper wrappers is flagged at the origin binding with
      the effect path printed in the diagnostic.
    - {b R9} static race detection: closures flowing into pool fan-outs
      ([Pool.map], [Runs.run_parallel]) must not capture
      bindings that reach mutated top-level state.
    - {b R10} transitive totality: R3's no-raise guarantee extended
      through the whole call graph from the validate/extract entry
      points.

    One more per-file rule guards the analysis itself:

    - {b R11} foreign-code confinement: [external] declarations only in
      [lib/crypto/sha256.ml]. The effect inference treats unresolved
      identifiers as pure, so a C primitive elsewhere would escape R1, R8
      and R10.

    And one whole-program rule keeps the library interfaces honest:

    - {b R12} interface economy: every top-level [val] and every
      [module M : ...] declaration of a [lib/**/*.mli] has a user in
      another compilation unit of the linted tree. A value is used by a
      resolved reference from a definition or module of another file, or
      by a module occurrence of the unit itself (a first-class module or
      a functor argument). A declared module is used when such an
      occurrence, or another file's functor application, lands on it or
      on anything inside it ([(module Delays.Null_max)],
      [Tx.Workload.with_whales], [Hash.Tbl.create]). A module alias is
      not a use; module types and interface aliases are not checked. The
      diagnostic sits on the [val] or [module] line; an export that only
      tests use stays exported only under an allow comment that names
      the test.

    A comment containing ["fruitlint: allow R<n>[, R<m> ...]"] suppresses
    those rules on its own line and on the following line;
    ["fruitlint: allow-file R<n>[, R<m> ...]"] suppresses them for the
    whole file.  For R10, an allow comment at the raising occurrence
    suppresses at the origin: that occurrence stops transmitting
    [Raises], covering every entry point reached through it. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11 | R12

val all_rules : rule list
val rule_name : rule -> string
val rule_of_string : string -> rule option

val rule_doc : rule -> string
(** One-line rule description (used for SARIF rule metadata). *)

type diag = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
  notes : string list;
      (** effect-path steps for R8–R10 diagnostics, origin first,
          primitive last; [[]] for per-file rules *)
}

val pp_diag : Format.formatter -> diag -> unit
(** Machine-readable ["file:line:col: [R] message"], followed by an
    indented ["path: a -> b -> c"] line when the diagnostic carries an
    effect path. *)

val compare_diag : diag -> diag -> int

exception Lint_error of string
(** Raised on I/O or parse failure (distinct from rule violations). *)

val lint_source : ?only:rule list -> path:string -> string -> diag list
(** [lint_source ~path content] lints one compilation unit given as a
    string.  [path] determines which rules apply (scoping is by path
    components, so ["fixtures/lib/chain/x.ml"] is scoped like
    ["lib/chain/x.ml"]).  [.mli] sources are parsed for validity only.
    R4 and R12 are not checked here (they need the filesystem and the
    other units); use {!lint_files}.
    R8–R10 run on a single-unit graph: effects visible within the file
    are inferred, but cross-file references cannot resolve. *)

type report = {
  diags : diag list;
  suppressed : int;
      (** diagnostics silenced by allow/allow-file comments *)
  seed_suppressions : int;
      (** R10 origins silenced at the raising occurrence *)
  files_scanned : int;
}

val lint_files_report : ?only:rule list -> string list -> report
(** [lint_files_report paths] walks files and directories (skipping
    [_build] and dot-directories), lints every [.ml]/[.mli] with the
    per-file rules, checks R4 for [.ml] files under a [lib] path
    component, then builds the whole-program graph over every parsed unit,
    runs R8–R10 on the effect fixpoint and R12 on the graph's uses.  Diags are sorted by file,
    line, column; suppression counts are reported so the summary can
    surface how many justifications are in force. *)

val lint_files : ?only:rule list -> string list -> diag list
(** [lint_files paths] = [(lint_files_report paths).diags]. *)
