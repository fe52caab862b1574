(** Scenario files on disk.

    This module is the only blessed file-reading site under [lib/]
    (fruitlint R7, alongside the snapshot store): everything else in the
    subsystem works on strings and {!Fruitchain_obs.Json} values, so tests
    and the CLI share one code path and one diagnostic format. *)

type diag = { file : string; line : int; col : int; code : string; msg : string }
(** A {!Scenario.diag} anchored to a position in the source file:
    event-level diagnostics point at the first character of the offending
    event in the ["events"] array, scenario-level diagnostics at line 1,
    and unreadable files ([S0]) at line 0. *)

val to_string_diag : diag -> string
(** [file:line:col: [Sn] msg] — the same machine-readable shape as
    fruitlint's findings, so editors and CI treat both alike. *)

val load : string -> (Scenario.t, diag list) result
(** Reads, parses and validates the scenario file. Never raises: an
    unreadable file is a single [S0] diagnostic, malformed JSON an [S1]
    at the parse-error position, and every validation problem is reported
    (not just the first). *)

(* fruitlint: allow R12 test_scenario "places event diags", "parse error position" *)
val of_source : file:string -> string -> (Scenario.t, diag list) result
(** Same on in-memory text; [file] only labels diagnostics. Exposed for
    tests so diagnostic placement is checkable without touching disk. *)
