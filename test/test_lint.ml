(* Tests for fruitlint (tools/lint): each rule R1-R4 against positive and
   negative fixture files, suppression comments, the CLI exit code, and a
   final check that the real tree is lint-clean. *)

module Lint = Fruitlint_lib.Lint

let fx sub = Filename.concat "fixtures" sub
let summarize = List.map (fun (d : Lint.diag) -> (d.file, d.line, Lint.rule_name d.rule))

let check_diags name expected diags =
  Alcotest.(check (list (triple string int string))) name expected (summarize diags)

(* --- R1: determinism ------------------------------------------------- *)

let test_r1_fires () =
  let file = fx "lib/sim/r1_bad.ml" in
  check_diags "every nondeterministic use is flagged"
    [ (file, 2, "R1"); (file, 3, "R1"); (file, 4, "R1"); (file, 5, "R1"); (file, 6, "R1") ]
    (Lint.lint_files ~only:[ Lint.R1 ] [ file ])

let test_r1_clean () =
  check_diags "seeded streams, benign Sys, suppressions pass" []
    (Lint.lint_files ~only:[ Lint.R1 ] [ fx "lib/sim/r1_ok.ml" ])

let test_r1_allowlist () =
  (* The one blessed randomness source would trip R1 on its own content
     (it *is* about random state), so the allowlist must cover it. *)
  check_diags "lib/util/rng.ml is allowlisted" []
    (Lint.lint_source ~only:[ Lint.R1 ] ~path:"lib/util/rng.ml"
       "let nondeterministic () = Random.bits ()")

(* --- R2: polymorphic compare ----------------------------------------- *)

let test_r2_fires () =
  let file = fx "lib/chain/r2_bad.ml" in
  check_diags "=, <>, compare, ==, Stdlib.compare all flagged"
    [ (file, 2, "R2"); (file, 3, "R2"); (file, 4, "R2"); (file, 5, "R2"); (file, 6, "R2") ]
    (Lint.lint_files ~only:[ Lint.R2 ] [ file ])

let test_r2_clean () =
  check_diags "typed equality and suppression pass" []
    (Lint.lint_files ~only:[ Lint.R2 ] [ fx "lib/chain/r2_ok.ml" ])

let test_r2_scoped () =
  check_diags "poly compare outside chain/crypto/core/net is allowed" []
    (Lint.lint_files ~only:[ Lint.R2 ] [ fx "lib/util/r2_elsewhere.ml" ])

let test_r2_net () =
  (* Envelope ordering is the delivery-determinism contract, so lib/net is
     in scope for R2 like the digest-bearing directories. *)
  let file = fx "lib/net/r2_bad.ml" in
  check_diags "poly compare in lib/net is flagged"
    [ (file, 2, "R2"); (file, 3, "R2"); (file, 4, "R2"); (file, 5, "R2"); (file, 6, "R2") ]
    (Lint.lint_files ~only:[ Lint.R2 ] [ file ])

let test_r2_sim () =
  (* Schedules, heads and configurations decide every golden table, so
     lib/sim is in scope for R2 as well. *)
  let file = fx "lib/sim/r2_bad.ml" in
  check_diags "poly compare in lib/sim is flagged"
    [ (file, 2, "R2"); (file, 3, "R2"); (file, 4, "R2"); (file, 5, "R2"); (file, 6, "R2") ]
    (Lint.lint_files ~only:[ Lint.R2 ] [ file ])

let test_r2_adversary () =
  (* Strategies mine and compare heads, heights and protocol tags on the
     same hot path as the honest node, so lib/adversary (and lib/nakamoto)
     are in scope for R2 too. *)
  let file = fx "lib/adversary/r2_bad.ml" in
  check_diags "poly compare in lib/adversary is flagged"
    [ (file, 2, "R2"); (file, 3, "R2"); (file, 4, "R2"); (file, 5, "R2"); (file, 6, "R2") ]
    (Lint.lint_files ~only:[ Lint.R2 ] [ file ])

(* --- R3: total validation -------------------------------------------- *)

let test_r3_fires () =
  let file = fx "lib/chain/validate.ml" in
  check_diags "failwith, raise, assert, invalid_arg all flagged"
    [ (file, 2, "R3"); (file, 3, "R3"); (file, 4, "R3"); (file, 5, "R3") ]
    (Lint.lint_files ~only:[ Lint.R3 ] [ file ])

let test_r3_scoped () =
  check_diags "raising outside the hot-path files is allowed" []
    (Lint.lint_files ~only:[ Lint.R3 ] [ fx "lib/chain/codec_helpers.ml" ])

let test_r3_clean () =
  check_diags "result-returning hot path passes" []
    (Lint.lint_files ~only:[ Lint.R3 ] [ fx "lib/core/extract.ml" ])

(* --- R4: interface completeness -------------------------------------- *)

let test_r4 () =
  check_diags "only the lib/ unit without an .mli is flagged"
    [ (fx "r4/lib/missing_mli.ml", 1, "R4") ]
    (Lint.lint_files ~only:[ Lint.R4 ] [ fx "r4" ])

(* --- R5: concurrency confinement -------------------------------------- *)

let test_r5_fires () =
  let file = fx "lib/sim/r5_bad.ml" in
  check_diags "Domain, Atomic, Mutex, Condition, Stdlib.Domain all flagged"
    [ (file, 2, "R5"); (file, 3, "R5"); (file, 4, "R5"); (file, 5, "R5"); (file, 6, "R5") ]
    (Lint.lint_files ~only:[ Lint.R5 ] [ file ])

let test_r5_clean () =
  check_diags "pool-mediated parallelism and suppression pass" []
    (Lint.lint_files ~only:[ Lint.R5 ] [ fx "lib/sim/r5_ok.ml" ])

let test_r5_allowlist () =
  (* The worker pool is the one blessed home for concurrency primitives. *)
  check_diags "lib/util/pool.ml is allowlisted" []
    (Lint.lint_source ~only:[ Lint.R5 ] ~path:"lib/util/pool.ml"
       "let d = Domain.spawn (fun () -> Atomic.make 0)")

let test_r5_module_alias () =
  (* The module_expr path: [module D = Domain] smuggles the primitive in. *)
  Alcotest.(check (list string)) "module alias is flagged" [ "R5" ]
    (List.map
       (fun (d : Lint.diag) -> Lint.rule_name d.rule)
       (Lint.lint_source ~only:[ Lint.R5 ] ~path:"lib/sim/x.ml" "module D = Domain"))

(* --- R6: clock confinement -------------------------------------------- *)

let test_r6_fires () =
  let file = fx "lib/sim/r6_bad.ml" in
  check_diags "gettimeofday, Sys.time, Unix.time, gmtime, Stdlib.Sys.time all flagged"
    [ (file, 2, "R6"); (file, 3, "R6"); (file, 4, "R6"); (file, 5, "R6"); (file, 6, "R6") ]
    (Lint.lint_files ~only:[ Lint.R6 ] [ file ])

let test_r6_clean () =
  check_diags "Obs.Clock use, benign Sys access, and suppressions pass" []
    (Lint.lint_files ~only:[ Lint.R6 ] [ fx "lib/sim/r6_ok.ml" ])

let test_r6_allowlist () =
  (* The clock module is the one blessed home for wall-clock reads. *)
  check_diags "lib/obs/clock.ml is allowlisted" []
    (Lint.lint_source ~only:[ Lint.R6 ] ~path:"lib/obs/clock.ml"
       "let now_s () = Unix.gettimeofday ()\nlet cpu_s () = Sys.time ()")

let test_r6_distinct_from_r1 () =
  (* R6 is narrower than R1: Unix.getenv leaks system state (R1) but is not
     a clock read, while both rules flag Unix.gettimeofday outside their
     allowlists. *)
  let diags path content only = Lint.lint_source ~only ~path content in
  Alcotest.(check (list string)) "getenv is R1 but not R6" [ "R1" ]
    (List.map
       (fun (d : Lint.diag) -> Lint.rule_name d.rule)
       (diags "lib/sim/x.ml" "let home () = Unix.getenv \"HOME\"" [ Lint.R1; Lint.R6 ]));
  Alcotest.(check (list string)) "gettimeofday is both R1 and R6" [ "R1"; "R6" ]
    (List.map
       (fun (d : Lint.diag) -> Lint.rule_name d.rule)
       (diags "lib/sim/x.ml" "let now () = Unix.gettimeofday ()" [ Lint.R1; Lint.R6 ]))

(* --- R7: input confinement --------------------------------------------- *)

let test_r7_fires () =
  let file = fx "lib/sim/r7_bad.ml" in
  check_diags "open_in, open_in_bin, open_in_gen, In_channel, Stdlib.open_in all flagged"
    [ (file, 2, "R7"); (file, 3, "R7"); (file, 4, "R7"); (file, 5, "R7"); (file, 6, "R7") ]
    (Lint.lint_files ~only:[ Lint.R7 ] [ file ])

let test_r7_clean () =
  check_diags "parsing provided contents, write channels, suppressions pass" []
    (Lint.lint_files ~only:[ Lint.R7 ] [ fx "lib/sim/r7_ok.ml" ])

let test_r7_allowlist () =
  (* The scenario loader and the snapshot store are the blessed readers. *)
  check_diags "lib/scenario/loader.ml is allowlisted" []
    (Lint.lint_source ~only:[ Lint.R7 ] ~path:"lib/scenario/loader.ml"
       "let read path = open_in_bin path");
  check_diags "lib/chain/snapshot.ml is allowlisted" []
    (Lint.lint_source ~only:[ Lint.R7 ] ~path:"lib/chain/snapshot.ml"
       "let read path = open_in_bin path")

let test_r7_scoped_to_lib () =
  (* CLIs read files for a living; the rule only guards the libraries. *)
  check_diags "open_in outside lib/ is allowed" []
    (Lint.lint_source ~only:[ Lint.R7 ] ~path:"bin/main.ml"
       "let read path = open_in_bin path")

(* --- R11: foreign-code confinement --------------------------------------- *)

let test_r11_fires () =
  let file = fx "lib/sim/r11_bad.ml" in
  check_diags "top-level, noalloc, nested-module, local-module and %-primitive externals"
    [ (file, 2, "R11"); (file, 3, "R11"); (file, 4, "R11"); (file, 5, "R11"); (file, 6, "R11") ]
    (Lint.lint_files ~only:[ Lint.R11 ] [ file ])

let test_r11_clean () =
  check_diags "wrappers, the word in a string, suppressions pass" []
    (Lint.lint_files ~only:[ Lint.R11 ] [ fx "lib/sim/r11_ok.ml" ])

let test_r11_allowlist () =
  (* The SHA-256 module is the one blessed home of a C primitive. *)
  check_diags "lib/crypto/sha256.ml is allowlisted" []
    (Lint.lint_source ~only:[ Lint.R11 ] ~path:"lib/crypto/sha256.ml"
       "external compress : Bytes.t -> Bytes.t -> int -> unit = \"c_compress\"")

let test_r11_not_scoped_to_lib () =
  (* Unlike R7, a CLI declaring a primitive is flagged too: the effect
     rules are blind to C wherever it is linked in. *)
  Alcotest.(check (list string)) "external in bin/ is flagged" [ "R11" ]
    (List.map
       (fun (d : Lint.diag) -> Lint.rule_name d.rule)
       (Lint.lint_source ~only:[ Lint.R11 ] ~path:"bin/main.ml"
          "external now : unit -> float = \"c_now\""))

(* --- Suppression parsing --------------------------------------------- *)

let test_suppression_is_per_rule () =
  (* An R1 suppression must not silence an R2 violation on the same line. *)
  let diags =
    Lint.lint_source ~only:Lint.all_rules ~path:"lib/chain/x.ml"
      "(* fruitlint: allow R1 *)\nlet f a b = a = b\n"
  in
  Alcotest.(check (list string)) "R2 survives an R1 suppression" [ "R2" ]
    (List.map (fun (d : Lint.diag) -> Lint.rule_name d.rule) diags)

let test_suppression_multi_rule () =
  let diags =
    Lint.lint_source ~only:Lint.all_rules ~path:"lib/chain/x.ml"
      "(* fruitlint: allow R1 R2 *)\nlet f a b = Hashtbl.hash a = b\n"
  in
  check_diags "one comment can allow several rules" [] diags

(* --- R8-R10: interprocedural effect inference ------------------------- *)

(* Each fixture under fixtures/interproc/ is a miniature multi-file tree
   (lib/obs, lib/sim, lib/chain ...) so that cross-library references
   resolve exactly as they do in the real repository.  The per-file pass
   is run alongside to prove each laundering pattern is invisible to it. *)

let ip sub = fx (Filename.concat "interproc" sub)

let exe = Filename.concat ".." (Filename.concat "tools" (Filename.concat "lint" "main.exe"))

(* The syntactic effect rules: everything per-file except R4 (interface
   completeness — fixtures carry no .mli on purpose) and R8-R10. *)
let per_file_effect_rules = Lint.[ R1; R2; R3; R5; R6; R7 ]

let last_note name expected diags =
  match diags with
  | [ (d : Lint.diag) ] ->
      Alcotest.(check (option string))
        name (Some expected)
        (match List.rev d.notes with last :: _ -> Some last | [] -> None)
  | ds -> Alcotest.failf "%s: expected exactly one diagnostic, got %d" name (List.length ds)

let test_r8_module_alias_laundering () =
  (* The seeded regression the old pass provably misses: [module C =
     Fruitchain_obs.Clock] re-names the capability, and [tick] reads the
     wall clock with no Unix/Sys token in the file. *)
  let tree = ip "alias" in
  check_diags "per-file rules see nothing" []
    (Lint.lint_files ~only:per_file_effect_rules [ tree ]);
  let diags = Lint.lint_files ~only:[ Lint.R8 ] [ tree ] in
  check_diags "R8 flags the laundering binding"
    [ (Filename.concat tree "lib/sim/ticker.ml", 7, "R8") ]
    diags;
  last_note "the effect path ends at the clock primitive" "Unix.gettimeofday" diags

let test_r8_include_reexport () =
  let tree = ip "incl" in
  check_diags "per-file rules see nothing" []
    (Lint.lint_files ~only:per_file_effect_rules [ tree ]);
  let diags = Lint.lint_files ~only:[ Lint.R8 ] [ tree ] in
  check_diags "R8 resolves through the include to the consumer"
    [ (Filename.concat tree "lib/sim/consume.ml", 3, "R8") ]
    diags;
  last_note "path reaches the primitive behind the include" "Unix.gettimeofday" diags

let test_r8_partial_application () =
  let tree = ip "partial" in
  check_diags "per-file rules see nothing" []
    (Lint.lint_files ~only:per_file_effect_rules [ tree ]);
  (* Only the effectful partial application is flagged; the pure one
     ([diff 0.0]) stays clean. *)
  check_diags "effectful closure flagged, pure closure clean"
    [ (Filename.concat tree "lib/sim/sampler.ml", 4, "R8") ]
    (Lint.lint_files ~only:[ Lint.R8 ] [ tree ])

let test_r8_functor_smuggling () =
  let tree = ip "functor" in
  (* The per-file pass flags the origin (Random.int inside the functor
     body) but is blind to the instantiation site that actually uses it. *)
  check_diags "per-file pass sees only the origin"
    [ (Filename.concat tree "lib/sim/maker.ml", 7, "R1") ]
    (Lint.lint_files ~only:per_file_effect_rules [ tree ]);
  let diags = Lint.lint_files ~only:[ Lint.R8 ] [ tree ] in
  check_diags "R8 flags the use through the functor application"
    [ (Filename.concat tree "lib/sim/harness.ml", 7, "R8") ]
    diags;
  last_note "path threads the functor application" "Random.int" diags

let test_r9_pool_capture () =
  let tree = ip "pool" in
  check_diags "per-file rules see nothing" []
    (Lint.lint_files ~only:per_file_effect_rules [ tree ]);
  (* [racy_work] captures a mutated top-level ref; [pure_work]'s local
     accumulator is fine. *)
  check_diags "only the racy work unit is flagged"
    [ (Filename.concat tree "lib/sim/worker.ml", 9, "R9") ]
    (Lint.lint_files ~only:[ Lint.R9 ] [ tree ])

let test_r10_transitive_raise () =
  let tree = ip "raise" in
  (* R3 only sees raising tokens inside validate.ml itself — there are
     none; the exception is three calls away. *)
  check_diags "R3 alone misses the chain" []
    (Lint.lint_files ~only:[ Lint.R3 ] [ tree ]);
  let diags = Lint.lint_files ~only:[ Lint.R10 ] [ tree ] in
  check_diags "R10 flags the entry point of the 3-hop chain"
    [ (Filename.concat tree "lib/chain/validate.ml", 4, "R10") ]
    diags;
  (match diags with
  | [ d ] ->
      Alcotest.(check int) "the rendered path has 4 hops (3 defs + origin)" 4
        (List.length d.notes)
  | _ -> Alcotest.fail "expected exactly one R10 diagnostic");
  last_note "path ends at the raising primitive" "invalid_arg" diags

let test_fixpoint_mutual_recursion () =
  (* validate.ml and helper.ml call each other across compilation units;
     the fixpoint must terminate (divergence raises Failure via the
     round bail-out) and the raise must surface at the entry point. *)
  let tree = ip "mutual" in
  check_diags "cycle converges and the raise surfaces"
    [ (Filename.concat tree "lib/chain/validate.ml", 4, "R10") ]
    (Lint.lint_files ~only:[ Lint.R8; Lint.R9; Lint.R10 ] [ tree ])

let test_r8_nested_structures () =
  (* The file's [open] must reach a nested module and a functor body: the
     clock is named only through it, so without the enclosing opens both
     [tick] and [stamp] stay unresolved and R8 sees nothing. *)
  let tree = ip "nested" in
  let file = Filename.concat tree "lib/sim/ticker.ml" in
  check_diags "nested module, functor body and the use of its application"
    [ (file, 7, "R8"); (file, 14, "R8"); (file, 21, "R8") ]
    (Lint.lint_files ~only:[ Lint.R8 ] [ tree ])

let test_seed_suppression_counted () =
  (* An allow comment at the raising occurrence stops the Raises effect at
     its origin — the downstream entry point stays total — and the report
     counts the silenced origin instead of dropping it silently. *)
  let r = Lint.lint_files_report ~only:[ Lint.R10 ] [ ip "suppress" ] in
  Alcotest.(check (list (triple string int string))) "no violations reach the entry point" []
    (summarize r.diags);
  Alcotest.(check int) "the silenced origin is counted" 1 r.seed_suppressions;
  (* Without the suppression machinery the same tree would be flagged:
     the unsuppressed 3-hop fixture proves the effect does propagate. *)
  let r' = Lint.lint_files_report ~only:[ Lint.R10 ] [ ip "raise" ] in
  Alcotest.(check int) "unsuppressed origin still propagates" 1 (List.length r'.diags);
  Alcotest.(check int) "and is not counted as silenced" 0 r'.seed_suppressions

(* --- R12: an export needs a user ----------------------------------------- *)

(* fixtures/r12 is a miniature tree (lib/util, lib/sim, lib/experiments,
   bin) plus a test/ directory that is deliberately not linted, so that a
   use from it counts for nothing. lib/util/used.mli holds one export per
   case; lib/util/base.ml is re-exported by extended.ml's [include]. *)
let r12_tree = fx "r12"
let r12_used = Filename.concat r12_tree "lib/util/used.mli"

let r12_report () =
  Lint.lint_files_report ~only:[ Lint.R12 ]
    [ Filename.concat r12_tree "lib"; Filename.concat r12_tree "bin" ]

let r12_lines file (r : Lint.report) =
  List.filter_map
    (fun (d : Lint.diag) -> if String.equal d.file file then Some d.line else None)
    r.diags

let test_r12_cross_unit_clean () =
  (* used_elsewhere (line 3) and doubled_succ (line 9) are called from
     lib/sim/consumer.ml; consumer and the registry from bin/main.ml. *)
  let lines = r12_lines r12_used (r12_report ()) in
  Alcotest.(check bool) "used_elsewhere clean" false (List.mem 3 lines);
  Alcotest.(check bool) "doubled_succ clean" false (List.mem 9 lines);
  check_diags "consumer and registry clean" []
    (List.filter
       (fun (d : Lint.diag) -> not (String.equal d.file r12_used))
       (r12_report ()).diags)

let test_r12_unused_flagged () =
  (* only_here is called only inside used.ml; only_tests only from the
     unlinted test/ directory. Both are reported at their [val] line. *)
  check_diags "own-file and test-only exports flagged at the .mli"
    [ (r12_used, 6, "R12"); (r12_used, 11, "R12") ]
    (r12_report ()).diags;
  let with_tests =
    Lint.lint_files ~only:[ Lint.R12 ]
      [ Filename.concat r12_tree "lib"; Filename.concat r12_tree "bin";
        Filename.concat r12_tree "test" ]
  in
  check_diags "a linted test/ would count as a user" [ (r12_used, 6, "R12") ] with_tests

let test_r12_module_uses () =
  (* E01 is used only as a first-class module, E02 only as a functor
     argument (the registry pattern); the module type's [val]s in
     registry.mli are a signature, not exports. *)
  let r = r12_report () in
  List.iter
    (fun unit ->
      Alcotest.(check (list int)) (unit ^ " clean") []
        (r12_lines (Filename.concat r12_tree ("lib/experiments/" ^ unit ^ ".mli")) r))
    [ "e01"; "e02"; "registry" ]

let test_r12_include_reexport () =
  (* Base.shared is named only as Extended.shared, through Extended's
     [include Base]: the reference resolves to Base's definition. *)
  Alcotest.(check (list int)) "base.mli clean" []
    (r12_lines (Filename.concat r12_tree "lib/util/base.mli") (r12_report ()))

let test_r12_module_declarations () =
  (* fixtures/r12/modules: lib/util/kit.mli declares one module per case.
     A first-class module, a value read inside a declared module, a
     functor application's module and a functor applied by a module
     binding in another unit are uses; a module type and an alias are out
     of scope. Unused (no user) and Own (named only in its own unit) are
     reported at their [module] line. *)
  let tree = Filename.concat r12_tree "modules" in
  check_diags "unused module declarations flagged"
    [ (Filename.concat tree "lib/util/kit.mli", 22, "R12");
      (Filename.concat tree "lib/util/kit.mli", 25, "R12") ]
    (Lint.lint_files ~only:[ Lint.R12 ]
       [ Filename.concat tree "lib"; Filename.concat tree "bin" ])

let test_r12_allow_counted () =
  (* hook (line 15) sits under an allow R12 comment: no diagnostic, and
     the summary counts it. *)
  let r = r12_report () in
  Alcotest.(check bool) "hook not reported" false (List.mem 15 (r12_lines r12_used r));
  Alcotest.(check int) "suppression counted" 1 r.suppressed

let test_r12_rule_metadata () =
  Alcotest.(check bool) "in all_rules" true (List.mem Lint.R12 Lint.all_rules);
  Alcotest.(check (option string)) "rule_of_string" (Some "R12")
    (Option.map Lint.rule_name (Lint.rule_of_string "R12"));
  if Sys.file_exists exe then begin
    let out = Filename.temp_file "fruitlint" ".sarif" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        ignore
          (Sys.command
             (Filename.quote_command exe ~stdout:out
                [ "--only"; "R12"; "--format"; "sarif"; Filename.concat r12_tree "lib" ]));
        let sarif = In_channel.with_open_bin out In_channel.input_all in
        let has needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length sarif && (String.equal (String.sub sarif i n) needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "SARIF rule metadata names R12" true
          (has "{\"id\":\"R12\",\"name\":\"R12\""))
  end

(* --- CLI exit codes --------------------------------------------------- *)

let run_cli args =
  match Sys.command (Filename.quote_command exe args ~stdout:Filename.null) with
  | code -> code

let test_cli_exit () =
  if not (Sys.file_exists exe) then () (* exe not staged in this runner; library tests cover the rules *)
  else begin
    Alcotest.(check int) "violations exit 1" 1
      (run_cli [ "--only"; "R1"; fx "lib/sim/r1_bad.ml" ]);
    Alcotest.(check int) "clean input exits 0" 0
      (run_cli [ "--only"; "R1"; fx "lib/sim/r1_ok.ml" ]);
    Alcotest.(check int) "unknown path exits 2" 2 (run_cli [ fx "no/such/path.ml" ])
  end

(* --- The real tree ----------------------------------------------------- *)

let test_tree_clean () =
  (* Tests run from _build/default/test; the build has already copied the
     sources of every built directory next to it. The roots are the
     directories that link lib/, as in the root dune file's lint rule, so
     R12 sees the same users. *)
  let roots =
    List.filter Sys.file_exists
      (List.map
         (fun d -> Filename.concat Filename.parent_dir_name d)
         [ "lib"; "bin"; "bench"; "examples"; "fruitbench"; "tools" ])
  in
  match roots with
  | [] -> Alcotest.skip ()
  | roots -> check_diags "every directory that links lib/ is lint-clean" [] (Lint.lint_files roots)

let () =
  Alcotest.run "lint"
    [
      ( "R1 determinism",
        [
          Alcotest.test_case "fires" `Quick test_r1_fires;
          Alcotest.test_case "clean" `Quick test_r1_clean;
          Alcotest.test_case "allowlist" `Quick test_r1_allowlist;
        ] );
      ( "R2 poly compare",
        [
          Alcotest.test_case "fires" `Quick test_r2_fires;
          Alcotest.test_case "clean" `Quick test_r2_clean;
          Alcotest.test_case "scoped" `Quick test_r2_scoped;
          Alcotest.test_case "net in scope" `Quick test_r2_net;
          Alcotest.test_case "sim in scope" `Quick test_r2_sim;
          Alcotest.test_case "adversary in scope" `Quick test_r2_adversary;
        ] );
      ( "R3 totality",
        [
          Alcotest.test_case "fires" `Quick test_r3_fires;
          Alcotest.test_case "scoped" `Quick test_r3_scoped;
          Alcotest.test_case "clean" `Quick test_r3_clean;
        ] );
      ("R4 interfaces", [ Alcotest.test_case "missing mli" `Quick test_r4 ]);
      ( "R5 concurrency confinement",
        [
          Alcotest.test_case "fires" `Quick test_r5_fires;
          Alcotest.test_case "clean" `Quick test_r5_clean;
          Alcotest.test_case "allowlist" `Quick test_r5_allowlist;
          Alcotest.test_case "module alias" `Quick test_r5_module_alias;
        ] );
      ( "R6 clock confinement",
        [
          Alcotest.test_case "fires" `Quick test_r6_fires;
          Alcotest.test_case "clean" `Quick test_r6_clean;
          Alcotest.test_case "allowlist" `Quick test_r6_allowlist;
          Alcotest.test_case "distinct from R1" `Quick test_r6_distinct_from_r1;
        ] );
      ( "R7 input confinement",
        [
          Alcotest.test_case "fires" `Quick test_r7_fires;
          Alcotest.test_case "clean" `Quick test_r7_clean;
          Alcotest.test_case "allowlist" `Quick test_r7_allowlist;
          Alcotest.test_case "scoped to lib" `Quick test_r7_scoped_to_lib;
        ] );
      ( "R11 FFI confinement",
        [
          Alcotest.test_case "fires" `Quick test_r11_fires;
          Alcotest.test_case "clean" `Quick test_r11_clean;
          Alcotest.test_case "allowlist" `Quick test_r11_allowlist;
          Alcotest.test_case "not scoped to lib" `Quick test_r11_not_scoped_to_lib;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "per rule" `Quick test_suppression_is_per_rule;
          Alcotest.test_case "multi rule" `Quick test_suppression_multi_rule;
        ] );
      ( "R8-R10 interprocedural",
        [
          Alcotest.test_case "module-alias laundering" `Quick test_r8_module_alias_laundering;
          Alcotest.test_case "include re-export" `Quick test_r8_include_reexport;
          Alcotest.test_case "partial application" `Quick test_r8_partial_application;
          Alcotest.test_case "functor smuggling" `Quick test_r8_functor_smuggling;
          Alcotest.test_case "pool capture race" `Quick test_r9_pool_capture;
          Alcotest.test_case "transitive raise chain" `Quick test_r10_transitive_raise;
          Alcotest.test_case "mutual recursion fixpoint" `Quick test_fixpoint_mutual_recursion;
          Alcotest.test_case "seed suppression counted" `Quick test_seed_suppression_counted;
          Alcotest.test_case "nested module and functor body" `Quick test_r8_nested_structures;
        ] );
      ( "R12 unused exports",
        [
          Alcotest.test_case "cross-unit use is clean" `Quick test_r12_cross_unit_clean;
          Alcotest.test_case "own-file or test-only use flagged" `Quick test_r12_unused_flagged;
          Alcotest.test_case "module uses count" `Quick test_r12_module_uses;
          Alcotest.test_case "include re-export is a use" `Quick test_r12_include_reexport;
          Alcotest.test_case "module declarations" `Quick test_r12_module_declarations;
          Alcotest.test_case "allow comment counted" `Quick test_r12_allow_counted;
          Alcotest.test_case "rule metadata" `Quick test_r12_rule_metadata;
        ] );
      ("cli", [ Alcotest.test_case "exit codes" `Quick test_cli_exit ]);
      ("tree", [ Alcotest.test_case "lint-clean" `Quick test_tree_clean ]);
    ]
