(* fruitlint — repo-specific static-analysis rules for determinism and
   protocol invariants, built on compiler-libs (Parse + Ast_iterator, no
   typing pass, no ppx).

   Rules:
     R1  determinism: no Stdlib.Random, Sys.time, Unix.*, Hashtbl.hash
         outside lib/util/rng.ml and the allowlist — all randomness must
         flow through Fruitchain_util.Rng split streams.
     R2  no polymorphic compare/equality (=, <>, ==, !=, compare) in
         lib/chain/, lib/crypto/, lib/core/, lib/net/, lib/sim/,
         lib/adversary/, lib/nakamoto/ — structural compare on digests
         and mutable state is a correctness trap (in lib/net it once
         ordered envelopes with polymorphic compare over messages).
     R3  total validation: no failwith/invalid_arg/raise/assert in
         lib/chain/validate.ml and lib/core/extract.ml — hot validation
         paths must return [result].
     R4  interface completeness: every .ml under lib/ has a matching .mli.
     R5  concurrency confinement: Domain/Atomic/Mutex/Condition may appear
         only in lib/util/pool.ml — everything else goes through the
         deterministic worker pool (Fruitchain_util.Pool), so scheduling
         can never leak into results.
     R6  clock confinement: wall-clock reads (Unix.gettimeofday, Unix.time,
         Sys.time, ...) may appear only in lib/obs/clock.ml — telemetry
         timing goes through Fruitchain_obs.Clock, so a grep of that one
         file audits every place time can leak in.

     R7  input confinement: file reads (open_in* and In_channel) under lib/
         may appear only in lib/scenario/loader.ml and
         lib/chain/snapshot.ml — library results must be functions of
         explicit arguments, not of ambient files, so a grep of two files
         audits every input path.

   Whole-program rules, run on the interprocedural effect fixpoint
   (Graph + Effects) rather than per file:

     R8  effect confinement: a binding under lib/ outside the blessed
         capability modules may not transitively reach Rng/Clock/Io/
         DomainPrim — aliasing a primitive through helper modules
         ("effect laundering") is flagged at the origin binding, with the
         effect path to the primitive printed in the diagnostic.
     R9  static race detection: a closure flowing into a deterministic
         pool fan-out (Pool.map, Runs.run_parallel) that
         captures a binding reaching mutated top-level state is flagged —
         schedule-dependent shared state breaks jobs-invariance in ways
         the determinism harness can only catch probabilistically.
     R10 transitive totality: R3's no-raise guarantee extended through
         the call graph — every binding in validate.ml/extract.ml must be
         Raises-free after try-absorption, however deep the raising
         callee.

   Foreign-code confinement, per file:

     R11 [external] declarations only in lib/crypto/sha256.ml — effect
         inference assumes an unresolved identifier is pure, so a C
         primitive anywhere else would escape R1, R8 and R10 unseen.

   Interface economy, on the same def/use graph:

     R12 every top-level [val] and [module M : ...] declaration of a lib/
         interface has a user in another compilation unit of the linted
         tree — an export nothing outside its file uses is either dead or
         an internal helper.

   Suppression: a comment containing "fruitlint: allow R<n>[, R<m> ...]"
   silences those rules on its own line and on the following line;
   "fruitlint: allow-file R<n>[, R<m> ...]" silences them for the whole
   file.  For R10 an allow comment at the raising occurrence suppresses
   at the origin: that occurrence stops transmitting Raises, so every
   entry point reached through it is covered by the one justification. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11 | R12

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; R10; R11; R12 ]

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | R12 -> "R12"

let rule_of_string = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R11" -> Some R11
  | "R12" -> Some R12
  | _ -> None

(* One-line rule documentation, used by the SARIF emitter's rule
   metadata and by --help. *)
let rule_doc = function
  | R1 -> "determinism: all randomness flows through Fruitchain_util.Rng split streams"
  | R2 ->
      "no polymorphic compare/equality in lib/chain, lib/crypto, lib/core, lib/net, lib/sim, \
       lib/adversary, lib/nakamoto"
  | R3 -> "total validation: no raise forms in lib/chain/validate.ml and lib/core/extract.ml"
  | R4 -> "interface completeness: every .ml under lib/ has a matching .mli"
  | R5 -> "concurrency confinement: Domain/Atomic/Mutex/Condition only in lib/util/pool.ml"
  | R6 -> "clock confinement: wall-clock reads only in lib/obs/clock.ml"
  | R7 -> "input confinement: file reads only in the scenario loader and the chain snapshot store"
  | R8 -> "effect confinement: no transitive Rng/Clock/Io/DomainPrim outside the blessed capability modules"
  | R9 -> "static race detection: pool work units must not capture mutated top-level state"
  | R10 -> "transitive totality: validation entry points are raise-free through their whole call chain"
  | R11 -> "foreign-code confinement: external declarations only in lib/crypto/sha256.ml"
  | R12 -> "interface economy: every val and module of a lib/ interface is used by another unit"

type diag = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
  notes : string list;
      (* effect-path steps for interprocedural diagnostics, origin first *)
}

let pp_diag fmt d =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" d.file d.line d.col (rule_name d.rule) d.msg;
  match d.notes with
  | [] -> ()
  | ns -> Format.fprintf fmt "\n    path: %s" (String.concat " -> " ns)

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule)

exception Lint_error of string

(* ------------------------------------------------------------------ *)
(* Path scoping.  Rules are keyed on path *components* so the linter
   behaves identically whether it is invoked from the workspace root
   ([lib/chain/store.ml]) or from a test directory against copied
   fixtures ([fixtures/lib/chain/store.ml]). *)

let components path =
  String.split_on_char '/' path
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun s ->
         not (String.equal s "" || String.equal s "." || String.equal s ".."))

let rec has_prefix sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | s :: sub', x :: l' -> String.equal s x && has_prefix sub' l'

let rec contains_sublist sub l =
  match l with
  | [] -> ( match sub with [] -> true | _ -> false)
  | _ :: tl -> has_prefix sub l || contains_sublist sub tl

(* Determinism allowlist: files where R1 does not apply.  [lib/util/rng.ml]
   is the single blessed source of randomness; everything else must reach
   it through [Fruitchain_util.Rng]. *)
let r1_allowlist = [ [ "lib"; "util"; "rng.ml" ]; [ "lib"; "obs"; "clock.ml" ] ]

(* Directories where polymorphic compare on digest-bearing values is a
   correctness trap. lib/net is included because envelope ordering is the
   delivery-determinism contract: comparing whole messages structurally
   would make it depend on payload representation. lib/sim is included
   because it orders schedules and compares heads and configurations that
   every golden table depends on. lib/adversary and lib/nakamoto are
   included because they mine: they compare heads, heights and protocol
   tags on the same hot path as lib/core's node. *)
let r2_dirs =
  [
    [ "lib"; "chain" ];
    [ "lib"; "crypto" ];
    [ "lib"; "core" ];
    [ "lib"; "net" ];
    [ "lib"; "sim" ];
    [ "lib"; "adversary" ];
    [ "lib"; "nakamoto" ];
  ]

(* Hot validation paths that must stay total ([result], never [raise]). *)
let r3_files = [ [ "lib"; "chain"; "validate.ml" ]; [ "lib"; "core"; "extract.ml" ] ]

let r1_applies path =
  not (List.exists (fun a -> contains_sublist a (components path)) r1_allowlist)

let r2_applies path =
  let cs = components path in
  List.exists (fun d -> contains_sublist d cs) r2_dirs

let r3_applies path =
  let cs = components path in
  List.exists (fun f -> contains_sublist f cs) r3_files

let r4_applies path = contains_sublist [ "lib" ] (components path)

(* Concurrency confinement: the deterministic worker pool is the single
   place allowed to touch domains and their synchronisation primitives. *)
let r5_allowlist = [ [ "lib"; "util"; "pool.ml" ] ]

let r5_applies path =
  not (List.exists (fun a -> contains_sublist a (components path)) r5_allowlist)

(* Clock confinement: the observability layer's clock module is the single
   place allowed to read wall-clock time. *)
let r6_allowlist = [ [ "lib"; "obs"; "clock.ml" ] ]

let r6_applies path =
  not (List.exists (fun a -> contains_sublist a (components path)) r6_allowlist)

(* Input confinement: under lib/, only the scenario loader and the chain
   snapshot store may open files for reading.  bin/, bench/ and tools/ are
   CLIs — reading files is their job. *)
let r7_allowlist =
  [ [ "lib"; "scenario"; "loader.ml" ]; [ "lib"; "chain"; "snapshot.ml" ] ]

let r7_applies path =
  let cs = components path in
  contains_sublist [ "lib" ] cs
  && not (List.exists (fun a -> contains_sublist a cs) r7_allowlist)

(* Foreign-code confinement: the SHA-256 block functions and their CPUID
   probe are the only C primitives, and the effect analysis cannot see
   inside C, so every [external] is pinned to the module that declares
   them. *)
let r11_allowlist = [ [ "lib"; "crypto"; "sha256.ml" ] ]

let r11_applies path =
  not (List.exists (fun a -> contains_sublist a (components path)) r11_allowlist)

(* ------------------------------------------------------------------ *)
(* Suppression comments.  Two forms:

     fruitlint: allow R<n>[, R<m> ...]       — covers its own line and the
                                               next line
     fruitlint: allow-file R<n>[, R<m> ...]  — covers the whole file

   Rule lists may be separated by spaces or commas (a trailing comma used
   to stop the parser at "R1," and silently suppress nothing after it). *)

let marker = "fruitlint: allow"
let file_marker_suffix = "-file"

type suppr = {
  s_lines : (int * string, unit) Hashtbl.t; (* (line, rule name) *)
  s_file : (string, unit) Hashtbl.t; (* rule name *)
}

let empty_suppr = { s_lines = Hashtbl.create 1; s_file = Hashtbl.create 1 }

let suppr_mem s ~line rule =
  let n = rule_name rule in
  Hashtbl.mem s.s_file n || Hashtbl.mem s.s_lines (line, n)

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.equal (String.sub hay i nn) needle then Some i else go (i + 1) in
  go 0

let has_prefix_str p s =
  String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p

let suppressions content =
  let s = { s_lines = Hashtbl.create 8; s_file = Hashtbl.create 4 } in
  let lines = String.split_on_char '\n' content in
  List.iteri
    (fun i line ->
      match find_substring line marker with
      | None -> ()
      | Some at ->
          let rest = String.sub line (at + String.length marker) (String.length line - at - String.length marker) in
          (* "fruitlint: allow" is a prefix of "fruitlint: allow-file";
             disambiguate on what follows the shared marker. *)
          let file_scoped = has_prefix_str file_marker_suffix rest in
          let rest =
            if file_scoped then
              String.sub rest (String.length file_marker_suffix)
                (String.length rest - String.length file_marker_suffix)
            else rest
          in
          let tokens =
            String.split_on_char ' ' rest
            |> List.concat_map (String.split_on_char ',')
            |> List.concat_map (String.split_on_char '*')
            |> List.concat_map (String.split_on_char ')')
            |> List.filter (fun tok -> not (String.equal tok ""))
          in
          (* Stop at the first token that is not a rule id, so prose after
             the rule list does not accidentally widen the suppression. *)
          let rec add = function
            | [] -> ()
            | t :: tl -> (
                match rule_of_string t with
                | Some r ->
                    let n = rule_name r in
                    if file_scoped then Hashtbl.replace s.s_file n ()
                    else begin
                      Hashtbl.replace s.s_lines (i + 1, n) ();
                      Hashtbl.replace s.s_lines (i + 2, n) ()
                    end;
                    add tl
                | None -> ())
          in
          add tokens)
    lines;
  s

(* ------------------------------------------------------------------ *)
(* Identifier classification.  We work purely syntactically: a qualified
   path is flattened and an optional leading [Stdlib] is stripped, so
   [Random.int], [Stdlib.Random.int] and [Stdlib.compare] all normalise
   to the same shape. *)

let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | l -> l

let flatten lid = try Longident.flatten lid with _ -> []

let r1_violation lid =
  match strip_stdlib (flatten lid) with
  | "Random" :: _ ->
      Some "Stdlib.Random breaks seed-determinism; use Fruitchain_util.Rng split streams"
  | "Unix" :: _ -> Some "Unix.* leaks wall-clock/system state into the simulation"
  | [ "Sys"; "time" ] -> Some "Sys.time is wall-clock dependent; thread simulated rounds instead"
  | [ "Hashtbl"; "hash" ] | [ "Hashtbl"; "seeded_hash" ] | [ "Hashtbl"; "hash_param" ] ->
      Some "polymorphic Hashtbl.hash depends on OCaml version and traversal limits; derive hashes from digest bytes"
  | _ -> None

let r2_violation lid =
  match strip_stdlib (flatten lid) with
  | [ ("=" | "<>" | "==" | "!=" | "compare") as op ] ->
      Some
        (Printf.sprintf
           "polymorphic %s on digest-bearing values is a correctness trap; use Hash.equal/String.equal/Int.equal or a typed compare"
           (match op with "compare" -> "compare" | o -> "( " ^ o ^ " )"))
  | _ -> None

let r3_violation lid =
  match strip_stdlib (flatten lid) with
  | [ ("failwith" | "invalid_arg" | "raise" | "raise_notrace") as f ] ->
      Some (Printf.sprintf "%s in a total-validation hot path; return a [result] instead" f)
  | _ -> None

let r5_violation lid =
  match strip_stdlib (flatten lid) with
  | (("Domain" | "Atomic" | "Mutex" | "Condition") as m) :: _ ->
      Some
        (Printf.sprintf
           "%s.* is confined to lib/util/pool.ml; express parallel work as index-seeded \
            units and run them through Fruitchain_util.Pool"
           m)
  | _ -> None

let r6_violation lid =
  match strip_stdlib (flatten lid) with
  | [ "Unix"; ("gettimeofday" | "time" | "gmtime" | "localtime" | "mktime" | "clock") ]
  | [ "Sys"; "time" ] ->
      Some
        "wall-clock reads are confined to lib/obs/clock.ml; time telemetry goes through \
         Fruitchain_obs.Clock"
  | _ -> None

let r7_violation lid =
  match strip_stdlib (flatten lid) with
  | [ ("open_in" | "open_in_bin" | "open_in_gen") as f ] ->
      Some
        (Printf.sprintf
           "%s is confined to lib/scenario/loader.ml and lib/chain/snapshot.ml; pass \
            contents in, or extend the loader"
           f)
  | "In_channel" :: _ ->
      Some
        "In_channel.* is confined to lib/scenario/loader.ml and lib/chain/snapshot.ml; \
         pass contents in, or extend the loader"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* AST traversal. *)

let lint_structure ~path ~only structure =
  let diags = ref [] in
  let enabled r = List.exists (fun r' -> String.equal (rule_name r) (rule_name r')) only in
  let r1 = enabled R1 && r1_applies path in
  let r2 = enabled R2 && r2_applies path in
  let r3 = enabled R3 && r3_applies path in
  let r5 = enabled R5 && r5_applies path in
  let r6 = enabled R6 && r6_applies path in
  let r7 = enabled R7 && r7_applies path in
  let r11 = enabled R11 && r11_applies path in
  let push (loc : Location.t) rule msg =
    let p = loc.loc_start in
    diags :=
      { file = path; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; msg; notes = [] }
      :: !diags
  in
  let check_ident loc lid =
    if r1 then Option.iter (push loc R1) (r1_violation lid);
    if r2 then Option.iter (push loc R2) (r2_violation lid);
    if r3 then Option.iter (push loc R3) (r3_violation lid);
    if r5 then Option.iter (push loc R5) (r5_violation lid);
    if r6 then Option.iter (push loc R6) (r6_violation lid);
    if r7 then Option.iter (push loc R7) (r7_violation lid)
  in
  let super = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident e.pexp_loc txt
    | Pexp_assert _ when r3 ->
        push e.pexp_loc R3 "assert in a total-validation hot path; return a [result] instead"
    | _ -> ());
    super.expr self e
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; _ } ->
        (* Catches [open Unix], [module R = Random], [include Domain]. *)
        if r1 then Option.iter (push m.pmod_loc R1) (r1_violation txt);
        if r5 then Option.iter (push m.pmod_loc R5) (r5_violation txt);
        if r7 then Option.iter (push m.pmod_loc R7) (r7_violation txt)
    | _ -> ());
    super.module_expr self m
  in
  let structure_item self (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Pstr_primitive { pval_name; _ } when r11 ->
        push si.pstr_loc R11
          (Printf.sprintf
             "external %s: foreign primitives are confined to lib/crypto/sha256.ml; the \
              effect rules cannot see into C"
             pval_name.txt)
    | _ -> ());
    super.structure_item self si
  in
  let iter = { super with expr; module_expr; structure_item } in
  iter.structure iter structure;
  !diags

(* ------------------------------------------------------------------ *)
(* Capability policy for the whole-program rules.  Two kinds of blessed
   module:

   - absorbers: the sanctioned entry points for an effect.  References to
     them contribute nothing for the absorbed bits — calling
     [Fruitchain_util.Rng.split] is how a caller is *supposed* to hold
     randomness, so the Rng effect stops there.  Rng and Pool also absorb
     MutGlobal (their internal state is the blessed implementation of the
     capability, not shared simulation state).
   - carriers: [Fruitchain_obs.Clock] may hold the Clock effect but does
     NOT absorb it — every reference propagates Clock virally, so an
     alias chain ([let now = Clock.now_s] re-exported from a helper) is
     flagged by R8 at the first non-blessed binding, which the old
     per-file pass could not see.  lib/ has no legitimate clock readers;
     bench/bin are outside R8's scope and may time things. *)

let capability_absorbers =
  [
    ("Fruitchain_util.Rng", Effects.eff_rng lor Effects.eff_mut);
    ("Fruitchain_util.Pool", Effects.eff_domain lor Effects.eff_mut);
    ("Fruitchain_scenario.Loader", Effects.eff_io);
    ("Fruitchain_chain.Snapshot", Effects.eff_io);
  ]

let capability_carriers = [ "Fruitchain_obs.Clock" ]

(* [name_under "A.B" "A.B.c"] — prefix match on '.'-boundaries only. *)
let name_under prefix name =
  let np = String.length prefix and nn = String.length name in
  nn >= np
  && String.equal (String.sub name 0 np) prefix
  && (Int.equal nn np || Char.equal name.[np] '.')

let absorbs name =
  List.fold_left
    (fun acc (p, m) -> if name_under p name then acc lor m else acc)
    0 capability_absorbers

let r8_exempt name =
  List.exists (fun (p, _) -> name_under p name) capability_absorbers
  || List.exists (fun p -> name_under p name) capability_carriers

let r8_applies path = contains_sublist [ "lib" ] (components path)
let r10_applies = r3_applies

(* ------------------------------------------------------------------ *)

let parse_with ~path parse content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  try parse lexbuf
  with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    raise (Lint_error (Printf.sprintf "%s: parse error: %s" path msg))

(* ------------------------------------------------------------------ *)
(* Whole-program pass: build the def/use graph over every parsed unit,
   run the effect fixpoint, and translate R8/R9/R10 findings into diags.
   [suppr_of] feeds origin-site R10 suppression into effect seeding. *)

let rule_enabled only r =
  List.exists (fun r' -> String.equal (rule_name r) (rule_name r')) only

let interproc ~only graph suppr_of =
  if not (List.exists (rule_enabled only) [ R8; R9; R10 ]) then ([], 0)
  else begin
    let g = Lazy.force graph in
    let cfg =
      {
        Effects.absorbs;
        r8_exempt;
        r8_scope = r8_applies;
        r9_scope = (fun _ -> true);
        r10_entry = r10_applies;
        raises_suppressed = (fun ~file ~line -> suppr_mem (suppr_of file) ~line R10);
      }
    in
    let res = Effects.analyze cfg g in
    let diags =
      List.filter_map
        (fun (f : Effects.finding) ->
          let rule =
            match f.f_rule with Effects.R8 -> R8 | Effects.R9 -> R9 | Effects.R10 -> R10
          in
          if rule_enabled only rule then
            Some
              {
                file = f.f_file;
                line = f.f_line;
                col = f.f_col;
                rule;
                msg = f.f_msg;
                notes = f.f_path;
              }
          else None)
        res.findings
    in
    (diags, res.seed_suppressions)
  end

(* R12: an export needs a user.  A [val] of a lib/ interface is used when
   a resolved occurrence in a definition or module of another file names
   its definition, or when another file names the unit itself as a module
   (a first-class [(module U)] or a functor argument), which may reach
   every value of the unit.  A [module M : ...] declaration is used when
   such an occurrence, or another file's functor application, lands on M
   or anything inside it.  A module alias is no use: references made
   through it already resolve to the definitions.  Test code is not in
   the linted tree, so a value only tests call needs an allow comment. *)

let unused_exports (g : Graph.t) interfaces =
  let is_unit (m : Graph.mnode) =
    match m.m_parent with Some p -> g.g_mods.(p).m_kind = Graph.M_library | None -> false
  in
  let used = Array.make (Array.length g.g_defs) false in
  let unit_used = Array.make (Array.length g.g_mods) false in
  let mod_used = Array.make (Array.length g.g_mods) false in
  (* A use of anything inside a module uses the module and each module
     enclosing it. *)
  let rec mark_mod file id =
    let m = g.g_mods.(id) in
    if not (String.equal m.m_file file) then begin
      mod_used.(id) <- true;
      Option.iter (mark_mod file) m.m_parent
    end
  in
  let mark file (o : Graph.occ) =
    match o.o_target with
    | Some (T_def id) ->
        let d = g.g_defs.(id) in
        if not (String.equal d.d_file file) then used.(id) <- true;
        mark_mod file d.d_mod
    | Some (T_mod id) ->
        let m = g.g_mods.(id) in
        if is_unit m && not (String.equal m.m_file file) then unit_used.(id) <- true;
        mark_mod file id
    | None -> ()
  in
  Array.iter (fun (d : Graph.def) -> List.iter (mark d.d_file) d.d_occs) g.g_defs;
  Array.iter
    (fun (m : Graph.mnode) ->
      List.iter (mark m.m_file) m.m_occs;
      Option.iter (mark_mod m.m_file) m.m_func_target)
    g.g_mods;
  let unit_of_impl = Hashtbl.create 64 in
  Array.iter (fun (m : Graph.mnode) -> if is_unit m then Hashtbl.replace unit_of_impl m.m_file m) g.g_mods;
  let unused_in (file, (sg : Parsetree.signature)) =
    let impl = Filename.chop_suffix file ".mli" ^ ".ml" in
    match (Graph.unit_of_file impl, Hashtbl.find_opt unit_of_impl impl) with
    | `Lib (_, unit_name), Some u when not unit_used.(u.m_id) ->
        let unused table flags name =
          match Hashtbl.find_opt table name with Some id -> not flags.(id) | None -> false
        in
        List.filter_map
          (fun (item : Parsetree.signature_item) ->
            let export =
              match item.psig_desc with
              | Psig_value { pval_name = { txt = name; _ }; _ }
                when unused u.m_values used name ->
                  Some ("", name)
              | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ }
                when (match pmd_type.pmty_desc with Pmty_alias _ -> false | _ -> true)
                     && unused u.m_mods mod_used name ->
                  Some ("module ", name)
              | _ -> None
            in
            Option.map
              (fun (kind, name) ->
                let p = item.psig_loc.loc_start in
                {
                  file;
                  line = p.pos_lnum;
                  col = p.pos_cnum - p.pos_bol;
                  rule = R12;
                  msg =
                    Printf.sprintf
                      "%s%s.%s is exported but unused by any other unit of the linted tree; \
                       delete it, drop it from the interface, or mark a test hook with \
                       \"fruitlint: allow R12 <reason>\""
                      kind unit_name name;
                  notes = [];
                })
              export)
          sg
    | _ -> []
  in
  List.concat_map unused_in interfaces

let lint_source ?(only = all_rules) ~path content =
  if Filename.check_suffix path ".mli" then begin
    (* Interfaces carry no expressions; parsing validates the syntax and
       keeps the CLI honest about having visited every file. *)
    ignore (parse_with ~path Parse.interface content);
    []
  end
  else begin
    let str = parse_with ~path Parse.implementation content in
    let suppr = suppressions content in
    let per_file = lint_structure ~path ~only str in
    let inter, _ = interproc ~only (lazy (Graph.build [ (path, str) ])) (fun _ -> suppr) in
    per_file @ inter
    |> List.filter (fun d -> not (suppr_mem suppr ~line:d.line d.rule))
    |> List.sort compare_diag
  end

(* ------------------------------------------------------------------ *)
(* Filesystem driver. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if String.length name > 0 && Char.equal name.[0] '.' then acc
           else if String.equal name "_build" then acc
           else collect acc (Filename.concat path name))
         acc
  else if is_source path then path :: acc
  else acc

let missing_interface path =
  (* R4: a compilation unit under lib/ without an interface leaks its whole
     namespace and dodges review of its contract. *)
  Filename.check_suffix path ".ml"
  && r4_applies path
  && not (Sys.file_exists (Filename.chop_suffix path ".ml" ^ ".mli"))

type report = {
  diags : diag list;
  suppressed : int; (* diagnostics silenced by allow/allow-file comments *)
  seed_suppressions : int; (* R10 origins silenced at the raising occurrence *)
  files_scanned : int;
}

let lint_files_report ?(only = all_rules) paths =
  let files = List.fold_left collect [] paths |> List.sort String.compare in
  let r4_enabled = rule_enabled only R4 in
  let supprs : (string, suppr) Hashtbl.t = Hashtbl.create 64 in
  let suppr_of file =
    match Hashtbl.find_opt supprs file with Some s -> s | None -> empty_suppr
  in
  let units = ref [] in
  let interfaces = ref [] in
  let raw =
    List.concat_map
      (fun file ->
        let content = read_file file in
        Hashtbl.replace supprs file (suppressions content);
        if Filename.check_suffix file ".mli" then begin
          interfaces := (file, parse_with ~path:file Parse.interface content) :: !interfaces;
          []
        end
        else begin
          let str = parse_with ~path:file Parse.implementation content in
          units := (file, str) :: !units;
          let ds = lint_structure ~path:file ~only str in
          if r4_enabled && missing_interface file then
            { file; line = 1; col = 0; rule = R4;
              msg = "missing interface: every .ml under lib/ must have a matching .mli";
              notes = [] }
            :: ds
          else ds
        end)
      files
  in
  let graph = lazy (Graph.build (List.rev !units)) in
  let inter, seed_suppressions = interproc ~only graph suppr_of in
  let unused =
    if rule_enabled only R12 then unused_exports (Lazy.force graph) !interfaces else []
  in
  let kept, dropped =
    List.partition
      (fun d -> not (suppr_mem (suppr_of d.file) ~line:d.line d.rule))
      (raw @ inter @ unused)
  in
  {
    diags = List.sort compare_diag kept;
    suppressed = List.length dropped;
    seed_suppressions;
    files_scanned = List.length files;
  }

let lint_files ?(only = all_rules) paths = (lint_files_report ~only paths).diags
