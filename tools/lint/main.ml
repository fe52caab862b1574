(* fruitlint CLI.  Usage:

     fruitlint [--only R1,R2,...] [--format text|json|sarif] PATH...

   Lints every .ml/.mli under the given paths (default: lib bin bench
   examples fruitbench tools, every directory that links lib/) with the
   per-file rules R1-R7 and R11 and the whole-program rules R8-R10 and
   R12. R12 counts only users inside the given paths, so lint the whole
   set at once.

   Formats:
     text   "file:line:col: [R] message" diagnostics (effect paths on an
            indented continuation line) plus a summary on stderr counting
            violations and suppressions in force.
     json   one canonical JSON document; diagnostics in the engine's
            deterministic (file, line, col, rule) order.
     sarif  SARIF 2.1.0 with per-rule metadata, for code-scanning upload.

   Exit 0 when clean, 1 on violations, 2 on usage/parse errors. *)

module Lint = Fruitlint_lib.Lint

let usage = "usage: fruitlint [--only R1,R2,...] [--format text|json|sarif] PATH..."

let parse_only spec =
  String.split_on_char ',' spec
  |> List.filter (fun s -> not (String.equal s ""))
  |> List.map (fun s ->
         match Lint.rule_of_string (String.uppercase_ascii (String.trim s)) with
         | Some r -> r
         | None ->
             prerr_endline ("fruitlint: unknown rule " ^ s);
             prerr_endline usage;
             exit 2)

(* ------------------------------------------------------------------ *)
(* JSON emission.  No dependency: the document shape is fixed and small,
   so a string escaper and printf are all we need, and the output is
   canonical because the diag list is already deterministically sorted. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let json_array items = "[" ^ String.concat "," items ^ "]"

let json_of_diag (d : Lint.diag) =
  Printf.sprintf "{\"file\":%s,\"line\":%d,\"col\":%d,\"rule\":%s,\"message\":%s,\"path\":%s}"
    (json_string d.file) d.line d.col
    (json_string (Lint.rule_name d.rule))
    (json_string d.msg)
    (json_array (List.map json_string d.notes))

let print_json (r : Lint.report) =
  print_string
    (Printf.sprintf
       "{\"violations\":%s,\"summary\":{\"count\":%d,\"suppressed\":%d,\"seed_suppressions\":%d,\"files_scanned\":%d}}\n"
       (json_array (List.map json_of_diag r.diags))
       (List.length r.diags) r.suppressed r.seed_suppressions r.files_scanned)

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0.  Columns are 1-based in SARIF; the engine's are 0-based. *)

let sarif_rule r =
  Printf.sprintf
    "{\"id\":%s,\"name\":%s,\"shortDescription\":{\"text\":%s},\"defaultConfiguration\":{\"level\":\"error\"}}"
    (json_string (Lint.rule_name r))
    (json_string (Lint.rule_name r))
    (json_string (Lint.rule_doc r))

let sarif_result (d : Lint.diag) =
  let text =
    match d.notes with
    | [] -> d.msg
    | ns -> d.msg ^ "\npath: " ^ String.concat " -> " ns
  in
  Printf.sprintf
    "{\"ruleId\":%s,\"level\":\"error\",\"message\":{\"text\":%s},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
    (json_string (Lint.rule_name d.rule))
    (json_string text)
    (json_string d.file) d.line (d.col + 1)

let print_sarif (r : Lint.report) =
  print_string
    (Printf.sprintf
       "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"fruitlint\",\"informationUri\":\"https://github.com/fruitchains\",\"rules\":%s}},\"results\":%s}]}\n"
       (json_array (List.map sarif_rule Lint.all_rules))
       (json_array (List.map sarif_result r.diags)))

(* ------------------------------------------------------------------ *)

let () =
  let only = ref Lint.all_rules in
  let format = ref `Text in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--only" :: spec :: rest ->
        only := parse_only spec;
        parse_args rest
    | "--format" :: fmt :: rest ->
        (match fmt with
        | "text" -> format := `Text
        | "json" -> format := `Json
        | "sarif" -> format := `Sarif
        | _ ->
            prerr_endline ("fruitlint: unknown format " ^ fmt);
            prerr_endline usage;
            exit 2);
        parse_args rest
    | ("--only" | "--format") :: [] ->
        prerr_endline usage;
        exit 2
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        print_endline "rules:";
        List.iter
          (fun r -> Printf.printf "  %-4s %s\n" (Lint.rule_name r) (Lint.rule_doc r))
          Lint.all_rules;
        exit 0
    | p :: rest ->
        paths := p :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let paths =
    match List.rev !paths with
    | [] -> [ "lib"; "bin"; "bench"; "examples"; "fruitbench"; "tools" ]
    | ps -> ps
  in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        prerr_endline ("fruitlint: no such path: " ^ p);
        exit 2
      end)
    paths;
  match Lint.lint_files_report ~only:!only paths with
  | r ->
      let n = List.length r.diags in
      (match !format with
      | `Json -> print_json r
      | `Sarif -> print_sarif r
      | `Text ->
          List.iter (fun d -> Format.printf "%a@." Lint.pp_diag d) r.diags;
          if n > 0 || r.suppressed > 0 || r.seed_suppressions > 0 then
            Format.eprintf
              "fruitlint: %d violation%s, %d suppressed, %d raise origin%s silenced (%d files)@."
              n
              (if Int.equal n 1 then "" else "s")
              r.suppressed r.seed_suppressions
              (if Int.equal r.seed_suppressions 1 then "" else "s")
              r.files_scanned);
      if n > 0 then exit 1
  | exception Lint.Lint_error msg ->
      prerr_endline ("fruitlint: " ^ msg);
      exit 2
