type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Canonical printing.  The dump of a metrics registry is compared
   byte-for-byte across worker counts, so every choice here (no spaces,
   fixed float formatting, \uXXXX for control characters) is part of the
   determinism contract. *)

(* The bytes that take an escape: '"', '\\' and the control bytes below
   0x20. Every other byte, 0x7f and multi-byte UTF-8 included, is copied. *)
let needs_escape c = Char.code c < 0x20 || Char.equal c '"' || Char.equal c '\\'

let hex_digits = "0123456789abcdef"

let add_escape b c =
  match c with
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\r' -> Buffer.add_string b "\\r"
  | '\t' -> Buffer.add_string b "\\t"
  | c ->
      Buffer.add_string b "\\u00";
      Buffer.add_char b hex_digits.[Char.code c lsr 4];
      Buffer.add_char b hex_digits.[Char.code c land 0xf]

(* Runs of bytes that need no escape are copied whole, so a string without
   any (every key, and nearly every value, of a trace line) is one copy.
   Both writers below are top-level functions that take the buffer as an
   argument: a local helper would be a closure over it per call. *)
let rec add_escaped_from b s n start i =
  if i = n then Buffer.add_substring b s start (n - start)
  else if needs_escape (String.unsafe_get s i) then begin
    Buffer.add_substring b s start (i - start);
    add_escape b (String.unsafe_get s i);
    add_escaped_from b s n (i + 1) (i + 1)
  end
  else add_escaped_from b s n start (i + 1)

let add_escaped b s = add_escaped_from b s (String.length s) 0 0

(* Decimal digits written in place of [string_of_int]'s string. They are
   computed on the non-positive side, where every int, [min_int] included,
   has a value: negating [min_int] would overflow. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.chr (Char.code '0' - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_digits b i
  end
  else add_digits b (-i)

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let add_quoted b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s -> add_quoted b s
  | List items ->
      Buffer.add_char b '[';
      write_items b items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      write_fields b fields;
      Buffer.add_char b '}'

(* Explicit recursion rather than [List.iteri]: no closure per container. *)
and write_items b = function
  | [] -> ()
  | [ item ] -> write b item
  | item :: rest ->
      write b item;
      Buffer.add_char b ',';
      write_items b rest

and write_fields b = function
  | [] -> ()
  | [ field ] -> write_field b field
  | field :: rest ->
      write_field b field;
      Buffer.add_char b ',';
      write_fields b rest

and write_field b (k, v) =
  add_quoted b k;
  Buffer.add_char b ':';
  write b v

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent, enough for what this repository
   itself emits (traces, metric dumps, BENCH.json) plus hand-edited
   inputs.  Numbers that contain '.', 'e' or 'E' become [Float]. *)

exception Parse_failure of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_failure (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && Char.equal s.[!pos] c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub s !pos k) word then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents b
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'; incr pos
            | '\\' -> Buffer.add_char b '\\'; incr pos
            | '/' -> Buffer.add_char b '/'; incr pos
            | 'n' -> Buffer.add_char b '\n'; incr pos
            | 'r' -> Buffer.add_char b '\r'; incr pos
            | 't' -> Buffer.add_char b '\t'; incr pos
            | 'b' -> Buffer.add_char b '\b'; incr pos
            | 'f' -> Buffer.add_char b '\012'; incr pos
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let cp =
                  (hex_digit s.[!pos + 1] lsl 12)
                  lor (hex_digit s.[!pos + 2] lsl 8)
                  lor (hex_digit s.[!pos + 3] lsl 4)
                  lor hex_digit s.[!pos + 4]
                in
                add_utf8 b cp;
                pos := !pos + 5
            | _ -> fail "unknown escape");
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let raw = String.sub s start (!pos - start) in
    let floatish = String.exists (fun c -> Char.equal c '.' || Char.equal c 'e' || Char.equal c 'E') raw in
    if floatish then
      match float_of_string_opt raw with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt raw with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt raw with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | '{' ->
          incr pos;
          skip_ws ();
          if !pos < n && Char.equal s.[!pos] '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              if !pos < n && Char.equal s.[!pos] ',' then begin
                incr pos;
                fields ((k, v) :: acc)
              end
              else begin
                expect '}';
                List.rev ((k, v) :: acc)
              end
            in
            Obj (fields [])
          end
      | '[' ->
          incr pos;
          skip_ws ();
          if !pos < n && Char.equal s.[!pos] ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              if !pos < n && Char.equal s.[!pos] ',' then begin
                incr pos;
                items (v :: acc)
              end
              else begin
                expect ']';
                List.rev (v :: acc)
              end
            in
            List (items [])
          end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors for consumers (the report subcommand, schema checks). *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
