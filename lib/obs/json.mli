(** Minimal JSON values: canonical printing and a small parser.

    Everything fruitscope writes (metric dumps, JSONL trace events,
    BENCH.json) goes through {!to_string}, whose output is canonical —
    no whitespace, object fields in the order given, fixed float
    formatting — because metric dumps are compared byte-for-byte across
    worker counts. {!of_string} reads those artifacts back for the
    [report] subcommand and the BENCH.json schema check. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical compact rendering. Non-finite floats print as [null]. *)

val write : Buffer.t -> t -> unit
(** [to_string] into a caller-owned buffer; the tracer's hot path reuses
    one scratch buffer per sink instead of allocating a string per line.
    A string with no byte to escape is copied in one piece, and an int
    is written digit by digit, with no intermediate string. *)

val of_string : string -> (t, string) result
(** Parses a complete JSON document; [Error msg] carries an offset. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First field of that name in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
val to_float : t -> float option
(** [Int] widens to float. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
val to_bool : t -> bool option
