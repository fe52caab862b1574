(** Human-readable summaries of fruitscope artifacts.

    The [report] CLI subcommand reads a file and hands its contents here;
    the artifact kind (metric dump, JSONL trace, BENCH.json) is detected
    from the content, not the file name. *)

val summarize : string -> (string, string) result
(** Render the artifact as a short human-readable summary, headed by its
    kind in brackets: [\[metrics\]], [\[trace\]] or [\[bench\]]. The
    kind is read from the content: a single JSON object with a
    ["counters"] field is a metric dump, with a ["schema"] field a
    BENCH.json, with an ["ev"] field (or several JSONL lines) a trace.
    Unparseable trace lines are skipped (a killed run truncates its last
    line). *)

val filter_trace : ?ev:string -> ?last:int -> string -> (string list, string) result
(** Select raw JSONL trace lines byte-for-byte: [?ev] keeps events of
    that name, [?last] keeps the final [n] of what remains. Lines that
    fail to parse never match an [?ev] filter. *)
