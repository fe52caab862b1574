(* Human-readable summaries of the fruitscope artifacts: metric dumps,
   JSONL traces, and BENCH.json. Pure string -> string so the CLI stays a
   thin file-IO shim and tests can cover the rendering directly. *)

let fmt = Printf.sprintf

type kind = Metrics_dump | Trace | Bench

let kind_name = function
  | Metrics_dump -> "metrics"
  | Trace -> "trace"
  | Bench -> "bench"

let non_empty_lines content =
  String.split_on_char '\n' content |> List.filter (fun l -> String.trim l <> "")

let classify content =
  match non_empty_lines content with
  | [] -> Error "empty file"
  | [ line ] -> (
      match Json.of_string line with
      | Error e -> Error (fmt "not JSON: %s" e)
      | Ok j ->
          if Json.member "ev" j <> None then Ok (Trace, [ j ])
          else if Json.member "schema" j <> None then Ok (Bench, [ j ])
          else if Json.member "counters" j <> None then Ok (Metrics_dump, [ j ])
          else Error "unrecognized JSON document (no ev/schema/counters field)")
  | lines ->
      (* Multiple lines: a JSONL trace. Tolerate unparseable lines (a
         truncated tail from a killed run) but report them. *)
      let parsed = List.filter_map (fun l -> Result.to_option (Json.of_string l)) lines in
      if parsed = [] then Error "no parseable JSONL lines"
      else Ok (Trace, parsed)

(* --- metrics ----------------------------------------------------------- *)

let int_of j = Option.value ~default:0 (Json.to_int j)

let render_histogram name j buf =
  let buckets =
    match Json.member "buckets" j with
    | Some (Json.List l) -> List.filter_map Json.to_int l
    | Some _ | None -> []
  in
  let counts =
    match Json.member "counts" j with
    | Some (Json.List l) -> List.filter_map Json.to_int l
    | Some _ | None -> []
  in
  let count = int_of (Option.value ~default:Json.Null (Json.member "count" j)) in
  let sum = int_of (Option.value ~default:Json.Null (Json.member "sum" j)) in
  (* Quantiles appear in dumps from this version on; "-" marks an empty
     histogram or a rank in the unbounded overflow bucket (null). *)
  let quantile q =
    match Json.member q j with
    | Some (Json.Int v) -> string_of_int v
    | Some Json.Null -> "-"
    | Some _ | None -> "?"
  in
  let quantiles =
    if Json.member "p50" j = None then ""
    else fmt " p50=%s p95=%s p99=%s" (quantile "p50") (quantile "p95") (quantile "p99")
  in
  Buffer.add_string buf (fmt "  %-32s count=%d sum=%d%s\n" name count sum quantiles);
  List.iteri
    (fun i c ->
      if c > 0 then
        let label =
          match List.nth_opt buckets i with
          | Some b -> fmt "<=%d" b
          | None -> fmt ">%d" (List.nth buckets (List.length buckets - 1))
        in
        Buffer.add_string buf (fmt "    %-8s %d\n" label c))
    counts

let render_metrics j =
  let buf = Buffer.create 512 in
  let section title render =
    match Json.member title j with
    | Some (Json.Obj fields) when fields <> [] ->
        Buffer.add_string buf (fmt "%s:\n" title);
        List.iter (fun (name, v) -> render name v) fields
    | Some _ | None -> ()
  in
  section "counters" (fun name v ->
      Buffer.add_string buf (fmt "  %-32s %d\n" name (int_of v)));
  section "gauges" (fun name v ->
      Buffer.add_string buf
        (fmt "  %-32s %g\n" name (Option.value ~default:0.0 (Json.to_float v))));
  section "histograms" (fun name v -> render_histogram name v buf);
  Buffer.contents buf

(* --- trace ------------------------------------------------------------- *)

let render_trace events =
  let by_name = Hashtbl.create 16 in
  let lo = ref max_int and hi = ref (-1) in
  List.iter
    (fun j ->
      (match Json.member "ev" j with
      | Some (Json.Str name) ->
          Hashtbl.replace by_name name
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_name name))
      | Some _ | None -> ());
      match Option.bind (Json.member "round" j) Json.to_int with
      | Some r ->
          if r < !lo then lo := r;
          if r > !hi then hi := r
      | None -> ())
    events;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (fmt "events: %d\n" (List.length events));
  if !hi >= 0 then Buffer.add_string buf (fmt "rounds: %d..%d\n" !lo !hi);
  let names =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, n) -> Buffer.add_string buf (fmt "  %-24s %d\n" name n)) names;
  Buffer.contents buf

(* --- BENCH.json -------------------------------------------------------- *)

let str_of j = Option.value ~default:"?" (Json.to_str j)
let float_of j = Option.value ~default:0.0 (Json.to_float j)
let get name j = Option.value ~default:Json.Null (Json.member name j)

let render_bench j =
  let buf = Buffer.create 256 in
  (* Which SHA-256 block function the timings came from; documents written
     before the field existed render without it. *)
  let block =
    match Json.member "sha256_block" j with
    | Some b -> fmt "  sha256_block: %s" (str_of b)
    | None -> ""
  in
  Buffer.add_string buf
    (fmt "schema: %s  scale: %s  jobs: %d%s\n"
       (str_of (get "schema" j))
       (str_of (get "scale" j))
       (int_of (get "jobs" j))
       block);
  Buffer.add_string buf
    (fmt "total: %.2fs wall, %d events (%.0f events/s)\n"
       (float_of (get "total_wall_s" j))
       (int_of (get "events" j))
       (float_of (get "events_per_sec" j)));
  (match Json.member "trace" j with
  | Some t ->
      let enabled = Option.value ~default:false (Json.to_bool (get "enabled" t)) in
      if enabled then
        Buffer.add_string buf (fmt "trace: %d lines\n" (int_of (get "lines" t)))
  | None -> ());
  (match Json.member "experiments" j with
  | Some (Json.List exps) when exps <> [] ->
      Buffer.add_string buf "experiments:\n";
      List.iter
        (fun e ->
          let throughput =
            match Json.member "events_per_sec" e with
            | Some v -> fmt " %10.0f ev/s" (float_of v)
            | None -> ""
          in
          Buffer.add_string buf
            (fmt "  %-5s %7.2fs wall %7.2fs cpu%s\n"
               (str_of (get "id" e))
               (float_of (get "wall_s" e))
               (float_of (get "cpu_s" e))
               throughput))
        exps
  | Some _ | None -> ());
  Buffer.contents buf

(* --- trace filters ------------------------------------------------------ *)

let filter_trace ?ev ?last content =
  let lines = non_empty_lines content in
  if lines = [] then Error "empty file"
  else begin
    let matched =
      match ev with
      | None -> lines
      | Some name ->
          List.filter
            (fun l ->
              match Json.of_string l with
              | Ok j -> (
                  match Option.bind (Json.member "ev" j) Json.to_str with
                  | Some n -> String.equal n name
                  | None -> false)
              | Error _ -> false)
            lines
    in
    let matched =
      match last with
      | None -> matched
      | Some n when n <= 0 -> []
      | Some n ->
          let len = List.length matched in
          if len <= n then matched else List.filteri (fun i _ -> i >= len - n) matched
    in
    Ok matched
  end

let summarize content =
  match classify content with
  | Error e -> Error e
  | Ok (kind, docs) ->
      let body =
        match (kind, docs) with
        | Trace, events -> render_trace events
        | Metrics_dump, [ j ] -> render_metrics j
        | Bench, [ j ] -> render_bench j
        | (Metrics_dump | Bench), _ -> assert false
      in
      Ok (fmt "[%s]\n%s" (kind_name kind) body)
