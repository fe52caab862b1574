(* A scope bundles the fruitscope channels — a metrics registry, a
   tracer, and the flight recorder — so instrumented components thread
   one value.  [null] is the disabled scope every entry point defaults
   to.

   Fork/join: a parallel work unit gets [fork parent] — a fresh registry
   plus whatever keeps its events — and the pool applies [merge_child]
   in unit-index order, each child as soon as it and every lower-indexed
   unit have finished.  Because counter/histogram merge is addition and
   gauge merge is last-writer-in-index-order, the merged parent is
   byte-identical to what a sequential run of the same units would have
   accumulated directly.

   A child cannot write dump files without racing its siblings, so the
   flight recorder's dumps are written only by the parent, at merge
   time.  With a user tracer attached, the child buffers every rendered
   line (the tracer must write them all), and [merge_child] recognizes
   the "anomaly" lines while folding the buffer back and dumps there.
   With the recorder alone, the child gets a {!Flight.fork} instead: a
   ring of the parent's capacity that keeps a copy of itself at each
   anomaly, which [merge_child] turns into the dump the sequential run
   would have written.  Dump artifacts are thereby byte-identical at any
   worker count. *)

type t = {
  metrics : Metrics.t option;
  tracer : Tracer.t option;
  flight : Flight.t option;
}

let null = { metrics = None; tracer = None; flight = None }
let make ?metrics ?tracer ?flight () = { metrics; tracer; flight }
let metrics t = t.metrics

let enabled t =
  Option.is_some t.metrics || Option.is_some t.tracer || Option.is_some t.flight

let tracing t = Option.is_some t.tracer || Option.is_some t.flight

let emit t name fields =
  match (t.tracer, t.flight) with
  | Some tr, None -> Tracer.emit tr name fields
  | Some tr, Some fl ->
      (* Render once, feed both sinks. *)
      let line = Tracer.render tr name fields in
      Tracer.append_line tr line;
      Flight.record_line fl line
  | None, Some fl -> Flight.record fl name fields
  | None, None -> ()

let anomaly t ~reason fields =
  emit t "anomaly" (("reason", Json.Str reason) :: fields);
  Option.iter (fun fl -> Flight.anomaly ?metrics:t.metrics fl ~reason) t.flight

let incr ?by ?golden t name =
  match t.metrics with
  | Some m -> Metrics.incr ?by (Metrics.counter m ?golden name)
  | None -> ()

let set_gauge ?golden t name v =
  match t.metrics with
  | Some m -> Metrics.set (Metrics.gauge m ?golden name) v
  | None -> ()

let fork t =
  if not (enabled t) then null
  else
    let metrics = Option.map (fun _ -> Metrics.create ()) t.metrics in
    match t.tracer with
    | Some _ ->
        (* A user tracer must write every line, so the child keeps them
           all; [merge_child] feeds them to the flight ring too. *)
        { metrics; tracer = Some (Tracer.buffer ()); flight = None }
    | None -> { metrics; tracer = None; flight = Option.map Flight.fork t.flight }

let anomaly_prefix = {|{"ev":"anomaly",|}
let is_anomaly_line line = String.starts_with ~prefix:anomaly_prefix line

let anomaly_reason line =
  match Json.of_string line with
  | Ok json -> (
      match Option.bind (Json.member "reason" json) Json.to_str with
      | Some r -> r
      | None -> "unknown")
  | Error _ -> "unknown"

let merge_child t ~child =
  (* Metrics first: an anomaly dump triggered below should snapshot a
     registry that already includes the child that raised it. *)
  (match (t.metrics, child.metrics) with
  | Some dst, Some src -> Metrics.merge_into ~dst src
  | (Some _ | None), _ -> ());
  match (child.flight, child.tracer) with
  | Some src, _ -> Option.iter (fun fl -> Flight.merge ?metrics:t.metrics fl ~child:src) t.flight
  | None, Some src ->
      List.iter
        (fun line ->
          (match t.tracer with
          | Some dst -> Tracer.append_line dst line
          | None -> ());
          match t.flight with
          | None -> ()
          | Some fl ->
              Flight.record_line fl line;
              if is_anomaly_line line then
                Flight.anomaly ?metrics:t.metrics fl ~reason:(anomaly_reason line))
        (Tracer.lines src)
  | None, None -> ()
