(* Flight recorder: an always-on ring of recent trace events plus a
   dump-on-anomaly hook.

   Every event the scope emits is also appended to this ring, whether or
   not a user-facing tracer is attached: rendered once, into the ring's
   own bytes, or kept as the line a tracer already rendered.  When an
   anomaly fires — a consistency/quality violation, a scenario
   diagnostic, an engine assertion — {!anomaly} snapshots the last N
   events plus an optional metrics dump into a post-mortem JSON
   artifact, so the lead-up to the violation survives instead of
   vanishing with the process.

   A parallel work unit records into a {!fork}: a ring of the same
   capacity that holds a copy of itself at each anomaly instead of writing
   a file.  {!merge} rebuilds each held dump as the sequential run would
   have seen it — the parent ring's newest lines, then the held ones —
   and then appends the fork's final ring to the parent's, so a unit
   holds one ring, plus a copy per anomaly, however many events it
   emits.

   Dump files are numbered [<prefix><seq>.json]; the sequence is per
   recorder, and anomalies are observed in merge order (unit-index
   order), so the artifact set is deterministic at any --jobs value.
   The payload is assembled textually: ring lines are already canonical
   JSON objects, so joining them with commas inside an array is itself
   canonical and avoids re-parsing on the hot-anomaly path. *)

type t = {
  ring : Tracer.t;
  capacity : int;
  prefix : string option;  (* [None]: a fork, which holds its dumps *)
  mutable seq : int;
  mutable last_path : string option;
  mutable held : (string * string array) list;  (* a fork's dumps, newest first *)
}

let default_capacity = 4096

let make ~capacity prefix =
  { ring = Tracer.ring capacity; capacity; prefix; seq = 0; last_path = None; held = [] }

let create ?(capacity = default_capacity) ~prefix () = make ~capacity (Some prefix)
let fork t = make ~capacity:t.capacity None
let record t name fields = Tracer.emit t.ring name fields
let record_line t line = Tracer.append_line t.ring line
let dumps t = t.seq
let last_dump t = t.last_path

let write ?metrics t ~prefix ~reason events =
  let path = Printf.sprintf "%s%04d.json" prefix t.seq in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"schema\":\"fruitchains-flight/1\",\"seq\":";
  Buffer.add_string buf (string_of_int t.seq);
  Buffer.add_string buf ",\"reason\":";
  Json.write buf (Json.Str reason);
  Buffer.add_string buf ",\"events\":[";
  Array.iteri
    (fun i line ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf line)
    events;
  Buffer.add_string buf "],\"metrics\":";
  (match metrics with
  | Some m -> Json.write buf (Metrics.to_json m)
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf "}\n";
  t.seq <- t.seq + 1;
  t.last_path <- Some path;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

(* [events]: the dump's ring, oldest first. *)
let deliver ?metrics t ~reason events =
  match t.prefix with
  | Some prefix -> write ?metrics t ~prefix ~reason events
  | None -> t.held <- (reason, events) :: t.held

let anomaly ?metrics t ~reason = deliver ?metrics t ~reason (Tracer.latest t.ring t.capacity)

let merge ?metrics t ~child =
  List.iter
    (fun (reason, events) ->
      let before = Tracer.latest t.ring (t.capacity - Array.length events) in
      deliver ?metrics t ~reason (Array.append before events))
    (List.rev child.held);
  Array.iter (Tracer.append_line t.ring) (Tracer.latest child.ring child.capacity)
