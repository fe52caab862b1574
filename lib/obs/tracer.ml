(* Structured event sink: one JSON object per event, streamed as JSONL.

   There is no disabled tracer: a scope without one ([Scope.null]'s
   [None]) is what disabled means, and call sites test for it before
   building field lists.

   Sinks:
   - [Channel]   stream lines to a file as they happen;
   - [Ring n]    keep the most recent [n] lines in memory (the flight
     recorder's ring);
   - [Buffer]    keep every line in memory — the fork/join vehicle: each
     parallel work unit traces into its own buffer, and the pool flushes
     the buffers into the parent sink in unit-index order, so a trace
     file is byte-identical at any worker count. *)

(* Line [i] of a ring is [shared.(i)] when [lens.(i) < 0]: a line another
   sink rendered, kept as that sink's string. Otherwise it is the first
   [lens.(i)] bytes of [owned.(i)]: a line the ring rendered itself, into
   bytes the slot keeps from one line to the next and reallocates only
   for a longer one. So a line the ring renders adds no object to the
   heap once every slot has held one: a long-lived array's per-line
   strings are all promoted by the minor collector, and the major heap
   grows with them. *)
type ring = {
  shared : string array;
  owned : Bytes.t array;
  lens : int array;
  mutable next : int;  (* the slot the next line takes *)
  mutable length : int;  (* lines held: the [length] slots before [next] *)
}

type sink =
  | Channel of { oc : out_channel; mutable closed : bool }
  | Ring of ring
  | Buffer of { mutable rev_lines : string list }

type t = { sink : sink; mutable emitted : int; scratch : Buffer.t }

(* The scratch buffer is per-tracer, not module-level: each parallel work
   unit owns its tracer, so sharing a scratch across domains would race. *)
let make sink = { sink; emitted = 0; scratch = Buffer.create 256 }
let to_channel oc = make (Channel { oc; closed = false })
let to_file path = to_channel (open_out path)

let ring cap =
  if cap <= 0 then invalid_arg "Tracer.ring: capacity must be positive";
  make
    (Ring
       {
         shared = Array.make cap "";
         owned = Array.make cap Bytes.empty;
         lens = Array.make cap 0;
         next = 0;
         length = 0;
       })

let buffer () = make (Buffer { rev_lines = [] })
let emitted t = t.emitted

let write_event b name fields = Json.write b (Json.Obj (("ev", Json.Str name) :: fields))

let render t name fields =
  Buffer.clear t.scratch;
  write_event t.scratch name fields;
  Buffer.contents t.scratch

(* The slot the next line takes: a new one until the ring is full, then
   the oldest. *)
let next_slot t r =
  let i = r.next and cap = Array.length r.lens in
  r.next <- (if i + 1 = cap then 0 else i + 1);
  if r.length < cap then r.length <- r.length + 1;
  t.emitted <- t.emitted + 1;
  i

let line_at r i = if r.lens.(i) < 0 then r.shared.(i) else Bytes.sub_string r.owned.(i) 0 r.lens.(i)

let append_line t line =
  match t.sink with
  | Channel c ->
      if not c.closed then begin
        output_string c.oc line;
        output_char c.oc '\n';
        t.emitted <- t.emitted + 1
      end
  | Ring r ->
      let i = next_slot t r in
      r.shared.(i) <- line;
      r.lens.(i) <- -1
  | Buffer b ->
      b.rev_lines <- line :: b.rev_lines;
      t.emitted <- t.emitted + 1

let emit t name fields =
  match t.sink with
  | Channel c ->
      (* Stream straight from the scratch buffer: no intermediate string
         per line on the hot path. *)
      if not c.closed then begin
        Buffer.clear t.scratch;
        write_event t.scratch name fields;
        Buffer.add_char t.scratch '\n';
        Buffer.output_buffer c.oc t.scratch;
        t.emitted <- t.emitted + 1
      end
  | Ring r ->
      Buffer.clear t.scratch;
      write_event t.scratch name fields;
      let i = next_slot t r and len = Buffer.length t.scratch in
      if Bytes.length r.owned.(i) < len then r.owned.(i) <- Bytes.create ((len lor 63) + 1);
      Buffer.blit t.scratch 0 r.owned.(i) 0 len;
      r.lens.(i) <- len;
      r.shared.(i) <- ""
  | Buffer _ -> append_line t (render t name fields)

let latest t k =
  match t.sink with
  | Ring r ->
      let cap = Array.length r.lens and k = max 0 (min k r.length) in
      Array.init k (fun j -> line_at r ((r.next - k + j + cap) mod cap))
  | Channel _ | Buffer _ -> [||]

let lines t =
  match t.sink with
  | Channel _ -> []
  | Ring r -> Array.to_list (latest t r.length)
  | Buffer b -> List.rev b.rev_lines

let close t =
  match t.sink with
  | Ring _ | Buffer _ -> ()
  | Channel c ->
      if not c.closed then begin
        c.closed <- true;
        close_out c.oc
      end
