module Rng = Fruitchain_util.Rng
module Metrics = Fruitchain_obs.Metrics
module Scope = Fruitchain_obs.Scope

type schedule = At of int | Uniform_in_window | Next_round | Max_delay

type policy = now:int -> sender:int -> recipient:int -> round:int -> int

type envelope = { seq : int; message : Message.t }

(* One delivery round's worth of envelopes for one recipient. The backing
   array is grown by doubling and reused across rounds, so steady-state
   enqueue/drain allocates only the drained message list. [uniform_priority]
   tracks whether every envelope in the slot shares one priority — when it
   does (the overwhelmingly common case: a round's deliveries are all honest
   or all rushed), the slot is already in (priority, seq) order, because
   [seq] increases with enqueue order, and drain skips sorting. *)
type slot = {
  mutable slot_round : int;
  mutable msgs : envelope array;
  mutable len : int;
  mutable uniform_priority : bool;
}

(* Per-recipient delivery state: a ring of Δ+1 slots covers every legal
   honest delivery round. Deliveries pushed past the ring horizon (a
   fault-injection policy holding traffic across a partition, or a caller
   that does not drain every round) spill into [overflow]; [overflow_count]
   gates the per-drain table lookup so the no-fault hot path never touches
   the table. *)
type ring = {
  slots : slot array;
  overflow : (int, envelope list) Hashtbl.t;
  mutable overflow_count : int;
}

type t = {
  n : int;
  delta : int;
  (* Environment-level delivery policy (fault injection): consulted after
     the Δ-clamp with the resolved round; [None] is the identity. *)
  policy : policy option;
  inboxes : ring array;
  mutable seq : int;
  mutable pending : int;
  (* Native counters: harvested once per run by the engine, so the
     per-message cost with observability off stays a plain increment. *)
  mutable sent : int;
  mutable delivered : int;
  (* Delivery delay in rounds is protocol semantics (schedule + clamping),
     not scheduling noise, so the histogram is golden. *)
  delay_hist : Metrics.histogram option;
}

let make_ring ~delta () =
  {
    slots =
      Array.init (delta + 1) (fun _ ->
          { slot_round = -1; msgs = [||]; len = 0; uniform_priority = true });
    overflow = Hashtbl.create 8;
    overflow_count = 0;
  }

let create ?(scope = Scope.null) ?policy ~n ~delta () =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  if delta < 1 then invalid_arg "Network.create: delta must be >= 1";
  let delay_hist =
    match Scope.metrics scope with
    | None -> None
    | Some m ->
        Some (Metrics.histogram m ~buckets:[| 1; 2; 3; 4; 6; 8; 12; 16 |] "net.delay")
  in
  {
    n;
    delta;
    policy;
    inboxes = Array.init n (fun _ -> make_ring ~delta ());
    seq = 0;
    pending = 0;
    sent = 0;
    delivered = 0;
    delay_hist;
  }


let resolve_round t ~now ~rng = function
  | At r -> max (now + 1) (min r (now + t.delta))
  | Uniform_in_window -> now + 1 + Rng.int rng t.delta
  | Next_round -> now + 1
  | Max_delay -> now + t.delta

let slot_push slot env =
  let cap = Array.length slot.msgs in
  if Int.equal slot.len cap then begin
    let grown = Array.make (max 8 (2 * cap)) env in
    Array.blit slot.msgs 0 grown 0 slot.len;
    slot.msgs <- grown
  end;
  slot.msgs.(slot.len) <- env;
  slot.len <- slot.len + 1

let overflow_push ring ~round env =
  let existing = Option.value ~default:[] (Hashtbl.find_opt ring.overflow round) in
  Hashtbl.replace ring.overflow round (env :: existing);
  ring.overflow_count <- ring.overflow_count + 1

let enqueue t ~recipient ~round message =
  let ring = t.inboxes.(recipient) in
  let slot = ring.slots.(round mod Array.length ring.slots) in
  let env = { seq = t.seq; message } in
  if Int.equal slot.len 0 then begin
    slot.slot_round <- round;
    slot.uniform_priority <- true;
    slot_push slot env
  end
  else if Int.equal slot.slot_round round then begin
    if not (Int.equal slot.msgs.(0).message.Message.priority message.Message.priority) then
      slot.uniform_priority <- false;
    slot_push slot env
  end
  else
    (* The slot still holds an undrained earlier (or ring-colliding later)
       round — possible only under a fault policy scheduling past Δ, or for
       callers that do not drain every round. Spill the newcomer. *)
    overflow_push ring ~round env;
  t.seq <- t.seq + 1;
  t.pending <- t.pending + 1

let send_to t ~now ~recipient ~schedule ~rng message =
  if recipient < 0 || recipient >= t.n then invalid_arg "Network.send_to: bad recipient";
  let round = resolve_round t ~now ~rng schedule in
  (* The policy may move a delivery beyond the Δ-clamp (an injected fault);
     it can never deliver into the past or the current round. *)
  let round =
    match t.policy with
    | None -> round
    | Some p ->
        max (now + 1) (p ~now ~sender:message.Message.sender ~recipient ~round)
  in
  t.sent <- t.sent + 1;
  (match t.delay_hist with
  | None -> ()
  | Some h -> Metrics.observe h (round - now));
  enqueue t ~recipient ~round message

let broadcast t ~now ?(schedule = fun ~recipient:_ -> Max_delay) ~rng message =
  for recipient = 0 to t.n - 1 do
    if not (Int.equal recipient message.Message.sender) then
      send_to t ~now ~recipient ~schedule:(schedule ~recipient) ~rng message
  done

(* (priority, seq) — the delivery order contract. [seq] values are unique,
   so this comparator is a total order and sort stability is irrelevant. *)
let envelope_order a b =
  match Int.compare a.message.Message.priority b.message.Message.priority with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let drain t ~round ~recipient =
  let ring = t.inboxes.(recipient) in
  let slot = ring.slots.(round mod Array.length ring.slots) in
  let in_slot = slot.len > 0 && Int.equal slot.slot_round round in
  let spilled =
    if ring.overflow_count > 0 then (
      match Hashtbl.find_opt ring.overflow round with
      | None -> []
      | Some envs ->
          Hashtbl.remove ring.overflow round;
          ring.overflow_count <- ring.overflow_count - List.length envs;
          envs)
    else []
  in
  match (in_slot, spilled) with
  | false, [] -> []
  | true, [] when slot.uniform_priority ->
      (* Uniform priority: slot order (= seq order) is already the
         delivery order. *)
      let k = slot.len in
      t.pending <- t.pending - k;
      t.delivered <- t.delivered + k;
      let out = ref [] in
      for i = k - 1 downto 0 do
        out := slot.msgs.(i).message :: !out
      done;
      slot.len <- 0;
      !out
  | _ ->
      let slot_k = if in_slot then slot.len else 0 in
      let spilled_k = List.length spilled in
      let k = slot_k + spilled_k in
      t.pending <- t.pending - k;
      t.delivered <- t.delivered + k;
      let all =
        if in_slot then begin
          let arr =
            if Int.equal spilled_k 0 then Array.sub slot.msgs 0 slot_k
            else begin
              let arr = Array.make k slot.msgs.(0) in
              Array.blit slot.msgs 0 arr 0 slot_k;
              (* Spilled envelopes arrive in reverse push order; the sort
                 below restores the (priority, seq) contract regardless. *)
              List.iteri (fun i env -> arr.(slot_k + i) <- env) spilled;
              arr
            end
          in
          slot.len <- 0;
          arr
        end
        else Array.of_list spilled
      in
      Array.sort envelope_order all;
      Array.fold_right (fun env acc -> env.message :: acc) all []

let deliver_batch t ~count ~delay =
  if count < 0 then invalid_arg "Network.deliver_batch: negative count";
  if delay < 1 then invalid_arg "Network.deliver_batch: delay must be >= 1";
  t.sent <- t.sent + count;
  t.delivered <- t.delivered + count;
  match t.delay_hist with
  | None -> ()
  | Some h -> Metrics.observe_many h delay ~count

let pending t = t.pending
let sent t = t.sent
let delivered t = t.delivered
