module Rng = Fruitchain_util.Rng
module Metrics = Fruitchain_obs.Metrics
module Scope = Fruitchain_obs.Scope

type schedule = At of int | Uniform_in_window | Next_round | Max_delay

type policy = now:int -> sender:int -> recipient:int -> round:int -> int

(* One delivery round's worth of deliveries for one recipient: entry [i <
   len] is the message [msgs.(i)], shared by every recipient of its
   broadcast, with its enqueue sequence number [seqs.(i)]. Entries are
   pushed in enqueue order, so [seqs] rises with the index. The arrays grow
   by doubling and are reused across rounds, so a steady-state enqueue
   writes one pointer and one int and allocates nothing. *)
type slot = {
  mutable slot_round : int;
  mutable msgs : Message.t array;
  mutable seqs : int array;
  mutable len : int;
}

(* Spilled deliveries by round, one slot each. Keys are ints compared with
   [Int.equal]: the polymorphic [Hashtbl] would compare them with the
   generic structural compare. *)
module Rounds = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash r = r land max_int
end)

(* Per-recipient delivery state, made on the recipient's first delivery: a
   ring of Δ+1 slots covers every legal honest delivery round. A delivery
   due past the ring's horizon (a fault-injection policy holding traffic
   past Δ), or whose slot still holds another round (a caller that does not
   drain every round), spills into [overflow], a table made on the first
   spill, so the no-fault hot path never touches one. *)
type ring = { slots : slot array; mutable overflow : slot Rounds.t option }

type t = {
  n : int;
  delta : int;
  (* Environment-level delivery policy (fault injection): consulted after
     the Δ-clamp with the resolved round; [None] is the identity. *)
  policy : policy option;
  (* [None] until the recipient's first delivery: the sparse plane never
     delivers, and an exact-plane party may never be addressed. *)
  inboxes : ring option array;
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
    inboxes = Array.make n None;
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

let new_slot () = { slot_round = -1; msgs = [||]; seqs = [||]; len = 0 }

(* Grow [s] to hold at least [need] entries; [fill] pads the new
   message array. *)
let grow s ~need ~fill =
  let cap = Int.max need (Int.max 8 (2 * Array.length s.msgs)) in
  let msgs = Array.make cap fill and seqs = Array.make cap 0 in
  Array.blit s.msgs 0 msgs 0 s.len;
  Array.blit s.seqs 0 seqs 0 s.len;
  s.msgs <- msgs;
  s.seqs <- seqs

let push s message seq =
  let len = s.len in
  if Int.equal len (Array.length s.msgs) then grow s ~need:(len + 1) ~fill:message;
  s.msgs.(len) <- message;
  s.seqs.(len) <- seq;
  s.len <- len + 1

let ring_of t recipient =
  match t.inboxes.(recipient) with
  | Some ring -> ring
  | None ->
      let ring = { slots = Array.init (t.delta + 1) (fun _ -> new_slot ()); overflow = None } in
      t.inboxes.(recipient) <- Some ring;
      ring

let spill ring ~round message seq =
  let table =
    match ring.overflow with
    | Some table -> table
    | None ->
        let table = Rounds.create 8 in
        ring.overflow <- Some table;
        table
  in
  let bucket =
    match Rounds.find_opt table round with
    | Some bucket -> bucket
    | None ->
        let bucket = new_slot () in
        Rounds.replace table round bucket;
        bucket
  in
  push bucket message seq

let enqueue t ~now ~recipient ~round message =
  let ring = ring_of t recipient in
  let slot = ring.slots.(round mod Array.length ring.slots) in
  if round > now + t.delta then
    (* Held past Δ by a fault policy: taking the slot would spill every
       in-window delivery that maps to it until the hold ends. *)
    spill ring ~round message t.seq
  else if Int.equal slot.len 0 then begin
    slot.slot_round <- round;
    push slot message t.seq
  end
  else if Int.equal slot.slot_round round then push slot message t.seq
  else
    (* The slot still holds an undrained earlier round — possible only for
       callers that do not drain every round. Spill the newcomer. *)
    spill ring ~round message t.seq;
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
  enqueue t ~now ~recipient ~round message

let broadcast t ~now ?(schedule = fun ~recipient:_ -> Max_delay) ~rng message =
  for recipient = 0 to t.n - 1 do
    if not (Int.equal recipient message.Message.sender) then
      send_to t ~now ~recipient ~schedule:(schedule ~recipient) ~rng message
  done

(* The messages of [msgs.(0 .. len-1)], which are in seq order, as a list
   in (priority, seq) order — the delivery contract. That is a stable order
   by priority, so each priority class is emitted in index order, lowest
   class first. The list is built back to front: one pass finds the lowest
   and highest class, then each class, highest first, takes one pass that
   also finds the next class down, so a slot of one class (most drains)
   takes a single emitting pass; the engines send at most three classes.
   Each pass lowers the class, so the loop ends. Nothing but the list is
   allocated. *)
let emit msgs len =
  let lo = ref max_int in
  let hi = ref min_int in
  for i = 0 to len - 1 do
    let p = msgs.(i).Message.priority in
    lo := Int.min !lo p;
    hi := Int.max !hi p
  done;
  let out = ref [] in
  let cls = ref !hi in
  let emitting = ref (len > 0) in
  while !emitting do
    let c = !cls in
    let next = ref min_int in
    for i = len - 1 downto 0 do
      let m = msgs.(i) in
      let p = m.Message.priority in
      if Int.equal p c then out := m :: !out else if p < c && p > !next then next := p
    done;
    if c <= !lo then emitting := false else cls := !next
  done;
  !out

(* Move [src]'s entries into [dst], keeping [dst] in seq order: the merge
   step of a merge sort, from the back, in [dst]'s own (grown) arrays. *)
let merge_into dst src =
  let total = dst.len + src.len in
  if total > Array.length dst.msgs then grow dst ~need:total ~fill:src.msgs.(0);
  let i = ref (dst.len - 1) in
  let j = ref (src.len - 1) in
  while !j >= 0 do
    let k = !i + !j + 1 in
    if !i >= 0 && dst.seqs.(!i) > src.seqs.(!j) then begin
      dst.msgs.(k) <- dst.msgs.(!i);
      dst.seqs.(k) <- dst.seqs.(!i);
      decr i
    end
    else begin
      dst.msgs.(k) <- src.msgs.(!j);
      dst.seqs.(k) <- src.seqs.(!j);
      decr j
    end
  done;
  dst.len <- total;
  src.len <- 0

let take t s =
  let k = s.len in
  t.pending <- t.pending - k;
  t.delivered <- t.delivered + k;
  s.len <- 0;
  emit s.msgs k

let take_spilled table round =
  if Int.equal (Rounds.length table) 0 then None
  else begin
    let bucket = Rounds.find_opt table round in
    if Option.is_some bucket then Rounds.remove table round;
    bucket
  end

let drain t ~round ~recipient =
  match t.inboxes.(recipient) with
  | None -> []
  | Some ring -> (
      let slot = ring.slots.(round mod Array.length ring.slots) in
      let in_slot = slot.len > 0 && Int.equal slot.slot_round round in
      let bucket =
        match ring.overflow with None -> None | Some table -> take_spilled table round
      in
      match bucket with
      | None -> if in_slot then take t slot else []
      | Some bucket ->
          if in_slot then merge_into bucket slot;
          take t bucket)

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
