(* Causal lifecycle spans (fruittrace).

   A span follows one entity — a fruit, a block, or a reorg — through its
   lifecycle phases, all timestamped in *logical rounds* (never wall
   time), so span-bearing traces inherit the fruitscope determinism
   contract: byte-identical at any --jobs value, because every event is a
   pure function of the simulated execution.

   The tracker is deliberately substrate-free: entities are keyed by an
   opaque string per entity kind (the simulator passes raw digests) and
   every phase mark carries its own round, so this module depends only on
   the scope/tracer layer and both simulation engines can feed it — the
   exact engine from per-message hooks, the sparse engine from its batch
   attribution points. A key is rendered into the trace's id by the
   caller's [render] when its span opens and again when it closes: marks
   are hash lookups that allocate nothing, and an open span keeps only
   its key (the caller's digest, already alive) and its phase rounds.

   Emission protocol:
   - [span.open]  once per fruit/block, at the mined/minted round;
   - [span.close] once per span. Fruit and block closes are emitted by
     {!close_all} in open order (a canonical order, independent of hash
     iteration); reorg spans are instantaneous at detection, so they emit
     a single [span.close] and no open.

   Phase marks use min-semantics: marking a phase that already has an
   earlier round keeps the earlier one. The engine observes deliveries in
   round order, but a withheld block released late can reveal an *earlier*
   reference round than a block seen before it — min keeps "first" honest
   in both planes. Marks for ids that were never opened are dropped:
   callers open entities (they hold the provenance) before marking. *)

type span =
  | Fruit of {
      key : string;
      mined : int;
      mutable gossiped : int;  (* first delivery round *)
      mutable referenced : int;  (* mint round of the first referencing block *)
      mutable stable : int;  (* round the carrying block got buried kappa deep *)
    }
  | Block of {
      key : string;
      mined : int;
      mutable height : int;  (* -1 until known *)
      mutable first_seen : int;  (* first per-recipient delivery round *)
      mutable last_seen : int;  (* last per-recipient delivery round *)
      mutable deliveries : int;  (* per-recipient deliveries (incl. relays) *)
      mutable adopted : int;  (* first round any party adopted it as head *)
    }

(* Keys are hashed from their own bytes: every caller passes raw digests,
   so the leading eight bytes, read big-endian as [Hash.hash] reads them,
   are the hash. A block digest starts with the zero bits of its
   difficulty, which land in the high bits, away from the low bits a
   table indexes by. A shorter key folds its bytes. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash key =
    if String.length key >= 8 then Int64.to_int (String.get_int64_be key 0) land max_int
    else String.fold_left (fun h c -> (h * 31) + Char.code c) 0 key
end)

(* One table per entity kind: a single oracle query can win both
   difficulties, and the fruit and the block it yields share a digest. *)
type t = {
  scope : Scope.t;
  render : string -> string;
  fruits : span Keys.t;  (* only [Fruit]s *)
  blocks : span Keys.t;  (* only [Block]s *)
  mutable opened : span array;  (* the first [count t] in open order *)
  mutable reorg_seq : int;
}

let create ~scope ~render () =
  {
    scope;
    render;
    fruits = Keys.create 256;
    blocks = Keys.create 256;
    opened = [||];
    reorg_seq = 0;
  }

let count t = Keys.length t.fruits + Keys.length t.blocks

let remember t span =
  let n = count t in
  if n = Array.length t.opened then begin
    let grown = Array.make (max 256 (2 * n)) span in
    Array.blit t.opened 0 grown 0 n;
    t.opened <- grown
  end;
  t.opened.(n) <- span

(* [extra]: the fields after the common ones. *)
let emit_open t kind ~key ~round ~miner ~honest extra =
  Scope.emit t.scope "span.open"
    (("entity", Json.Str kind)
    :: ("id", Json.Str (t.render key))
    :: ("round", Json.Int round)
    :: ("miner", Json.Int miner)
    :: ("honest", Json.Bool honest)
    :: extra)

(* Opens a fruit span for [id], which has none, and returns it. *)
let open_fruit t ~id ~round ~miner ~honest =
  let span = Fruit { key = id; mined = round; gossiped = -1; referenced = -1; stable = -1 } in
  remember t span;
  Keys.add t.fruits id span;
  emit_open t "fruit" ~key:id ~round ~miner ~honest [];
  span

let fruit t ~id ~round ~miner ~honest =
  if not (Keys.mem t.fruits id) then ignore (open_fruit t ~id ~round ~miner ~honest)

let block t ~id ~round ~miner ~honest ~height =
  if Keys.mem t.blocks id then false
  else begin
    let span =
      Block
        {
          key = id;
          mined = round;
          height;
          first_seen = -1;
          last_seen = -1;
          deliveries = 0;
          adopted = -1;
        }
    in
    remember t span;
    Keys.add t.blocks id span;
    emit_open t "block" ~key:id ~round ~miner ~honest [ ("height", Json.Int height) ];
    true
  end

(* min-semantics: an unset phase (-1) or a later round gives way. *)
let earlier round current = round >= 0 && (current < 0 || round < current)

(* Phase marks on an already-open span; unknown ids drop. *)

let fruit_gossiped t ~id ~mined ~miner ~honest ~round =
  let span =
    match Keys.find t.fruits id with
    | span -> span
    | exception Not_found -> open_fruit t ~id ~round:mined ~miner ~honest
  in
  match span with
  | Fruit r -> if earlier round r.gossiped then r.gossiped <- round
  | Block _ -> ()

let fruit_referenced t ~id ~round =
  match Keys.find t.fruits id with
  | Fruit r -> if earlier round r.referenced then r.referenced <- round
  | Block _ | (exception Not_found) -> ()

let fruit_stable t ~id ~round =
  match Keys.find t.fruits id with
  | Fruit r -> if earlier round r.stable then r.stable <- round
  | Block _ | (exception Not_found) -> ()

let block_delivered t ~id ~round ~count =
  if count > 0 then
    match Keys.find t.blocks id with
    | Block r ->
        if r.first_seen < 0 || round < r.first_seen then r.first_seen <- round;
        if round > r.last_seen then r.last_seen <- round;
        r.deliveries <- r.deliveries + count
    | Fruit _ | (exception Not_found) -> ()

let block_adopted t ~id ~round =
  match Keys.find t.blocks id with
  | Block r -> if earlier round r.adopted then r.adopted <- round
  | Fruit _ | (exception Not_found) -> ()

let block_height t ~id ~height =
  match Keys.find t.blocks id with
  | Block r -> if r.height < 0 then r.height <- height
  | Fruit _ | (exception Not_found) -> ()

let reorg t ~party ~round ~depth ~duration =
  let id = Printf.sprintf "reorg-%d" t.reorg_seq in
  t.reorg_seq <- t.reorg_seq + 1;
  Scope.emit t.scope "span.close"
    [
      ("entity", Json.Str "reorg");
      ("id", Json.Str id);
      ("round", Json.Int round);
      ("party", Json.Int party);
      ("depth", Json.Int depth);
      ("duration", Json.Int duration);
    ]

let lag a b = if a >= 0 && b >= 0 then a - b else -1

let close t span =
  let fields =
    match span with
    | Fruit r ->
        [
          ("entity", Json.Str "fruit");
          ("id", Json.Str (t.render r.key));
          ("mined", Json.Int r.mined);
          ("gossiped", Json.Int r.gossiped);
          ("referenced", Json.Int r.referenced);
          ("stable", Json.Int r.stable);
          ("pending", Json.Int (lag r.referenced r.mined));
        ]
    | Block r ->
        [
          ("entity", Json.Str "block");
          ("id", Json.Str (t.render r.key));
          ("mined", Json.Int r.mined);
          ("height", Json.Int r.height);
          ("first_seen", Json.Int r.first_seen);
          ("last_seen", Json.Int r.last_seen);
          ("deliveries", Json.Int r.deliveries);
          ("adopted", Json.Int r.adopted);
          ("latency", Json.Int (lag r.first_seen r.mined));
        ]
  in
  Scope.emit t.scope "span.close" fields

let close_all t =
  for i = 0 to count t - 1 do
    close t t.opened.(i)
  done;
  Keys.reset t.fruits;
  Keys.reset t.blocks;
  t.opened <- [||]
