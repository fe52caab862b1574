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
   attribution points. A key is rendered into the trace's id once, by the
   caller's [render], when its span opens: marks are hash lookups that
   allocate nothing.

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

type record = {
  kind : [ `Fruit | `Block ];
  id : string;  (* rendered *)
  mined : int;
  mutable height : int;  (* blocks; -1 until known *)
  mutable gossiped : int;  (* fruits: first delivery round *)
  mutable referenced : int;  (* fruits: mint round of the first referencing block *)
  mutable stable : int;  (* fruits: round the carrying block got buried kappa deep *)
  mutable first_seen : int;  (* blocks: first per-recipient delivery round *)
  mutable last_seen : int;  (* blocks: last per-recipient delivery round *)
  mutable deliveries : int;  (* blocks: per-recipient deliveries (incl. relays) *)
  mutable adopted : int;  (* blocks: first round any party adopted it as head *)
}

(* One table per entity kind: a single oracle query can win both
   difficulties, and the fruit and the block it yields share a digest. *)
type t = {
  scope : Scope.t;
  render : string -> string;
  fruits : (string, record) Hashtbl.t;
  blocks : (string, record) Hashtbl.t;
  mutable rev_order : record list;
  mutable reorg_seq : int;
}

let create ~scope ~render () =
  {
    scope;
    render;
    fruits = Hashtbl.create 256;
    blocks = Hashtbl.create 256;
    rev_order = [];
    reorg_seq = 0;
  }

let count t = Hashtbl.length t.fruits + Hashtbl.length t.blocks

let table t = function `Fruit -> t.fruits | `Block -> t.blocks

let entity_name = function `Fruit -> "fruit" | `Block -> "block"

(* Whether it opened a span: false when [id] already has one. *)
let open_span t kind ~id ~round ~miner ~honest ~height =
  let spans = table t kind in
  if Hashtbl.mem spans id then false
  else begin
    let r =
      {
        kind;
        id = t.render id;
        mined = round;
        height;
        gossiped = -1;
        referenced = -1;
        stable = -1;
        first_seen = -1;
        last_seen = -1;
        deliveries = 0;
        adopted = -1;
      }
    in
    Hashtbl.add spans id r;
    t.rev_order <- r :: t.rev_order;
    let base =
      [
        ("entity", Json.Str (entity_name kind));
        ("id", Json.Str r.id);
        ("round", Json.Int round);
        ("miner", Json.Int miner);
        ("honest", Json.Bool honest);
      ]
    in
    let fields =
      match kind with `Fruit -> base | `Block -> base @ [ ("height", Json.Int height) ]
    in
    Scope.emit t.scope "span.open" fields;
    true
  end

let fruit t ~id ~round ~miner ~honest =
  ignore (open_span t `Fruit ~id ~round ~miner ~honest ~height:(-1))

let block t ~id ~round ~miner ~honest ~height = open_span t `Block ~id ~round ~miner ~honest ~height

(* min-semantics phase mark on an already-open span; unknown ids drop. *)
let mark spans ~id ~round get set =
  if round >= 0 then
    match Hashtbl.find_opt spans id with
    | None -> ()
    | Some r ->
        let current = get r in
        if current < 0 || round < current then set r round

let fruit_gossiped t ~id ~round =
  mark t.fruits ~id ~round (fun r -> r.gossiped) (fun r v -> r.gossiped <- v)

let fruit_referenced t ~id ~round =
  mark t.fruits ~id ~round (fun r -> r.referenced) (fun r v -> r.referenced <- v)

let fruit_stable t ~id ~round =
  mark t.fruits ~id ~round (fun r -> r.stable) (fun r v -> r.stable <- v)

let block_delivered t ~id ~round ~count =
  if count > 0 then
    match Hashtbl.find_opt t.blocks id with
    | None -> ()
    | Some r ->
        if r.first_seen < 0 || round < r.first_seen then r.first_seen <- round;
        if round > r.last_seen then r.last_seen <- round;
        r.deliveries <- r.deliveries + count

let block_adopted t ~id ~round =
  mark t.blocks ~id ~round (fun r -> r.adopted) (fun r v -> r.adopted <- v)

let block_height t ~id ~height =
  match Hashtbl.find_opt t.blocks id with
  | None -> ()
  | Some r -> if r.height < 0 then r.height <- height

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

let close t (r : record) =
  let fields =
    match r.kind with
    | `Fruit ->
        [
          ("entity", Json.Str "fruit");
          ("id", Json.Str r.id);
          ("mined", Json.Int r.mined);
          ("gossiped", Json.Int r.gossiped);
          ("referenced", Json.Int r.referenced);
          ("stable", Json.Int r.stable);
          ("pending", Json.Int (lag r.referenced r.mined));
        ]
    | `Block ->
        [
          ("entity", Json.Str "block");
          ("id", Json.Str r.id);
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
  List.iter (close t) (List.rev t.rev_order);
  Hashtbl.reset t.fruits;
  Hashtbl.reset t.blocks;
  t.rev_order <- []
