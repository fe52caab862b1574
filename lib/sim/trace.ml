(* The record of one run, and the engines' single observation module: it
   alone decides which records, trace lines, span marks and end-of-run
   counters a run produces. The engines report protocol facts; this module
   keeps the measurement cadence (probes, snapshots, final heads). The
   exact plane reports per message ([minted], [incoming]) and per round
   ([heads]); the sparse plane, which has no message plane, reports each
   mint once ([fruit_mined], [block_mined]) with the delivery its
   converged-delivery model implies. Both produce the same span schema;
   test_spans.ml holds the field sets equal. *)

open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Params = Fruitchain_core.Params
module Vec = Fruitchain_util.Vec
module Hex = Fruitchain_util.Hex
module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics
module Span = Fruitchain_obs.Span
module Json = Fruitchain_obs.Json

type event = {
  round : int;
  miner : int;
  honest : bool;
  kind : [ `Fruit | `Block ];
  hash : Hash.t;
}

(* Last seen head per party, for the head watch, and the watch's
   instruments. Allocated on first use: only the exact plane watches heads,
   and the sparse plane runs at n = 10^5. Each instrument is looked up by
   name once, when first counted: registering it earlier would put a zero
   in the dump of a run without head changes. *)
type watch = {
  prev_head : Store.id array;
  prev_height : int array;
  prev_change : int array;
  extends : Metrics.counter option Lazy.t;
  switches : Metrics.counter option Lazy.t;
  reorg_depth : Metrics.histogram option Lazy.t;
}

type t = {
  config : Config.t;
  store : Store.t;
  scope : Scope.t;
  events : event Vec.t;
  height_snapshots : (int * int array) Vec.t;
  head_snapshots : (int * Hash.t array) Vec.t;
  probes : (string * int) Vec.t;
  mutable final_heads : Hash.t array;
  mutable oracle_queries : int;
  mutable probe : string;  (* the latest probe's record; "" before the first *)
  spans : Span.t option;  (* [Some] iff the scope is tracing *)
  mutable scheduled : (int * string * (string * Json.t) list) list;  (* pending, by round *)
  watch : watch Lazy.t;
}

(* Reorg depths: a switch of depth d means the party abandoned the last d
   blocks of its previous chain. Depth 1 (sibling tip) dominates under
   honest churn; the tail is what the common-prefix property bounds. *)
let reorg_buckets = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 |]

let int key v = (key, Json.Int v)

(* Short hash prefix for trace lines: enough to correlate events within a
   run without 64-character lines. *)
let short_hex h = Hex.encode (String.sub (Hash.to_raw h) 0 8)

let create ?(scope = Scope.null) ~config ~store () =
  let n = config.Config.n in
  (* Within a round: gossip toggles, then corruptions, then uncorruptions —
     the order the exact engine applies them. *)
  let line ev key value (r, x) = (r, ev, [ (key, value x) ]) in
  let scheduled =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (List.map (line "scenario.gossip" "on" (fun on -> Json.Bool on)) config.Config.gossip_schedule
      @ List.map (line "corrupt" "party" (fun p -> Json.Int p)) config.Config.corruption_schedule
      @ List.map (line "uncorrupt" "party" (fun p -> Json.Int p))
          config.Config.uncorruption_schedule)
  in
  {
    config;
    store;
    scope;
    events = Vec.create ();
    height_snapshots = Vec.create ();
    head_snapshots = Vec.create ();
    probes = Vec.create ();
    final_heads = [||];
    oracle_queries = 0;
    probe = "";
    spans =
      (if Scope.tracing scope then
         Some (Span.create ~scope ~render:(fun raw -> short_hex (Hash.of_digest raw)) ())
       else None);
    scheduled;
    watch =
      lazy
        (let instrument make = lazy (Option.map make (Scope.metrics scope)) in
         {
           prev_head = Array.make n Store.genesis_id;
           prev_height = Array.make n 0;
           prev_change = Array.make n 0;
           extends = instrument (fun m -> Metrics.counter m "sim.head_extends");
           switches = instrument (fun m -> Metrics.counter m "sim.head_switches");
           reorg_depth =
             instrument (fun m -> Metrics.histogram m ~buckets:reorg_buckets "sim.reorg_depth");
         });
  }

let config t = t.config
let store t = t.store
let scope t = t.scope

(* --- Records ------------------------------------------------------------ *)

let record_event t e =
  Vec.push t.events e;
  if Scope.tracing t.scope then
    Scope.emit t.scope "mint"
      [
        ("round", Json.Int e.round);
        ("miner", Json.Int e.miner);
        ("honest", Json.Bool e.honest);
        ("kind", Json.Str (match e.kind with `Fruit -> "fruit" | `Block -> "block"));
        ("hash", Json.Str (short_hex e.hash));
      ]

let record_heights t ~round hs = Vec.push t.height_snapshots (round, hs)
let record_heads t ~round hs = Vec.push t.head_snapshots (round, hs)
let set_final_heads t heads = t.final_heads <- heads
let set_oracle_queries t n = t.oracle_queries <- n
let events t = Vec.to_list t.events
let event_count t = Vec.length t.events
let iter_events t ~f = Vec.iter t.events ~f
let height_snapshots t = Vec.to_list t.height_snapshots
let head_snapshots t = Vec.to_list t.head_snapshots
let probes t = Vec.to_list t.probes
let final_heads t = t.final_heads
let oracle_queries t = t.oracle_queries

let honest_parties t =
  List.filter
    (fun i -> not (Config.is_ever_corrupt t.config i))
    (List.init t.config.Config.n Fun.id)

let final_head_of t ~party =
  if Int.equal (Array.length t.final_heads) 0 then invalid_arg "Trace.final_head_of: run not finished";
  t.final_heads.(party)

let honest_final_chain t =
  match honest_parties t with
  | [] -> invalid_arg "Trace.honest_final_chain: no honest parties"
  | i :: _ -> Store.to_list t.store ~head:(final_head_of t ~party:i)

(* --- Run cadence -------------------------------------------------------- *)

let start t =
  if Scope.tracing t.scope then begin
    let c = t.config in
    let protocol =
      match c.Config.protocol with Config.Nakamoto -> "nakamoto" | Config.Fruitchain -> "fruitchain"
    in
    let engine =
      match c.Config.engine with
      | Config.Exact -> []
      | Config.Sparse -> [ ("engine", Json.Str "sparse") ]
    in
    Scope.emit t.scope "run.start"
      ((("protocol", Json.Str protocol) :: engine)
      @ [
          int "n" c.Config.n;
          int "rounds" c.Config.rounds;
          int "delta" c.Config.delta;
          int "kappa" c.Config.params.Params.kappa;
          int "recency" (Params.recency_window c.Config.params);
          ("seed", Json.Str (Int64.to_string c.Config.seed));
        ])
  end

let every k round = Int.equal (round mod k) 0

(* Liveness probes model a submitted transaction: from its injection round
   until the next probe replaces it, every honest party keeps offering the
   probe record to its mining attempts (the mempool behaviour the liveness
   definition quantifies over — the record is input to honest players from
   round r' on). *)
let round_start t ~round =
  let rec emit = function
    | (r, ev, fields) :: rest when r <= round ->
        if Int.equal r round && Scope.tracing t.scope then
          Scope.emit t.scope ev (int "round" round :: fields);
        emit rest
    | pending -> pending
  in
  (match t.scheduled with [] -> () | pending -> t.scheduled <- emit pending);
  let probes = t.config.Config.probe_interval in
  if probes > 0 && every probes round then begin
    let record = Printf.sprintf "probe/%d" round in
    Vec.push t.probes (record, round);
    t.probe <- record;
    if Scope.tracing t.scope then
      Scope.emit t.scope "probe" [ int "round" round; ("record", Json.Str record) ]
  end

let record t base = if Int.equal (String.length base) 0 then t.probe else base

let next_visit t ~after =
  let c = t.config in
  let next k = ((after / k) + 1) * k in
  let v = Int.min (next c.Config.snapshot_interval) (next c.Config.head_snapshot_interval) in
  let v = if c.Config.probe_interval > 0 then Int.min v (next c.Config.probe_interval) else v in
  match t.scheduled with (r, _, _) :: _ when r > after -> Int.min v r | _ -> v

(* Fills [into] with [value id] for each party whose head is [Some id];
   the arrays are preallocated with the corrupt parties' entry, since the
   sparse plane fills 10^5 of them per snapshot. *)
let fill into head value =
  for i = 0 to Array.length into - 1 do
    match head i with Some h -> into.(i) <- value h | None -> ()
  done;
  into

let head_hashes t head =
  fill (Array.make t.config.Config.n Types.genesis.b_hash) head (Store.hash_at t.store)

let measure t ~round head network =
  let c = t.config in
  if every c.Config.snapshot_interval round then begin
    let heights = fill (Array.make c.Config.n (-1)) head (Store.height_at t.store) in
    record_heights t ~round heights;
    if Scope.tracing t.scope then begin
      let mn = ref max_int and mx = ref (-1) in
      Array.iter
        (fun h ->
          if h >= 0 then begin
            if h < !mn then mn := h;
            if h > !mx then mx := h
          end)
        heights;
      if !mx >= 0 then Scope.emit t.scope "heights" [ int "round" round; int "min" !mn; int "max" !mx ];
      Scope.emit t.scope "net"
        [
          int "round" round;
          int "sent" (Network.sent network);
          int "delivered" (Network.delivered network);
          int "pending" (Network.pending network);
        ]
    end
  end;
  if every c.Config.head_snapshot_interval round then record_heads t ~round (head_hashes t head)

let adversary t ~round name ~counters fields =
  if Scope.enabled t.scope then begin
    List.iter (fun (counter, by) -> Scope.incr ~by t.scope counter) counters;
    if Scope.tracing t.scope then Scope.emit t.scope name (int "round" round :: fields)
  end

(* --- Spans: every mark opens its entity lazily from provenance --------- *)

(* Span ids are raw digests; the tracker renders one, as [short_hex], when
   its span opens. *)
let key = Hash.to_raw

let open_fruit span (f : Types.fruit) =
  match f.Types.f_prov with
  | Some pr ->
      Span.fruit span ~id:(key f.Types.f_hash) ~round:pr.Types.round ~miner:pr.Types.miner
        ~honest:pr.Types.honest
  | None -> ()

(* A fruit without provenance never has a span, so its mark would drop. *)
let gossip_fruit span (f : Types.fruit) ~round =
  match f.Types.f_prov with
  | Some pr ->
      Span.fruit_gossiped span ~id:(key f.Types.f_hash) ~mined:pr.Types.round
        ~miner:pr.Types.miner ~honest:pr.Types.honest ~round
  | None -> ()

let reference_fruits span (b : Types.block) =
  let bround = match b.Types.b_prov with Some pr -> pr.Types.round | None -> -1 in
  List.iter
    (fun (f : Types.fruit) ->
      open_fruit span f;
      Span.fruit_referenced span ~id:(key f.Types.f_hash) ~round:bround)
    b.Types.fruits

(* Opens the block's span and its fruits', and marks the fruits referenced
   at the block's mint round, on the first sighting only: every later
   sighting carries the same fruits and the same round, and marks keep the
   earliest round. A block without provenance opens no span; its fruits
   are opened on every sighting, which opening makes idempotent. *)
let sight_block t span (b : Types.block) =
  match b.Types.b_prov with
  | Some pr ->
      let height =
        match Store.find_id t.store b.Types.b_hash with
        | Some id -> Store.height_at t.store id
        | None -> -1
      in
      if
        Span.block span ~id:(key b.Types.b_hash) ~round:pr.Types.round ~miner:pr.Types.miner
          ~honest:pr.Types.honest ~height
      then reference_fruits span b
  | None -> List.iter (open_fruit span) b.Types.fruits

(* --- Exact plane -------------------------------------------------------- *)

(* The empty-list returns come before the [List.iter] closures are built:
   most parties mint nothing and receive nothing in most rounds. *)
let minted t ~round ~miner msgs =
  match msgs with
  | [] -> ()
  | _ :: _ -> (
      List.iter
        (fun (m : Message.t) ->
          if not m.Message.relay then
            match m.Message.payload with
            | Message.Fruit_announce f ->
                record_event t { round; miner; honest = true; kind = `Fruit; hash = f.Types.f_hash }
            | Message.Chain_announce { blocks = [ b ]; _ } ->
                record_event t { round; miner; honest = true; kind = `Block; hash = b.Types.b_hash }
            | Message.Chain_announce _ -> ())
        msgs;
      match t.spans with
      | None -> ()
      | Some span ->
          List.iter
            (fun (m : Message.t) ->
              if not m.Message.relay then
                match m.Message.payload with
                | Message.Fruit_announce f -> open_fruit span f
                | Message.Chain_announce { blocks; _ } -> List.iter (sight_block t span) blocks)
            msgs)

let incoming t ~round msgs =
  match (t.spans, msgs) with
  | None, _ | _, [] -> ()
  | Some span, _ :: _ ->
      List.iter
        (fun (m : Message.t) ->
          match m.Message.payload with
          | Message.Fruit_announce f -> gossip_fruit span f ~round
          | Message.Chain_announce { blocks; _ } ->
              List.iter
                (fun (b : Types.block) ->
                  sight_block t span b;
                  Span.block_delivered span ~id:(key b.Types.b_hash) ~round ~count:1)
                blocks)
        msgs

(* Extensions walk [new height - old height] parent links; switches
   additionally walk to the fork point. *)
let heads t ~round head =
  if Scope.enabled t.scope then begin
    let { prev_head; prev_height; prev_change; extends; switches; reorg_depth } =
      Lazy.force t.watch
    and store = t.store in
    let bump counter = Option.iter (fun c -> Metrics.incr c) (Lazy.force counter) in
    for i = 0 to t.config.Config.n - 1 do
      match head i with
      | Some h when not (Store.id_equal h prev_head.(i)) ->
          let height = Store.height_at store h in
          let extended =
            match Store.ancestor_id_at_height store ~head:h ~height:prev_height.(i) with
            | Some a -> Store.id_equal a prev_head.(i)
            | None -> false
          in
          if extended then bump extends
          else begin
            let depth = prev_height.(i) - Store.common_prefix_height_id store h prev_head.(i) in
            bump switches;
            Option.iter (fun hist -> Metrics.observe hist depth) (Lazy.force reorg_depth);
            Option.iter
              (fun span ->
                Span.reorg span ~party:i ~round ~depth ~duration:(round - prev_change.(i)))
              t.spans;
            if Scope.tracing t.scope then
              Scope.emit t.scope "reorg"
                [ int "round" round; int "party" i; int "depth" depth; int "height" height ]
          end;
          Option.iter
            (fun span -> Span.block_adopted span ~id:(key (Store.hash_at store h)) ~round)
            t.spans;
          prev_head.(i) <- h;
          prev_height.(i) <- height;
          prev_change.(i) <- round
      | Some _ | None -> ()
    done
  end

(* --- Sparse plane ------------------------------------------------------- *)

let record_mint t kind hash = function
  | Some (pr : Types.provenance) ->
      record_event t
        { round = pr.Types.round; miner = pr.Types.miner; honest = pr.Types.honest; kind; hash }
  | None -> ()

let mint_round = function Some (pr : Types.provenance) -> pr.Types.round | None -> -1

let fruit_mined t (f : Types.fruit) =
  record_mint t `Fruit f.Types.f_hash f.Types.f_prov;
  Option.iter
    (fun span -> gossip_fruit span f ~round:(mint_round f.Types.f_prov + t.config.Config.delta))
    t.spans

let block_mined t ~sibling (b : Types.block) =
  record_mint t `Block b.Types.b_hash b.Types.b_prov;
  Option.iter
    (fun span ->
      sight_block t span b;
      let id = key b.Types.b_hash and round = mint_round b.Types.b_prov in
      Span.block_delivered span ~id ~round:(round + t.config.Config.delta)
        ~count:(t.config.Config.n - 1);
      if not sibling then Span.block_adopted span ~id ~round)
    t.spans

(* --- End of run --------------------------------------------------------- *)

(* End-of-run harvest: the hot paths (oracle queries, message delivery)
   keep native int counters; this folds them into the scope's registry
   exactly once, so instrumentation costs O(1) per run there. *)
let harvest t m ~network ~oracle ~final_height ~extra =
  let add name by = Metrics.incr ~by (Metrics.counter m name) in
  let fh = ref 0 and fa = ref 0 and bh = ref 0 and ba = ref 0 in
  iter_events t ~f:(fun e ->
      match (e.kind, e.honest) with
      | `Fruit, true -> incr fh
      | `Fruit, false -> incr fa
      | `Block, true -> incr bh
      | `Block, false -> incr ba);
  List.iter
    (fun (name, by) -> add name by)
    ([
       ("sim.runs", 1);
       ("sim.rounds", t.config.Config.rounds);
       ("sim.probes", Vec.length t.probes);
       ("oracle.queries", Oracle.queries oracle);
       ("oracle.wins.block", Oracle.block_wins oracle);
       ("oracle.wins.fruit", Oracle.fruit_wins oracle);
       ("net.sent", Network.sent network);
       ("net.delivered", Network.delivered network);
       ("sim.mint.fruit.honest", !fh);
       ("sim.mint.fruit.adversary", !fa);
       ("sim.mint.block.honest", !bh);
       ("sim.mint.block.adversary", !ba);
     ]
    @ extra);
  Metrics.set (Metrics.gauge m "sim.final_height") (float_of_int final_height)

(* Walk the canonical chain once to back-fill what only the final view
   decides — block heights, fruit reference rounds, and fruit stability
   (the referencing block buried kappa deep; the stable round is the mint
   round of the block kappa positions above) — then close every span in
   open order. *)
let close_spans t span =
  (match honest_parties t with
  | [] -> ()
  | _ :: _ ->
      let kappa = Params.pointer_depth t.config.Config.params in
      let chain = Array.of_list (honest_final_chain t) in
      Array.iteri
        (fun h (b : Types.block) ->
          Span.block_height span ~id:(key b.Types.b_hash) ~height:h;
          if not (List.is_empty b.Types.fruits) then begin
            let stable_round =
              if h + kappa < Array.length chain then mint_round chain.(h + kappa).Types.b_prov
              else -1
            in
            reference_fruits span b;
            if stable_round >= 0 then
              List.iter
                (fun (f : Types.fruit) ->
                  Span.fruit_stable span ~id:(key f.Types.f_hash) ~round:stable_round)
                b.Types.fruits
          end)
        chain);
  Span.close_all span

let finish t head ~network ~oracle ~extra =
  set_final_heads t (head_hashes t head);
  set_oracle_queries t (Oracle.queries oracle);
  if Scope.enabled t.scope then begin
    let final_height =
      match honest_parties t with
      | [] -> -1
      | i :: _ -> Store.height t.store (final_head_of t ~party:i)
    in
    Option.iter (fun m -> harvest t m ~network ~oracle ~final_height ~extra) (Scope.metrics t.scope);
    Option.iter (close_spans t) t.spans;
    if Scope.tracing t.scope then
      Scope.emit t.scope "run.end"
        [
          int "rounds" t.config.Config.rounds;
          int "final_height" final_height;
          int "events" (event_count t);
          int "queries" (Oracle.queries oracle);
        ]
  end
