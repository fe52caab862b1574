(* The engines' single observation module: it alone decides which trace
   lines, span marks and end-of-run counters a run produces. The exact
   plane reports per message ([minted], [incoming]) and per round
   ([heads]); the sparse plane, which has no message plane, reports each
   mint once ([fruit_mined], [block_mined]) with the delivery its
   converged-delivery model implies. Both produce the same span schema;
   test_spans.ml holds the field sets equal. *)

open Fruitchain_chain
module Oracle = Fruitchain_crypto.Oracle
module Network = Fruitchain_net.Network
module Message = Fruitchain_net.Message
module Params = Fruitchain_core.Params
module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics
module Span = Fruitchain_obs.Span
module Json = Fruitchain_obs.Json

(* Last seen head per party, for the head watch. Allocated on first use:
   only the exact plane watches heads, and the sparse plane runs at n = 10^5. *)
type watch = { prev_head : Store.id array; prev_height : int array; prev_change : int array }

type t = {
  scope : Scope.t;
  config : Config.t;
  store : Store.t;
  trace : Trace.t;
  spans : Span.t option;  (* [Some] iff the scope is tracing *)
  mutable scheduled : (int * string * (string * Json.t) list) list;  (* pending, by round *)
  watch : watch Lazy.t;
}

let int key v = (key, Json.Int v)

let create ~scope ~config ~store =
  let tracing = Scope.tracing scope and n = config.Config.n in
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
    scope;
    config;
    store;
    trace = Trace.create ~scope ~config ~store ();
    spans = (if tracing then Some (Span.create ~scope ()) else None);
    scheduled;
    watch =
      lazy
        {
          prev_head = Array.make n Store.genesis_id;
          prev_height = Array.make n 0;
          prev_change = Array.make n 0;
        };
  }

let trace t = t.trace

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

let schedule t ~round =
  let rec emit = function
    | (r, ev, fields) :: rest when r <= round ->
        if r = round && Scope.tracing t.scope then
          Scope.emit t.scope ev (int "round" round :: fields);
        emit rest
    | pending -> pending
  in
  match t.scheduled with [] -> () | pending -> t.scheduled <- emit pending

let next_scheduled t = match t.scheduled with (r, _, _) :: _ -> r | [] -> max_int

(* --- Spans: every mark opens its entity lazily from provenance --------- *)

let short = Trace.short_hex

let open_fruit span (f : Types.fruit) =
  match f.Types.f_prov with
  | Some pr ->
      Span.fruit span ~id:(short f.Types.f_hash) ~round:pr.Types.round ~miner:pr.Types.miner
        ~honest:pr.Types.honest
  | None -> ()

let open_block t span (b : Types.block) =
  match b.Types.b_prov with
  | Some pr ->
      let height =
        match Store.find_id t.store b.Types.b_hash with
        | Some id -> Store.height_at t.store id
        | None -> -1
      in
      Span.block span ~id:(short b.Types.b_hash) ~round:pr.Types.round ~miner:pr.Types.miner
        ~honest:pr.Types.honest ~height
  | None -> ()

let reference_fruits span (b : Types.block) =
  let bround = match b.Types.b_prov with Some pr -> pr.Types.round | None -> -1 in
  List.iter
    (fun (f : Types.fruit) ->
      open_fruit span f;
      Span.fruit_referenced span ~id:(short f.Types.f_hash) ~round:bround)
    b.Types.fruits

(* --- Exact plane -------------------------------------------------------- *)

let minted t ~round ~miner msgs =
  List.iter
    (fun (m : Message.t) ->
      if not m.Message.relay then
        match m.Message.payload with
        | Message.Fruit_announce f ->
            Trace.record_event t.trace
              { Trace.round; miner; honest = true; kind = `Fruit; hash = f.Types.f_hash }
        | Message.Chain_announce { blocks = [ b ]; _ } ->
            Trace.record_event t.trace
              { Trace.round; miner; honest = true; kind = `Block; hash = b.Types.b_hash }
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
            | Message.Chain_announce { blocks; _ } ->
                List.iter
                  (fun b ->
                    open_block t span b;
                    reference_fruits span b)
                  blocks)
        msgs

let incoming t ~round msgs =
  match t.spans with
  | None -> ()
  | Some span ->
      List.iter
        (fun (m : Message.t) ->
          match m.Message.payload with
          | Message.Fruit_announce f ->
              open_fruit span f;
              Span.fruit_gossiped span ~id:(short f.Types.f_hash) ~round
          | Message.Chain_announce { blocks; _ } ->
              List.iter
                (fun (b : Types.block) ->
                  open_block t span b;
                  Span.block_delivered span ~id:(short b.Types.b_hash) ~round ~count:1;
                  reference_fruits span b)
                blocks)
        msgs

(* Reorg depths: a switch of depth d means the party abandoned the last d
   blocks of its previous chain. Depth 1 (sibling tip) dominates under
   honest churn; the tail is what the common-prefix property bounds. *)
let reorg_buckets = [| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 |]

(* Extensions walk [new height - old height] parent links; switches
   additionally walk to the fork point. *)
let heads t ~round head =
  if Scope.enabled t.scope then begin
    let { prev_head; prev_height; prev_change } = Lazy.force t.watch and store = t.store in
    for i = 0 to t.config.Config.n - 1 do
      match head i with
      | Some h when not (Store.id_equal h prev_head.(i)) ->
          let height = Store.height_at store h in
          let extends =
            match Store.ancestor_id_at_height store ~head:h ~height:prev_height.(i) with
            | Some a -> Store.id_equal a prev_head.(i)
            | None -> false
          in
          if extends then Scope.incr t.scope "sim.head_extends"
          else begin
            let depth = prev_height.(i) - Store.common_prefix_height_id store h prev_head.(i) in
            Scope.incr t.scope "sim.head_switches";
            Option.iter
              (fun m ->
                Metrics.observe (Metrics.histogram m ~buckets:reorg_buckets "sim.reorg_depth") depth)
              (Scope.metrics t.scope);
            Option.iter
              (fun span ->
                Span.reorg span ~party:i ~round ~depth ~duration:(round - prev_change.(i)))
              t.spans;
            if Scope.tracing t.scope then
              Scope.emit t.scope "reorg"
                [ int "round" round; int "party" i; int "depth" depth; int "height" height ]
          end;
          Option.iter
            (fun span -> Span.block_adopted span ~id:(short (Store.hash_at store h)) ~round)
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
      Trace.record_event t.trace
        { Trace.round = pr.Types.round; miner = pr.Types.miner; honest = pr.Types.honest; kind; hash }
  | None -> ()

let mint_round = function Some (pr : Types.provenance) -> pr.Types.round | None -> -1

let fruit_mined t (f : Types.fruit) =
  record_mint t `Fruit f.Types.f_hash f.Types.f_prov;
  Option.iter
    (fun span ->
      open_fruit span f;
      Span.fruit_gossiped span ~id:(short f.Types.f_hash)
        ~round:(mint_round f.Types.f_prov + t.config.Config.delta))
    t.spans

let block_mined t ~sibling (b : Types.block) =
  record_mint t `Block b.Types.b_hash b.Types.b_prov;
  Option.iter
    (fun span ->
      open_block t span b;
      let id = short b.Types.b_hash and round = mint_round b.Types.b_prov in
      Span.block_delivered span ~id ~round:(round + t.config.Config.delta)
        ~count:(t.config.Config.n - 1);
      if not sibling then Span.block_adopted span ~id ~round;
      reference_fruits span b)
    t.spans

(* --- Both planes -------------------------------------------------------- *)

let snapshot t ~round heights network =
  Trace.record_heights t.trace ~round heights;
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

(* End-of-run harvest: the hot paths (oracle queries, message delivery)
   keep native int counters; this folds them into the scope's registry
   exactly once, so instrumentation costs O(1) per run there. *)
let harvest t m ~network ~oracle ~final_height ~extra =
  let add name by = Metrics.incr ~by (Metrics.counter m name) in
  let fh = ref 0 and fa = ref 0 and bh = ref 0 and ba = ref 0 in
  Trace.iter_events t.trace ~f:(fun (e : Trace.event) ->
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
       ("sim.probes", Trace.probe_count t.trace);
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
  (match Trace.honest_parties t.trace with
  | [] -> ()
  | _ :: _ ->
      let kappa = Params.pointer_depth t.config.Config.params in
      let chain = Array.of_list (Trace.honest_final_chain t.trace) in
      Array.iteri
        (fun h (b : Types.block) ->
          Span.block_height span ~id:(short b.Types.b_hash) ~height:h;
          if b.Types.fruits <> [] then begin
            let stable_round =
              if h + kappa < Array.length chain then mint_round chain.(h + kappa).Types.b_prov
              else -1
            in
            reference_fruits span b;
            if stable_round >= 0 then
              List.iter
                (fun (f : Types.fruit) ->
                  Span.fruit_stable span ~id:(short f.Types.f_hash) ~round:stable_round)
                b.Types.fruits
          end)
        chain);
  Span.close_all span

let finish t ~network ~oracle ~extra =
  if Scope.enabled t.scope then begin
    let final_height =
      match Trace.honest_parties t.trace with
      | [] -> -1
      | i :: _ -> Store.height t.store (Trace.final_head_of t.trace ~party:i)
    in
    Option.iter (fun m -> harvest t m ~network ~oracle ~final_height ~extra) (Scope.metrics t.scope);
    Option.iter (close_spans t) t.spans;
    if Scope.tracing t.scope then
      Scope.emit t.scope "run.end"
        [
          int "rounds" t.config.Config.rounds;
          int "final_height" final_height;
          int "events" (Trace.event_count t.trace);
          int "queries" (Oracle.queries oracle);
        ]
  end
