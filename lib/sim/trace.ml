open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash
module Vec = Fruitchain_util.Vec
module Hex = Fruitchain_util.Hex
module Scope = Fruitchain_obs.Scope
module Json = Fruitchain_obs.Json

type event = {
  round : int;
  miner : int;
  honest : bool;
  kind : [ `Fruit | `Block ];
  hash : Hash.t;
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
}

let create ?(scope = Scope.null) ~config ~store () =
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
  }

let config t = t.config
let store t = t.store
let scope t = t.scope

(* Short hash prefix for trace lines: enough to correlate events within a
   run without 64-character lines. *)
let short_hex h = Hex.encode (String.sub (Hash.to_raw h) 0 8)

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

let record_probe t ~record ~round =
  Vec.push t.probes (record, round);
  if Scope.tracing t.scope then
    Scope.emit t.scope "probe" [ ("round", Json.Int round); ("record", Json.Str record) ]

let set_final_heads t heads = t.final_heads <- heads
let set_oracle_queries t n = t.oracle_queries <- n
let events t = Vec.to_list t.events
let event_count t = Vec.length t.events
let iter_events t ~f = Vec.iter t.events ~f
let height_snapshots t = Vec.to_list t.height_snapshots
let head_snapshots t = Vec.to_list t.head_snapshots
let probes t = Vec.to_list t.probes
let probe_count t = Vec.length t.probes
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
