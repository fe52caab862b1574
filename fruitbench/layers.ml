(* Per-layer kernels of the traced pass, timed from the benchmark's own
   files around calls into each layer's public functions.

   - Substrate micro-benchmarks: the crypto and chain hot paths on fixed
     inputs, in ns per call.
   - Replay kernels: layer calls re-run on a finished run's own data
     (its final chain, its blocks, its events), for the layers a
     monolithic engine loop hides — above all [Sparse.run]. Each replay
     also checks what it recomputes. *)

open Fruitchain_chain
module Trace = Fruitchain_sim.Trace
module Config = Fruitchain_sim.Config
module Params = Fruitchain_core.Params
module Oracle = Fruitchain_crypto.Oracle
module Merkle = Fruitchain_crypto.Merkle
module Sha256 = Fruitchain_crypto.Sha256
module Hash = Fruitchain_crypto.Hash
module Network = Fruitchain_net.Network
module Rng = Fruitchain_util.Rng
module Alias = Fruitchain_util.Alias
module Sampling = Fruitchain_util.Sampling
module Consistency = Fruitchain_metrics.Consistency

(* --- Substrate micro-benchmarks ----------------------------------------- *)

(* A block carrying 100 fruits, every hash produced by the SHA-256 oracle. *)
let sample_block =
  let oracle = Oracle.real ~p:1.0 ~pf:1.0 in
  let rng = Rng.of_seed 1L in
  let fruit record =
    let header =
      {
        Types.parent = Types.genesis_hash;
        pointer = Types.genesis_hash;
        nonce = Rng.bits64 rng;
        digest = Merkle.empty_root;
        record;
      }
    in
    { Types.f_header = header; f_hash = Oracle.query oracle (Codec.header_bytes header); f_prov = None }
  in
  let fruits = List.init 100 (fun i -> fruit (Printf.sprintf "tx-%04d" i)) in
  let header =
    {
      Types.parent = Types.genesis_hash;
      pointer = Types.genesis_hash;
      nonce = 7L;
      digest = Validate.fruit_set_digest fruits;
      record = "";
    }
  in
  {
    Types.b_header = header;
    b_hash = Oracle.query oracle (Codec.header_bytes header);
    fruits;
    b_prov = None;
  }

let substrate () =
  let payload = String.make 256 'x' in
  let leaves = List.init 100 (fun i -> Printf.sprintf "leaf-%d" i) in
  let sim_oracle = Oracle.sim ~p:0.01 ~pf:0.1 (Rng.of_seed 2L) in
  let real_oracle = Oracle.real ~p:1.0 ~pf:1.0 in
  let block_bytes = Codec.block_bytes sample_block in
  [
    ("crypto.sha256_256B_ns", Stats.ns_per_call (fun () -> Sha256.digest payload));
    ("crypto.merkle_root100_ns", Stats.ns_per_call (fun () -> Merkle.root leaves));
    ("crypto.oracle_sim_query_ns", Stats.ns_per_call (fun () -> Oracle.query sim_oracle ""));
    ("chain.codec_encode100_ns", Stats.ns_per_call (fun () -> Codec.block_bytes sample_block));
    ("chain.codec_decode_ns", Stats.ns_per_call (fun () -> Codec.block_of_bytes block_bytes));
    ( "chain.validate_block100_ns",
      Stats.ns_per_call (fun () -> Validate.valid_block real_oracle sample_block) );
  ]

(* --- Replay kernels on a run's own data --------------------------------- *)

type replay = {
  fruit_set_digest_s : float;
  store_add_s : float;
  trace_record_s : float;
  consistency_s : float;
  digest_mismatches : int;  (** Blocks whose header digest is not d(F). *)
}

let events trace = Array.of_list (Trace.events trace)
let is_block = Workload.is_block

(* Recomputes every final-chain block's fruit-set digest, re-inserts
   every minted block into a fresh store, re-records every event into a
   fresh trace, and measures consistency. *)
let replay trace =
  let config = Trace.config trace and store = Trace.store trace in
  let chain =
    List.filter
      (fun (b : Types.block) -> not (Hash.equal b.b_hash Types.genesis_hash))
      (Trace.honest_final_chain trace)
  in
  let evs = events trace in
  let blocks =
    Array.of_list
      (List.filter_map
         (fun (e : Trace.event) -> if is_block e then Some (Store.find_exn store e.hash) else None)
         (Array.to_list evs))
  in
  let mismatches, fruit_set_digest_s =
    Stats.timed (fun () ->
        List.fold_left
          (fun acc (b : Types.block) ->
            if Hash.equal (Validate.fruit_set_digest b.fruits) b.b_header.digest then acc else acc + 1)
          0 chain)
  in
  let (), store_add_s =
    Stats.timed (fun () ->
        let fresh = Store.create () in
        Array.iter (Store.add fresh) blocks)
  in
  let (), trace_record_s =
    Stats.timed (fun () ->
        let fresh = Trace.create ~config ~store () in
        Array.iter (Trace.record_event fresh) evs)
  in
  let _, consistency_s = Stats.timed (fun () -> Consistency.measure trace) in
  { fruit_set_digest_s; store_add_s; trace_record_s; consistency_s; digest_mismatches = mismatches }

(* --- Sparse-plane kernels at the run's own call counts ------------------- *)

type sparse_kernels = {
  alias_build_s : float;
  alias_sample_s : float;
  binomial_pos_s : float;
  sample_win_s : float;
  deliver_batch_s : float;
}

(* [Sparse.run] builds one alias table (no power changes), draws one
   binomial per round holding a win of each kind, attributes and forges
   one digest per win, and accounts one batch delivery per win. *)
let sparse_kernels trace =
  let config = Trace.config trace in
  let n = config.Config.n and params = config.Config.params in
  let p = params.Params.p and pf = params.Params.pf in
  let evs = events trace in
  let wins = Array.length evs in
  let win_rounds kind =
    let last = ref (-1) and count = ref 0 in
    Array.iter
      (fun (e : Trace.event) ->
        if Bool.equal (is_block e) kind && e.round <> !last then begin
          incr count;
          last := e.round
        end)
      evs;
    !count
  in
  let block_rounds = win_rounds true and fruit_rounds = win_rounds false in
  let weights = Array.make n 1.0 in
  let alias_build_s =
    Stats.median (List.init 5 (fun _ -> snd (Stats.timed (fun () -> Alias.create weights))))
  in
  let table = Alias.create weights in
  let rng = Rng.of_seed 11L in
  let (), alias_sample_s =
    Stats.timed (fun () ->
        for _ = 1 to wins do
          ignore (Sys.opaque_identity (Alias.sample table rng))
        done)
  in
  let (), binomial_pos_s =
    Stats.timed (fun () ->
        for _ = 1 to block_rounds do
          ignore (Sys.opaque_identity (Sampling.binomial_pos rng n p))
        done;
        for _ = 1 to fruit_rounds do
          ignore (Sys.opaque_identity (Sampling.binomial_pos rng n pf))
        done)
  in
  let oracle = Oracle.sim ~p ~pf (Rng.of_seed 12L) in
  let (), sample_win_s =
    Stats.timed (fun () ->
        Array.iter
          (fun e ->
            let block = is_block e in
            ignore (Sys.opaque_identity (Oracle.sample_win oracle ~block ~fruit:(not block) rng)))
          evs)
  in
  let network = Network.create ~n ~delta:config.Config.delta () in
  let (), deliver_batch_s =
    Stats.timed (fun () ->
        for _ = 1 to wins do
          Network.deliver_batch network ~count:(n - 1) ~delay:config.Config.delta
        done)
  in
  { alias_build_s; alias_sample_s; binomial_pos_s; sample_win_s; deliver_batch_s }
