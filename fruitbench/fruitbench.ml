(* fruitbench: the repository's benchmark.

   One invocation runs one workload (see Workload) as a closed loop for a
   fixed wall-clock budget and prints, as its last stdout line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Without
   [--trace 1] the metrics are the end-to-end ones, measured with tracing
   off; with it, the per-layer ones of the traced pass. fruitbench/run.py
   builds this program, adds the process's peak resident set, and runs
   all workloads round-robin; see fruitbench/README.md.

     fruitbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     fruitbench.exe selftest
     fruitbench.exe repin *)

module W = Workload
module Json = Fruitchain_obs.Json
module Clock = Fruitchain_obs.Clock
module Scope = Fruitchain_obs.Scope
module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Rng = Fruitchain_util.Rng
module Table = Fruitchain_util.Table
module Scenario = Fruitchain_scenario.Scenario
module Driver = Fruitchain_scenario.Driver

let default_seed = 1
let expected_file = Filename.concat "fruitbench" "expected.json"

(* Set-up is timed in chunks of [setup_chunk_s], one before each measured
   simulation, and at least [setup_reps] times per invocation; the median
   is reported. *)
let setup_reps = 9
let setup_chunk_s = 0.05

(* --- Pinned digests ------------------------------------------------------ *)

(* The digests of repetition 0 at the default seed and benchmark size. *)
let load_expected () =
  let doc = In_channel.with_open_bin expected_file In_channel.input_all in
  let bad () = failwith (expected_file ^ ": expected {\"seed\": int, \"digests\": {name: hex}}") in
  match Json.of_string doc with
  | Error e -> failwith (expected_file ^ ": " ^ e)
  | Ok doc -> (
      match
        (Option.bind (Json.member "seed" doc) Json.to_int, Option.bind (Json.member "digests" doc) Json.to_obj)
      with
      | Some seed, Some digests ->
          (seed, List.map (fun (k, v) -> match Json.to_str v with Some d -> (k, d) | None -> bad ()) digests)
      | _ -> bad ())

let write_expected digests =
  let doc =
    Json.Obj
      [
        ("seed", Json.Int default_seed);
        ("digests", Json.Obj (List.map (fun (k, d) -> (k, Json.Str d)) digests));
      ]
  in
  Out_channel.with_open_bin expected_file (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

let pinned_for w ~seed =
  let pin_seed, digests = load_expected () in
  if seed = pin_seed then List.assoc_opt w.W.name digests else None

(* --- Failure accounting -------------------------------------------------- *)

(* Every measured simulation is checked and counted; a scenario simulation
   counts one run per trial, so fail_rate is failed trials over attempted
   trials. Set-up runs are checked too, and count only when they fail. *)
type ledger = { mutable attempted : int; mutable failed : int }

let ledger () = { attempted = 0; failed = 0 }

let weight = function W.Engine_run _ -> 1 | W.Scenario_run { scenario; _ } -> scenario.trials

let record ledger job errors =
  ledger.attempted <- ledger.attempted + weight job;
  if not (List.is_empty errors) then begin
    ledger.failed <- ledger.failed + weight job;
    List.iter (fun e -> prerr_endline ("fruitbench: check failed: " ^ e)) errors
  end

(* [Some (f ())], or [None] after counting a raise as a failed run of
   [weight]. *)
let attempt ledger ~weight f =
  match f () with
  | x -> Some x
  | exception e ->
      ledger.attempted <- ledger.attempted + weight;
      ledger.failed <- ledger.failed + weight;
      prerr_endline ("fruitbench: raised " ^ Printexc.to_string e);
      None

let pin_errors pinned out =
  match pinned with
  | Some d when not (String.equal d (W.digest out)) ->
      [ Printf.sprintf "digest %s <> pinned %s" (W.digest out) d ]
  | Some _ | None -> []

(* The output check of a measured simulation. *)
let check ~pinned job out = W.invariant_errors job out @ pin_errors pinned out

let agree what a b = if String.equal a b then [] else [ what ]

(* Runs [f rep] for rep = 0, 1, ... at least once and until [seconds]
   have passed. *)
let until_deadline seconds f =
  let deadline = Clock.now_s () +. seconds in
  let rec go rep acc =
    let acc = f rep :: acc in
    if Clock.now_s () < deadline then go (rep + 1) acc else List.rev acc
  in
  go 0 []

let prepare w =
  (match w.W.kind with W.Observed_partition -> W.fresh_out_dir () | _ -> ());
  Gc.full_major ()

(* --- End-to-end pass ------------------------------------------------------ *)

(* Set-up: the workload's configuration at one round, built and run from
   nothing (for the scenario this includes loading its file), each time
   on the inputs of the next repetition, since a round-0 win makes a
   set-up dearer. [setup_sampler] returns a function that times one chunk
   of [setup_chunk_s] of set-ups, host-normalized on its own. *)
let setup_sampler w ~seed ledger =
  let count = ref 0 in
  let once () =
    let rep = !count in
    incr count;
    prepare w;
    attempt ledger ~weight:1 (fun () ->
        let t0 = Clock.now_s () in
        let job = W.job ~rounds:1 ~rep w ~seed in
        let out = W.run job in
        let wall = Clock.now_s () -. t0 in
        (match W.query_errors job out with [] -> () | errors -> record ledger job errors);
        wall)
  in
  fun () ->
    let walls, host =
      Stats.host_timed (fun () ->
          let stop = Clock.now_s () +. setup_chunk_s in
          let rec go acc =
            let acc = Option.to_list (once ()) @ acc in
            if Clock.now_s () < stop then go acc else acc
          in
          go [])
    in
    List.map (fun wall -> wall *. host.Stats.norm_s /. host.raw_s) walls

type rate = { norm : float; raw : float }

(* Effective queries per host-normalized second (and per raw second) of
   each repetition that passed its check. *)
let measure_throughput ?(before = ignore) ?rounds ?trials w ~seed ~seconds ~pinned ledger =
  List.filter_map Fun.id
    (until_deadline seconds (fun rep ->
         before ();
         let job = W.job ?rounds ?trials ~rep w ~seed in
         prepare w;
         Option.join
           (attempt ledger ~weight:(weight job) (fun () ->
                let out, t = Stats.host_timed (fun () -> W.run job) in
                let errors = check ~pinned:(if rep = 0 then pinned else None) job out in
                record ledger job errors;
                match (errors, W.queries out) with
                | [], Some q -> Some { norm = float_of_int q /. t.norm_s; raw = float_of_int q /. t.raw_s }
                | _ -> None))))

let summary name unit xs =
  Printf.printf "  %-26s %14.6g %-10s (median of %d; min %.6g, max %.6g)\n" name (Stats.median xs) unit
    (List.length xs) (Stats.minimum xs) (Stats.maximum xs)

(* Set-up chunks are interleaved with the measured simulations, so the
   set-up median spans the whole run's host conditions, then topped up to
   [setup_reps] set-ups. *)
let end_to_end w ~seed ~seconds ledger =
  let sample_setups = setup_sampler w ~seed ledger in
  let setups = ref [] in
  let more () = setups := sample_setups () @ !setups in
  let rates = measure_throughput ~before:more w ~seed ~seconds ~pinned:(pinned_for w ~seed) ledger in
  while List.length !setups < setup_reps do
    more ()
  done;
  let setups = !setups in
  summary "setup_s" "s" setups;
  summary "eff_queries_per_s" "queries/s" (List.map (fun r -> r.norm) rates);
  summary "(raw wall-clock rate)" "queries/s" (List.map (fun r -> r.raw) rates);
  let or_zero x = if Float.is_nan x then 0.0 else x in
  [
    ("eff_queries_per_s", or_zero (Stats.median (List.map (fun r -> r.norm) rates)), "queries/s");
    ("setup_s", or_zero (Stats.median setups), "s");
  ]

(* --- Traced pass ---------------------------------------------------------- *)

(* Name, unit: every per-layer metric, printed by every traced run. A
   layer a workload bypasses reads 0 there: that is the "no change"
   prediction for it. Times are raw wall-clock. *)
let per_layer_spec =
  [
    ("trace_overhead", "ratio");
    ("gc.alloc_mb", "MiB");
    ("gc.major_collections", "count");
    ("network.drain_s", "s");
    ("network.broadcast_s", "s");
    ("network.messages", "count");
    ("node.receive_s", "s");
    ("node.receive_msgs", "count");
    ("node.receive_ns_per_msg", "ns");
    ("node.mine_s", "s");
    ("node.mine_calls", "count");
    ("node.mine_win_ratio", "fraction");
    ("strategy.act_s", "s");
    ("trace.snapshot_s", "s");
    ("engine.unattributed_s", "s");
    ("validate.fruit_set_digest_s", "s");
    ("store.add_s", "s");
    ("trace.record_s", "s");
    ("metrics.consistency_s", "s");
    ("alias.build_s", "s");
    ("alias.sample_s", "s");
    ("sampling.binomial_pos_s", "s");
    ("oracle.sample_win_s", "s");
    ("network.deliver_batch_s", "s");
    ("sparse.explained_share", "fraction");
    ("obs.overhead.metrics", "ratio");
    ("obs.overhead.trace", "ratio");
    ("obs.overhead.flight", "ratio");
    ("obs.trace_lines", "count");
    ("obs.flight_dumps", "count");
    ("pool.speedup", "ratio");
    ("pool.efficiency", "fraction");
    ("crypto.sha256_256B_ns", "ns");
    ("crypto.merkle_root100_ns", "ns");
    ("crypto.oracle_sim_query_ns", "ns");
    ("chain.codec_encode100_ns", "ns");
    ("chain.codec_decode_ns", "ns");
    ("chain.validate_block100_ns", "ns");
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0
let median_of f xs = Stats.median (List.map f xs)

(* One untraced-then-traced pair on the same inputs: walls, the untraced
   run's GC cost, the traced profile, and the traced traces (kept for the
   replay kernels). *)
type pair = {
  untraced_s : float;
  traced_s : float;
  gc : Stats.gc_delta;
  profile : Traced.profile;
  traces : Trace.t list;
}

let engine_pair job ~pinned ledger =
  match job with
  | W.Scenario_run _ -> invalid_arg "engine_pair"
  | W.Engine_run { config; strategy } ->
      Gc.full_major ();
      let out, untraced_s, gc = Stats.measured (fun () -> W.run job) in
      record ledger job (check ~pinned job out);
      let digest = W.digest out in
      Gc.full_major ();
      let profile = Traced.create_profile () in
      (* The sparse plane is one loop with no seams to time from outside:
         its traced run is a plain second run, and its layers come from
         the replay kernels. *)
      let trace, traced_s =
        Stats.timed (fun () ->
            match config.Config.engine with
            | Config.Exact -> Traced.run ~config ~strategy profile
            | Config.Sparse -> Engine.run ~config ~strategy ~scope:Scope.null ())
      in
      record ledger job (agree "traced run diverged from Engine.run" digest (W.trace_digest trace));
      { untraced_s; traced_s; gc; profile; traces = [ trace ] }

(* The scenario's trials one by one at jobs 1 with a null scope, through
   [Driver.run] and through the traced loop with the same hooks. *)
let scenario_pair (s : Scenario.t) ledger =
  let seeds = List.init s.trials (fun i -> Rng.derive s.seed ~index:i) in
  Gc.full_major ();
  let untraced, untraced_s, gc =
    Stats.measured (fun () -> List.map (fun seed -> Driver.run ~seed ~scope:Scope.null s) seeds)
  in
  Gc.full_major ();
  let profile = Traced.create_profile () in
  let traces, traced_s =
    Stats.timed (fun () ->
        List.map
          (fun seed ->
            Traced.run ~config:(Driver.config ~seed s) ~strategy:(Driver.strategy s)
              ~workload:(Driver.workload s) ~net_policy:(Driver.policy s)
              ~round_hook:(Driver.round_hook s) profile)
          seeds)
  in
  record ledger
    (W.Scenario_run { scenario = s; jobs = 1 })
    (List.concat
       (List.map2
          (fun u t -> agree "traced trial diverged from Driver.run" (W.trace_digest u) (W.trace_digest t))
          untraced traces));
  { untraced_s; traced_s; gc; profile; traces }

let observer_rows =
  [
    ("null scope", { W.metrics = false; tracer = false; flight = false });
    ("metrics", { W.metrics = true; tracer = false; flight = false });
    ("metrics+trace", { W.metrics = true; tracer = true; flight = false });
    ("metrics+trace+flight", W.all_observers);
  ]

type row = { label : string; wall : float; row_gc : Stats.gc_delta }

(* One scenario run: its output, host-normalized wall, and GC cost. The
   matrix compares walls across rows, so they are normalized like the
   end-to-end times. *)
let observed_run ?observers ~jobs s =
  W.fresh_out_dir ();
  Gc.full_major ();
  let (out, t), _, gc = Stats.measured (fun () -> Stats.host_timed (fun () -> W.run_scenario ?observers ~jobs s)) in
  (out, t.Stats.norm_s, gc)

(* Observer-overhead matrix: the workload's trials at jobs 1 under each
   observer set, then the full set at the workload's own jobs. Observers
   must not change the result table, and the worker count must not change
   any output. Returns the rows and the workload's own output. *)
let observer_matrix (s : Scenario.t) ~jobs ~pinned ledger =
  let job = W.Scenario_run { scenario = s; jobs } in
  let table = function W.Scenario_output o -> o.table | W.Engine_output _ -> "" in
  let rows =
    List.map
      (fun (label, observers) ->
        let out, wall, row_gc = observed_run ~observers ~jobs:1 s in
        ({ label; wall; row_gc }, out))
      observer_rows
  in
  let first = snd (List.hd rows) and full = snd (List.nth rows 3) in
  List.iter
    (fun ({ label; _ }, out) ->
      record ledger job
        (W.invariant_errors job out @ agree ("observers changed the result table: " ^ label) (table first) (table out)))
    rows;
  let out, wall, row_gc = observed_run ~jobs s in
  record ledger job
    (check ~pinned job out @ agree "output differs between jobs 1 and the pool" (W.digest full) (W.digest out));
  (List.map fst rows @ [ { label = Printf.sprintf "metrics+trace+flight, jobs %d" jobs; wall; row_gc } ], out)

let print_matrix ~trials rows =
  let t =
    Table.create
      ~title:(Printf.sprintf "observer overhead (%d trials; medians)" trials)
      ~columns:
        [
          ("scope", Table.Left);
          ("wall s", Table.Right);
          ("x null", Table.Right);
          ("alloc MiB", Table.Right);
          ("major MiB", Table.Right);
        ]
      ()
  in
  let null_wall = median_of (fun r -> r.wall) (List.hd rows) in
  List.iter
    (fun rs ->
      let wall = median_of (fun r -> r.wall) rs in
      Table.add_row t
        [
          (List.hd rs).label;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.3f" (ratio wall null_wall);
          Printf.sprintf "%.1f" (median_of (fun r -> r.row_gc.Stats.alloc_mb) rs);
          Printf.sprintf "%.1f" (median_of (fun r -> r.row_gc.Stats.major_mb) rs);
        ])
    rows;
  print_string (Table.to_string t)

let transpose = function
  | [] -> []
  | first :: _ as lists -> List.mapi (fun i _ -> List.map (fun l -> List.nth l i) lists) first

let traced w ~seed ~seconds ledger =
  let values = Hashtbl.create 64 in
  let set name v = Hashtbl.replace values name v in
  let pinned = pinned_for w ~seed in
  let pin rep = if rep = 0 then pinned else None in
  let pairs, matrices =
    List.split
      (until_deadline seconds (fun rep ->
           match W.job ~rep w ~seed with
           | W.Engine_run _ as job -> (engine_pair job ~pinned:(pin rep) ledger, None)
           | W.Scenario_run { scenario; jobs } ->
               (scenario_pair scenario ledger, Some (observer_matrix scenario ~jobs ~pinned:(pin rep) ledger))))
  in
  let untraced_s = median_of (fun p -> p.untraced_s) pairs in
  let traced_s = median_of (fun p -> p.traced_s) pairs in
  set "trace_overhead" (ratio traced_s untraced_s);
  set "gc.alloc_mb" (median_of (fun p -> p.gc.Stats.alloc_mb) pairs);
  set "gc.major_collections" (median_of (fun p -> float_of_int p.gc.Stats.major_collections) pairs);
  let time f = median_of (fun p -> f p.profile.Traced.times) pairs in
  let count f = median_of (fun p -> float_of_int (f p.profile.Traced.counts)) pairs in
  set "network.drain_s" (time (fun t -> t.drain));
  set "network.broadcast_s" (time (fun t -> t.broadcast));
  set "network.messages" (count (fun c -> c.messages));
  set "node.receive_s" (time (fun t -> t.receive));
  set "node.receive_msgs" (count (fun c -> c.received));
  set "node.receive_ns_per_msg"
    (median_of (fun p -> 1e9 *. ratio p.profile.times.receive (float_of_int p.profile.counts.received)) pairs);
  set "node.mine_s" (time (fun t -> t.mine));
  set "node.mine_calls" (count (fun c -> c.mine_calls));
  set "node.mine_win_ratio"
    (median_of
       (fun p -> ratio (float_of_int p.profile.counts.mine_wins) (float_of_int p.profile.counts.mine_calls))
       pairs);
  set "strategy.act_s" (time (fun t -> t.act));
  set "trace.snapshot_s" (time (fun t -> t.snapshot));
  set "engine.unattributed_s" (median_of (fun p -> Traced.unattributed p.profile) pairs);
  (* Replay kernels on the last pair's traced traces, summed over them. *)
  let last = List.nth pairs (List.length pairs - 1) in
  let replays = List.map Layers.replay last.traces in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 replays in
  let job = W.job w ~seed in
  List.iter
    (fun r ->
      if r.Layers.digest_mismatches > 0 then
        record ledger job [ Printf.sprintf "%d block digests are not d(F)" r.digest_mismatches ])
    replays;
  set "validate.fruit_set_digest_s" (sum (fun r -> r.fruit_set_digest_s));
  set "store.add_s" (sum (fun r -> r.store_add_s));
  set "trace.record_s" (sum (fun r -> r.trace_record_s));
  set "metrics.consistency_s" (sum (fun r -> r.consistency_s));
  (match w.W.kind with
  | W.Sparse_scale ->
      let k = Layers.sparse_kernels (List.hd last.traces) in
      set "alias.build_s" k.alias_build_s;
      set "alias.sample_s" k.alias_sample_s;
      set "sampling.binomial_pos_s" k.binomial_pos_s;
      set "oracle.sample_win_s" k.sample_win_s;
      set "network.deliver_batch_s" k.deliver_batch_s;
      set "sparse.explained_share"
        (ratio
           (k.alias_build_s +. k.alias_sample_s +. k.binomial_pos_s +. k.sample_win_s +. k.deliver_batch_s
           +. sum (fun r -> r.fruit_set_digest_s +. r.store_add_s +. r.trace_record_s))
           last.untraced_s)
  | W.Exact_honest | W.Exact_selfish | W.Observed_partition -> ());
  (match (job, List.filter_map Fun.id matrices) with
  | W.Scenario_run { scenario; jobs }, (_ :: _ as matrices) ->
      let rows = transpose (List.map fst matrices) in
      print_matrix ~trials:scenario.trials rows;
      let wall_of i = median_of (fun r -> r.wall) (List.nth rows i) in
      set "obs.overhead.metrics" (ratio (wall_of 1) (wall_of 0));
      set "obs.overhead.trace" (ratio (wall_of 2) (wall_of 0));
      set "obs.overhead.flight" (ratio (wall_of 3) (wall_of 0));
      set "pool.speedup" (ratio (wall_of 3) (wall_of 4));
      set "pool.efficiency" (ratio (wall_of 3) (wall_of 4) /. float_of_int jobs);
      (match snd (List.hd matrices) with
      | W.Scenario_output o ->
          set "obs.trace_lines" (float_of_int o.trace_lines);
          set "obs.flight_dumps" (float_of_int o.flight_dumps)
      | W.Engine_output _ -> ())
  | _ -> ());
  List.iter (fun (name, v) -> set name v) (Layers.substrate ());
  Printf.printf "traced pass: %.3f s traced vs %.3f s untraced (median of %d pairs)\n" traced_s untraced_s
    (List.length pairs);
  List.map
    (fun (name, unit) -> (name, Option.value ~default:0.0 (Hashtbl.find_opt values name), unit))
    per_layer_spec

(* --- Output --------------------------------------------------------------- *)

let result_line ledger metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (ledger.failed = 0 && ledger.attempted > 0));
         ("attempted", Json.Int ledger.attempted);
         ("failed", Json.Int ledger.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) -> (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let run_one w ~seed ~seconds ~trace =
  Printf.printf "fruitbench %s: seed %d, %g s, trace %d\n%!" w.W.name seed seconds (if trace then 1 else 0);
  let ledger = ledger () in
  let metrics =
    if trace then begin
      let metrics =
        try traced w ~seed ~seconds ledger
        with e ->
          ledger.attempted <- ledger.attempted + 1;
          ledger.failed <- ledger.failed + 1;
          prerr_endline ("fruitbench: traced pass raised " ^ Printexc.to_string e);
          List.map (fun (name, unit) -> (name, 0.0, unit)) per_layer_spec
      in
      List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %14.6g %s\n" name v unit) metrics;
      metrics
    end
    else end_to_end w ~seed ~seconds ledger
  in
  Printf.printf "  %-26s %14.6g %-10s (%d of %d runs failed)\n" "fail_rate"
    (ratio (float_of_int ledger.failed) (float_of_int ledger.attempted))
    "fraction" ledger.failed ledger.attempted;
  print_endline (result_line ledger metrics)

(* --- Self-test ------------------------------------------------------------ *)

(* Miniature sizes: large enough to mint blocks, small enough to run in
   seconds. *)
let tiny_rounds = function
  | W.Exact_honest -> 300
  | W.Exact_selfish -> 4_000
  | W.Sparse_scale -> 40_000
  | W.Observed_partition -> 3_000

let selftest () =
  let failures = ref 0 in
  let expect name ok =
    Printf.printf "%s %s\n%!" (if ok then "PASS" else "FAIL") name;
    if not ok then incr failures
  in
  let seed = default_seed in
  List.iter
    (fun w ->
      let rounds = tiny_rounds w.W.kind and trials = 2 in
      (* The traced loop reproduces Engine.run exactly. *)
      (match W.job ~rounds w ~seed with
      | W.Engine_run { config = { engine = Config.Exact; _ } as config; strategy } ->
          let plain = Engine.run ~config ~strategy ~scope:Scope.null () in
          let traced = Traced.run ~config ~strategy (Traced.create_profile ()) in
          expect
            (w.name ^ ": traced loop reproduces Engine.run (events, final heads, queries)")
            (String.equal (W.trace_digest plain) (W.trace_digest traced))
      | W.Engine_run _ | W.Scenario_run _ -> ());
      (* The output check passes at a tiny size, and a tampered pinned
         digest fails it and raises fail_rate above 0. *)
      prepare w;
      let digest = W.digest (W.run (W.job ~rounds ~trials w ~seed)) in
      let run pinned =
        let l = ledger () in
        ignore (measure_throughput ~rounds ~trials w ~seed ~seconds:0.0 ~pinned:(Some pinned) l);
        l
      in
      let good = run digest in
      expect (w.name ^ ": output check passes at a tiny size") (good.failed = 0 && good.attempted > 0);
      let tampered = run ((if Char.equal digest.[0] '0' then "1" else "0") ^ String.sub digest 1 31) in
      expect (w.name ^ ": a tampered pinned digest fails the check (fail_rate > 0)") (tampered.failed > 0))
    W.all;
  W.remove_tree W.out_dir;
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end

(* Re-pins fruitbench/expected.json from repetition 0 of each workload at
   the default seed and benchmark size. *)
let repin () =
  let digests =
    List.map
      (fun w ->
        prepare w;
        let d = W.digest (W.run (W.job w ~seed:default_seed)) in
        Printf.printf "%-20s %s\n%!" w.W.name d;
        (w.name, d))
      W.all
  in
  W.remove_tree W.out_dir;
  write_expected digests;
  Printf.printf "wrote %s\n" expected_file

(* --- Command line --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: fruitbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       fruitbench.exe selftest | repin";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest ()
  | [ "repin" ] -> repin ()
  | args ->
      let rec parse (w, seed, seconds, trace) = function
        | [] -> (w, seed, seconds, trace)
        | "--workload" :: v :: rest -> parse (Some v, seed, seconds, trace) rest
        | "--seed" :: v :: rest -> (
            match int_of_string_opt v with Some s when s >= 0 -> parse (w, s, seconds, trace) rest | _ -> usage ())
        | "--seconds" :: v :: rest -> (
            match float_of_string_opt v with
            | Some s when s >= 0.0 -> parse (w, seed, s, trace) rest
            | _ -> usage ())
        | "--trace" :: (("0" | "1") as v) :: rest -> parse (w, seed, seconds, String.equal v "1") rest
        | _ -> usage ()
      in
      let name, seed, seconds, trace = parse (None, default_seed, 15.0, false) args in
      let w =
        match Option.bind name W.find with
        | Some w -> w
        | None ->
            prerr_endline
              ("fruitbench: --workload must be one of: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
            exit 2
      in
      run_one w ~seed ~seconds ~trace;
      W.remove_tree W.out_dir
