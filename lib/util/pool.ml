(* Deterministic work-stealing worker pool on OCaml 5 domains.

   Units are claimed by atomically fetching the next unclaimed index from a
   shared counter (greedy self-scheduling: an idle worker steals the next
   unit no matter which worker "should" have taken it), and every result is
   written to the slot of its unit index. Each result slot is written by
   exactly one domain and read only after every worker has been joined, so
   the joins provide the necessary happens-before edges and no per-slot
   synchronisation is needed. A unit's child scope (below) is the one
   thing handed between domains during the map: the domain that ran the
   unit stores it before taking the pool's mutex to mark the unit
   finished, and whichever domain merges it reads and clears its slot
   under that mutex. The merged output is a pure function of the unit
   functions — never of the schedule.

   Observability (fruitscope): the pool owns the ambient Obs.Scope of each
   domain. When the ambient scope is live, every unit executes under a
   fork of it (fresh metrics registry, buffering tracer or bounded flight
   ring) stored in its unit-index slot, and each child is merged back, in
   index order, as soon as its unit and every lower-indexed one have
   finished, then dropped — counter/histogram merge is addition and
   gauges are last-writer-in-index-order, so metric dumps and trace files
   are byte-identical at any worker count, and only the children of units
   still running or waiting on a slower lower-indexed unit are held in
   memory. The pool's own runtime telemetry (worker utilization, claim
   overshoot) is inherently schedule-dependent and therefore registered
   with ~golden:false, which keeps it out of the golden dump. *)

module Scope = Fruitchain_obs.Scope
module Metrics = Fruitchain_obs.Metrics

(* 0 means "unset": fall back to the hardware count. *)
let default = Atomic.make 0

let default_jobs () =
  let d = Atomic.get default in
  if d <= 0 then Domain.recommended_domain_count () else d

let set_default_jobs n = Atomic.set default (max 1 n)

(* The ambient scope is domain-local: the main domain's is set by the CLI
   (--trace/--metrics); worker domains get theirs set per unit by [map].
   Keeping it in DLS (rather than a shared ref) is what lets every unit
   write into its own child registry without synchronisation. *)
let scope_key : Scope.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Scope.null)

let current_scope () = Domain.DLS.get scope_key
let set_scope s = Domain.DLS.set scope_key s

let sequential n ~f =
  if n = 0 then [||]
  else begin
    (* Explicit ascending loop: the sequential path is the determinism
       reference, so leave no evaluation order to library discretion. *)
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

(* Per-worker unit counts merged after the join — utilization telemetry.
   With greedy claiming there is no per-worker queue to steal from, so
   "steals" show up as imbalance here plus the claim overshoot (workers
   that raced past the end of the unit range). *)
let record_pool_metrics parent ~jobs ~n ~claims ~per_worker =
  match Scope.metrics parent with
  | None -> ()
  | Some m ->
      Metrics.incr (Metrics.counter m ~golden:false "pool.parallel_runs");
      Metrics.incr ~by:n (Metrics.counter m ~golden:false "pool.units");
      Metrics.incr ~by:(claims - n) (Metrics.counter m ~golden:false "pool.claim_overshoot");
      Metrics.set (Metrics.gauge m ~golden:false "pool.jobs") (float_of_int jobs);
      let h =
        Metrics.histogram m ~golden:false
          ~buckets:[| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256 |]
          "pool.units_per_worker"
      in
      Array.iter (Metrics.observe h) per_worker

let map ?jobs n ~f =
  if n < 0 then invalid_arg "Pool.map: negative unit count";
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  if jobs <= 1 then sequential n ~f
  else begin
    let parent = current_scope () in
    let live = Scope.enabled parent in
    let children = if live then Array.make n Scope.null else [||] in
    let per_worker = Array.make jobs 0 in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Children are merged in index order as units finish: [frontier] is
       the lowest unit not merged yet. The lock serializes the merges and
       hands each child to whichever domain merges it. A merge that raises
       (a dump that cannot be written) stops the merging; its exception is
       re-raised after the join. *)
    let lock = Mutex.create () in
    let finished = Array.make n false in
    let frontier = ref 0 in
    let merge_failure = ref None in
    let finish i =
      Mutex.protect lock (fun () ->
          finished.(i) <- true;
          while !frontier < n && finished.(!frontier) && Option.is_none !merge_failure do
            let child = children.(!frontier) in
            children.(!frontier) <- Scope.null;
            incr frontier;
            match Scope.merge_child parent ~child with
            | () -> ()
            | exception exn -> merge_failure := Some exn
          done)
    in
    let worker wid () =
      let executed = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          if live then begin
            let child = Scope.fork parent in
            children.(i) <- child;
            Domain.DLS.set scope_key child
          end;
          let r = match f i with v -> Ok v | exception exn -> Error exn in
          results.(i) <- Some r;
          if live then finish i;
          incr executed;
          loop ()
        end
      in
      loop ();
      per_worker.(wid) <- !executed
    in
    let helpers = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    Array.iter Domain.join helpers;
    if live then begin
      (* The calling domain's ambient scope was clobbered by its last unit.
         The last unit to finish merged every child left. *)
      Domain.DLS.set scope_key parent;
      Option.iter raise !merge_failure;
      record_pool_metrics parent ~jobs ~n ~claims:(Atomic.get next) ~per_worker
    end;
    (* Re-raise the lowest-indexed failure (Array.mapi visits slots in
       ascending order), so errors are as deterministic as results. *)
    Array.mapi
      (fun i r ->
        match r with
        | Some (Ok v) -> v
        | Some (Error exn) -> raise exn
        | None ->
            invalid_arg (Printf.sprintf "Pool.map: unit %d was never executed" i))
      results
  end
