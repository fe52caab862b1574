module Params = Fruitchain_core.Params

type protocol = Nakamoto | Fruitchain
type engine = Exact | Sparse

type t = {
  protocol : protocol;
  engine : engine;
  n : int;
  rho : float;
  delta : int;
  rounds : int;
  seed : int64;
  params : Params.t;
  corruption_schedule : (int * int) list;
  uncorruption_schedule : (int * int) list;
  gossip : bool;
  gossip_schedule : (int * bool) list;
  snapshot_interval : int;
  head_snapshot_interval : int;
  probe_interval : int;
}

let corrupt_count t = int_of_float (Float.floor (t.rho *. float_of_int t.n))
let is_corrupt t i = i >= t.n - corrupt_count t

let corrupted_at t i =
  if is_corrupt t i then Some 0
  else
    List.fold_left
      (fun acc (round, party) -> if Int.equal party i then Some round else acc)
      None t.corruption_schedule

let uncorrupted_at t i =
  List.fold_left
    (fun acc (round, party) -> if Int.equal party i then Some round else acc)
    None t.uncorruption_schedule

let is_corrupt_at t ~round i =
  (* Static-only corruption (the common case) short-circuits the schedule
     scans; this predicate runs per honest recipient per adversarial send. *)
  match (t.corruption_schedule, t.uncorruption_schedule) with
  | [], [] -> is_corrupt t i
  | _ -> (
      match corrupted_at t i with
      | None -> false
      | Some r ->
          round >= r
          && (match uncorrupted_at t i with None -> true | Some u -> round < u))

let is_ever_corrupt t i = Option.is_some (corrupted_at t i)

let corrupt_count_at t ~round =
  match (t.corruption_schedule, t.uncorruption_schedule) with
  | [], [] -> corrupt_count t
  | _ ->
      let count = ref 0 in
      for i = 0 to t.n - 1 do
        if is_corrupt_at t ~round i then incr count
      done;
      !count

(* Schedules are kept sorted by round, ties broken by the entry's second
   component. *)
let by_round compare_second (r1, x1) (r2, x2) =
  match Int.compare r1 r2 with 0 -> compare_second x1 x2 | c -> c

let distinct xs = Int.equal (List.length (List.sort_uniq Int.compare xs)) (List.length xs)

let make ?(protocol = Fruitchain) ?(engine = Exact) ?(n = 40) ?(rho = 0.0) ?(delta = 2) ?(rounds = 50_000)
    ?(seed = 1L) ?(corruption_schedule = []) ?(uncorruption_schedule = [])
    ?(gossip = false) ?(gossip_schedule = []) ?(snapshot_interval = 50)
    ?(head_snapshot_interval = 500) ?(probe_interval = 0) ~params () =
  if n <= 0 then invalid_arg "Config.make: n must be positive";
  if rho < 0.0 || rho >= 1.0 then invalid_arg "Config.make: rho out of [0, 1)";
  if delta < 1 then invalid_arg "Config.make: delta must be >= 1";
  if rounds <= 0 then invalid_arg "Config.make: rounds must be positive";
  if snapshot_interval <= 0 || head_snapshot_interval <= 0 then
    invalid_arg "Config.make: snapshot intervals must be positive";
  if probe_interval < 0 then invalid_arg "Config.make: probe_interval must be >= 0";
  List.iter
    (fun (round, party) ->
      if round < 0 || round >= rounds then
        invalid_arg "Config.make: corruption round out of range";
      if party < 0 || party >= n then invalid_arg "Config.make: corruption party out of range";
      if party >= n - int_of_float (Float.floor (rho *. float_of_int n)) then
        invalid_arg "Config.make: party is already statically corrupt")
    corruption_schedule;
  let corruption_schedule = List.sort_uniq (by_round Int.compare) corruption_schedule in
  let parties_seen = List.map snd corruption_schedule in
  if not (distinct parties_seen) then
    invalid_arg "Config.make: a party may be scheduled for corruption only once";
  let uncorruption_schedule = List.sort_uniq (by_round Int.compare) uncorruption_schedule in
  let uparties = List.map snd uncorruption_schedule in
  if not (distinct uparties) then
    invalid_arg "Config.make: a party may be scheduled for uncorruption only once";
  let static_count = int_of_float (Float.floor (rho *. float_of_int n)) in
  List.iter
    (fun (round, party) ->
      if round < 0 || round >= rounds then
        invalid_arg "Config.make: uncorruption round out of range";
      if party < 0 || party >= n then
        invalid_arg "Config.make: uncorruption party out of range";
      let corrupted_from =
        if party >= n - static_count then Some 0
        else
          List.fold_left
            (fun acc (r, pty) -> if Int.equal pty party then Some r else acc)
            None corruption_schedule
      in
      match corrupted_from with
      | None -> invalid_arg "Config.make: uncorrupting a never-corrupt party"
      | Some r ->
          if round <= r then
            invalid_arg "Config.make: uncorruption must follow corruption")
    uncorruption_schedule;
  let gossip_schedule = List.sort_uniq (by_round Bool.compare) gossip_schedule in
  List.iter
    (fun (round, _) ->
      if round < 0 || round >= rounds then
        invalid_arg "Config.make: gossip toggle round out of range")
    gossip_schedule;
  let toggle_rounds = List.map fst gossip_schedule in
  if not (distinct toggle_rounds) then
    invalid_arg "Config.make: contradictory gossip toggles at the same round";
  {
    protocol;
    engine;
    n;
    rho;
    delta;
    rounds;
    seed;
    params;
    corruption_schedule;
    uncorruption_schedule;
    gossip;
    gossip_schedule;
    snapshot_interval;
    head_snapshot_interval;
    probe_interval;
  }

let pp fmt t =
  Format.fprintf fmt "%s%s n=%d rho=%.2f delta=%d rounds=%d seed=%Ld [%a]"
    (match t.protocol with Nakamoto -> "nakamoto" | Fruitchain -> "fruitchain")
    (* The exact engine is the historical default; naming it would churn
       every golden fixture for nothing. *)
    (match t.engine with Exact -> "" | Sparse -> "/sparse")
    t.n t.rho t.delta t.rounds t.seed Params.pp t.params
