module Json = Fruitchain_obs.Json

type protocol = Nakamoto | Fruitchain

type event =
  | Partition of { from : int; until : int; groups : int list list }
  | Delay_spike of { from : int; until : int; delta' : int }
  | Eclipse of { from : int; until : int; party : int }
  | Churn of { from : int; until : int; party : int }
  | Gossip_toggle of { at : int; on : bool }
  | Workload_burst of { from : int; until : int; tag : string }

type t = {
  name : string;
  description : string;
  protocol : protocol;
  n : int;
  rho : float;
  delta : int;
  rounds : int;
  seed : int64;
  trials : int;
  p : float;
  q : float;
  kappa : int;
  events : event list;
}

type diag = { event : int option; code : string; msg : string }

let diag ?event code msg = { event; code; msg }

let pp_diag fmt d =
  Format.fprintf fmt "%s: [%s] %s"
    (match d.event with None -> "scenario" | Some i -> Printf.sprintf "event %d" i)
    d.code d.msg

(* ------------------------------------------------------------------ *)
(* Event accessors shared by validation and the fault queries. *)

let window_of = function
  | Partition { from; until; _ }
  | Delay_spike { from; until; _ }
  | Eclipse { from; until; _ }
  | Churn { from; until; _ }
  | Workload_burst { from; until; _ } ->
      Some (from, until)
  | Gossip_toggle _ -> None

let kind_name = function
  | Partition _ -> "partition"
  | Delay_spike _ -> "delay_spike"
  | Eclipse _ -> "eclipse"
  | Churn _ -> "churn"
  | Gossip_toggle _ -> "gossip_toggle"
  | Workload_burst _ -> "workload_burst"

let start_of = function
  | Partition { from; _ } | Delay_spike { from; _ } | Eclipse { from; _ }
  | Churn { from; _ } | Workload_burst { from; _ } ->
      from
  | Gossip_toggle { at; _ } -> at

let active event ~round =
  match window_of event with
  | Some (from, until) -> round >= from && round < until
  | None -> false

let overlap (a1, b1) (a2, b2) = a1 < b2 && a2 < b1

(* ------------------------------------------------------------------ *)
(* Validation.  Every check is a diagnostic, never an exception: the CLI
   prints them in fruitlint's machine-readable format and exits non-zero.
   Codes:
     S1  malformed shape (unknown kind/field, wrong type, missing field)
     S2  invalid window (from < 0, until <= from — "heal before cut" —,
         until > rounds, toggle round out of range)
     S3  illegal party index or malformed partition groups
     S4  duplicate events or overlapping same-kind windows
     S5  contradictory events (two churns of one party overlapping, a churn
         of a statically corrupt party, opposing gossip toggles at a round)
     S6  delay spike that does not widen the window (delta' <= delta)
   Scenario-level checks attach to no event ([event = None]). *)

let check_scenario t =
  let e what = Some (diag "S1" what) in
  List.filter_map
    (fun x -> x)
    [
      (if String.equal t.name "" then e "scenario name must be non-empty" else None);
      (if t.n <= 0 then e "n must be positive" else None);
      (if t.rho < 0.0 || t.rho >= 1.0 then e "rho out of [0, 1)" else None);
      (if t.delta < 1 then e "delta must be >= 1" else None);
      (if t.rounds <= 0 then e "rounds must be positive" else None);
      (if t.trials <= 0 then e "trials must be positive" else None);
      (if t.p <= 0.0 || t.p > 1.0 then e "p out of (0, 1]" else None);
      (if t.q <= 0.0 then e "q must be positive" else None);
      (if t.p *. t.q > 1.0 then e "pf = p*q out of (0, 1]" else None);
      (if t.kappa <= 0 then e "kappa must be positive" else None);
    ]

let check_window t i = function
  | Gossip_toggle { at; _ } ->
      if at < 0 || at >= t.rounds then
        [ diag ~event:i "S2" (Printf.sprintf "toggle round %d out of [0, %d)" at t.rounds) ]
      else []
  | ev -> (
      match window_of ev with
      | None -> []
      | Some (from, until) ->
          List.concat
            [
              (if from < 0 then
                 [ diag ~event:i "S2" (Printf.sprintf "window starts at %d < 0" from) ]
               else []);
              (if until <= from then
                 [
                   diag ~event:i "S2"
                     (Printf.sprintf "window heals at %d before it cuts at %d" until from);
                 ]
               else []);
              (if until > t.rounds then
                 [
                   diag ~event:i "S2"
                     (Printf.sprintf "window ends at %d beyond the %d-round run" until
                        t.rounds);
                 ]
               else []);
            ])

let check_party t i name party =
  if party < 0 || party >= t.n then
    [
      diag ~event:i "S3"
        (Printf.sprintf "%s party %d out of [0, %d)" name party t.n);
    ]
  else []

let statically_corrupt t party =
  party >= t.n - int_of_float (Float.floor (t.rho *. float_of_int t.n))

let check_event t i ev =
  check_window t i ev
  @
  match ev with
  | Partition { groups; _ } ->
      let members = List.concat groups in
      List.concat
        [
          (if List.length groups < 2 then
             [ diag ~event:i "S3" "a partition needs at least two groups" ]
           else []);
          (if List.exists (fun g -> List.length g = 0) groups then
             [ diag ~event:i "S3" "partition group is empty" ]
           else []);
          List.concat_map (check_party t i "partition") members;
          (let distinct = List.sort_uniq Int.compare members in
           if List.length distinct <> List.length members then
             [ diag ~event:i "S3" "a party appears in two partition groups" ]
           else if
             (* Counted, not listed: n may be far larger than the groups. *)
             List.fold_left (fun k p -> if p >= 0 && p < t.n then k + 1 else k) 0 distinct < t.n
           then [ diag ~event:i "S3" "partition groups must cover every party" ]
           else []);
        ]
  | Delay_spike { delta'; _ } ->
      if delta' <= t.delta then
        [
          diag ~event:i "S6"
            (Printf.sprintf "spike delta' = %d does not widen the Delta = %d window" delta'
               t.delta);
        ]
      else []
  | Eclipse { party; _ } -> check_party t i "eclipsed" party
  | Churn { party; _ } ->
      check_party t i "churned" party
      @
      if party >= 0 && party < t.n && statically_corrupt t party then
        [
          diag ~event:i "S5"
            (Printf.sprintf "churning party %d, which rho = %g already corrupts statically"
               party t.rho);
        ]
      else []
  | Gossip_toggle _ | Workload_burst _ -> []

(* ------------------------------------------------------------------ *)
(* Canonical JSON.  Field order is fixed, events are sorted by
   (start round, kind, canonical bytes), so re-serialization is a stable
   golden artifact: parse |> validate |> to_string is idempotent. *)

let event_json ev =
  match ev with
  | Partition { from; until; groups } ->
      Json.Obj
        [
          ("kind", Json.Str "partition");
          ("from", Json.Int from);
          ("until", Json.Int until);
          ( "groups",
            Json.List
              (List.map (fun g -> Json.List (List.map (fun p -> Json.Int p) g)) groups) );
        ]
  | Delay_spike { from; until; delta' } ->
      Json.Obj
        [
          ("kind", Json.Str "delay_spike");
          ("from", Json.Int from);
          ("until", Json.Int until);
          ("delta_prime", Json.Int delta');
        ]
  | Eclipse { from; until; party } ->
      Json.Obj
        [
          ("kind", Json.Str "eclipse");
          ("from", Json.Int from);
          ("until", Json.Int until);
          ("party", Json.Int party);
        ]
  | Churn { from; until; party } ->
      Json.Obj
        [
          ("kind", Json.Str "churn");
          ("from", Json.Int from);
          ("until", Json.Int until);
          ("party", Json.Int party);
        ]
  | Gossip_toggle { at; on } ->
      Json.Obj
        [ ("kind", Json.Str "gossip_toggle"); ("at", Json.Int at); ("on", Json.Bool on) ]
  | Workload_burst { from; until; tag } ->
      Json.Obj
        [
          ("kind", Json.Str "workload_burst");
          ("from", Json.Int from);
          ("until", Json.Int until);
          ("tag", Json.Str tag);
        ]

(* Pairwise checks: exact duplicates (any kind), same-kind window overlaps,
   and contradictions. Quadratic in the event count, which is tiny. *)
let check_pairs events =
  let arr = Array.of_list events in
  let diags = ref [] in
  let push d = diags := d :: !diags in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let a = arr.(i) and b = arr.(j) in
      (match (a, b) with
      | Gossip_toggle { at = ra; on = oa }, Gossip_toggle { at = rb; on = ob }
        when ra = rb ->
          if Bool.equal oa ob then
            push (diag ~event:j "S4" (Printf.sprintf "duplicate of event %d" i))
          else
            push
              (diag ~event:j "S5"
                 (Printf.sprintf "contradicts event %d: opposing gossip toggles at round %d"
                    i ra))
      | _ ->
          if String.equal (Json.to_string (event_json a)) (Json.to_string (event_json b))
          then push (diag ~event:j "S4" (Printf.sprintf "duplicate of event %d" i))
          else (
            match (window_of a, window_of b) with
            | Some wa, Some wb when overlap wa wb -> (
                match (a, b) with
                | Partition _, Partition _ | Delay_spike _, Delay_spike _ ->
                    push
                      (diag ~event:j "S4"
                         (Printf.sprintf "%s window overlaps event %d" (kind_name b) i))
                | Eclipse { party = pa; _ }, Eclipse { party = pb; _ } when pa = pb ->
                    push
                      (diag ~event:j "S4"
                         (Printf.sprintf "eclipse of party %d overlaps event %d" pb i))
                | Churn { party = pa; _ }, Churn { party = pb; _ } when pa = pb ->
                    push
                      (diag ~event:j "S5"
                         (Printf.sprintf
                            "contradicts event %d: party %d churned twice in overlapping \
                             windows"
                            i pb))
                | _ -> ())
            | _ -> ()))
    done
  done;
  List.rev !diags

let validate t = check_scenario t @ List.concat (List.mapi (check_event t) t.events) @ check_pairs t.events

let compare_events a b =
  let c = Int.compare (start_of a) (start_of b) in
  if c <> 0 then c
  else
    let c = String.compare (kind_name a) (kind_name b) in
    if c <> 0 then c
    else String.compare (Json.to_string (event_json a)) (Json.to_string (event_json b))

let canonical t = { t with events = List.sort compare_events t.events }

let protocol_name = function Nakamoto -> "nakamoto" | Fruitchain -> "fruitchain"

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ("description", Json.Str t.description);
      ( "config",
        Json.Obj
          [
            ("protocol", Json.Str (protocol_name t.protocol));
            ("n", Json.Int t.n);
            ("rho", Json.Float t.rho);
            ("delta", Json.Int t.delta);
            ("rounds", Json.Int t.rounds);
            ("seed", Json.Str (Int64.to_string t.seed));
            ("trials", Json.Int t.trials);
            ("p", Json.Float t.p);
            ("q", Json.Float t.q);
            ("kappa", Json.Int t.kappa);
          ] );
      ("events", Json.List (List.map event_json (canonical t).events));
    ]

let to_string t = Json.to_string (to_json t)

(* ------------------------------------------------------------------ *)
(* Parsing.  Shape problems are S1 diagnostics carrying the event index
   where one applies, so the loader can attribute them to file lines. *)

let defaults =
  {
    name = "";
    description = "";
    protocol = Fruitchain;
    n = 20;
    rho = 0.0;
    delta = 2;
    rounds = 8_000;
    seed = 1L;
    trials = 1;
    p = 0.002;
    q = 10.0;
    kappa = 8;
    events = [];
  }

type 'a field_parser = Json.t -> 'a option

let p_int : int field_parser = Json.to_int
let p_float : float field_parser = Json.to_float
let p_str : string field_parser = Json.to_str
let p_bool : bool field_parser = Json.to_bool

let p_seed v =
  match v with
  | Json.Int i -> Some (Int64.of_int i)
  | Json.Str s -> Int64.of_string_opt s
  | _ -> None

let p_protocol v =
  match Json.to_str v with
  | Some "nakamoto" -> Some Nakamoto
  | Some "fruitchain" -> Some Fruitchain
  | _ -> None

let p_groups v =
  match Json.to_list v with
  | None -> None
  | Some gs ->
      let parse_group g =
        Option.bind (Json.to_list g) (fun ps ->
            let ints = List.map Json.to_int ps in
            if List.for_all Option.is_some ints then Some (List.map Option.get ints)
            else None)
      in
      let groups = List.map parse_group gs in
      if List.for_all Option.is_some groups then Some (List.map Option.get groups)
      else None

(* A strict object reader: every requested field is checked for type, and
   fields nobody asked for are S1 diagnostics (catches typos like
   "partiton" silently disabling a fault). *)
let read_obj ?event ~where fields json k =
  match Json.to_obj json with
  | None -> Error [ diag ?event "S1" (where ^ " must be an object") ]
  | Some present ->
      let known = List.map fst fields in
      let unknown =
        List.filter_map
          (fun (name, _) ->
            if List.mem name known then None
            else Some (diag ?event "S1" (Printf.sprintf "unknown %s field %S" where name)))
          present
      in
      let missing_or_bad =
        List.filter_map
          (fun (name, required) ->
            match (List.assoc_opt name present, required) with
            | None, true ->
                Some (diag ?event "S1" (Printf.sprintf "missing %s field %S" where name))
            | _, _ -> None)
          fields
      in
      (match unknown @ missing_or_bad with [] -> k present | diags -> Error diags)

let field ?event ~where present name parse ~default =
  match List.assoc_opt name present with
  | None -> Ok default
  | Some v -> (
      match parse v with
      | Some x -> Ok x
      | None ->
          Error [ diag ?event "S1" (Printf.sprintf "%s field %S has the wrong type" where name) ])

let ( let* ) r f = Result.bind r f

let parse_event i json =
  let where = "event" in
  let req present name parse =
    match List.assoc_opt name present with
    | None -> Error [ diag ~event:i "S1" (Printf.sprintf "missing event field %S" name) ]
    | Some v -> (
        match parse v with
        | Some x -> Ok x
        | None ->
            Error
              [ diag ~event:i "S1" (Printf.sprintf "event field %S has the wrong type" name) ])
  in
  match Json.to_obj json with
  | None -> Error [ diag ~event:i "S1" "event must be an object" ]
  | Some present -> (
      match Option.bind (List.assoc_opt "kind" present) Json.to_str with
      | None -> Error [ diag ~event:i "S1" "event needs a string \"kind\" field" ]
      | Some kind ->
          let strict fields k =
            read_obj ~event:i ~where (("kind", true) :: fields) json (fun _ -> k ())
          in
          (match kind with
          | "partition" ->
              strict [ ("from", true); ("until", true); ("groups", true) ] (fun () ->
                  let* from = req present "from" p_int in
                  let* until = req present "until" p_int in
                  let* groups = req present "groups" p_groups in
                  Ok (Partition { from; until; groups }))
          | "delay_spike" ->
              strict [ ("from", true); ("until", true); ("delta_prime", true) ] (fun () ->
                  let* from = req present "from" p_int in
                  let* until = req present "until" p_int in
                  let* delta' = req present "delta_prime" p_int in
                  Ok (Delay_spike { from; until; delta' }))
          | "eclipse" ->
              strict [ ("from", true); ("until", true); ("party", true) ] (fun () ->
                  let* from = req present "from" p_int in
                  let* until = req present "until" p_int in
                  let* party = req present "party" p_int in
                  Ok (Eclipse { from; until; party }))
          | "churn" ->
              strict [ ("from", true); ("until", true); ("party", true) ] (fun () ->
                  let* from = req present "from" p_int in
                  let* until = req present "until" p_int in
                  let* party = req present "party" p_int in
                  Ok (Churn { from; until; party }))
          | "gossip_toggle" ->
              strict [ ("at", true); ("on", true) ] (fun () ->
                  let* at = req present "at" p_int in
                  let* on = req present "on" p_bool in
                  Ok (Gossip_toggle { at; on }))
          | "workload_burst" ->
              strict [ ("from", true); ("until", true); ("tag", false) ] (fun () ->
                  let* from = req present "from" p_int in
                  let* until = req present "until" p_int in
                  let* tag = field ~event:i ~where present "tag" p_str ~default:"burst" in
                  Ok (Workload_burst { from; until; tag }))
          | other ->
              Error [ diag ~event:i "S1" (Printf.sprintf "unknown event kind %S" other) ]))

let parse_config json (t : t) =
  let where = "config" in
  read_obj ~where
    [
      ("protocol", false); ("n", false); ("rho", false); ("delta", false);
      ("rounds", false); ("seed", false); ("trials", false); ("p", false);
      ("q", false); ("kappa", false);
    ]
    json
    (fun present ->
      let f name parse ~default = field ~where present name parse ~default in
      let* protocol = f "protocol" p_protocol ~default:t.protocol in
      let* n = f "n" p_int ~default:t.n in
      let* rho = f "rho" p_float ~default:t.rho in
      let* delta = f "delta" p_int ~default:t.delta in
      let* rounds = f "rounds" p_int ~default:t.rounds in
      let* seed = f "seed" p_seed ~default:t.seed in
      let* trials = f "trials" p_int ~default:t.trials in
      let* p = f "p" p_float ~default:t.p in
      let* q = f "q" p_float ~default:t.q in
      let* kappa = f "kappa" p_int ~default:t.kappa in
      Ok { t with protocol; n; rho; delta; rounds; seed; trials; p; q; kappa })

(* Accumulate every event's diagnostics rather than stopping at the first:
   `scenario validate` should report the whole file in one pass. *)
let parse_events json =
  match Json.to_list json with
  | None -> Error [ diag "S1" "\"events\" must be a list" ]
  | Some items ->
      let results = List.mapi parse_event items in
      let errs = List.concat_map (function Error ds -> ds | Ok _ -> []) results in
      if List.length errs > 0 then Error errs
      else Ok (List.map (function Ok e -> e | Error _ -> assert false) results)

let of_json json =
  read_obj ~where:"scenario"
    [ ("name", true); ("description", false); ("config", false); ("events", false) ]
    json
    (fun present ->
      let* name = field ~where:"scenario" present "name" p_str ~default:"" in
      let* description = field ~where:"scenario" present "description" p_str ~default:"" in
      let base = { defaults with name; description } in
      let* t =
        match List.assoc_opt "config" present with
        | None -> Ok base
        | Some cfg -> parse_config cfg base
      in
      let* events =
        match List.assoc_opt "events" present with
        | None -> Ok []
        | Some ev -> parse_events ev
      in
      let t = { t with events } in
      match validate t with [] -> Ok t | diags -> Error diags)

let make ?(description = "") ?(protocol = Fruitchain) ?(n = defaults.n)
    ?(rho = defaults.rho) ?(delta = defaults.delta) ?(rounds = defaults.rounds)
    ?(seed = defaults.seed) ?(trials = defaults.trials) ?(p = defaults.p)
    ?(q = defaults.q) ?(kappa = defaults.kappa) ~name ~events () =
  let t =
    { name; description; protocol; n; rho; delta; rounds; seed; trials; p; q; kappa; events }
  in
  match validate t with [] -> Ok t | diags -> Error diags

let make_exn ?description ?protocol ?n ?rho ?delta ?rounds ?seed ?trials ?p ?q ?kappa
    ~name ~events () =
  match make ?description ?protocol ?n ?rho ?delta ?rounds ?seed ?trials ?p ?q ?kappa
          ~name ~events ()
  with
  | Ok t -> t
  | Error diags ->
      invalid_arg
        (String.concat "; "
           (List.map (fun d -> Format.asprintf "%a" pp_diag d) diags))

(* ------------------------------------------------------------------ *)
(* Fault queries — the pure functions behind the delivery policy, the
   engine round hook, and the workload wrapper.  All are functions of the
   (static) timeline only, never of execution state, which is what makes
   the policy schedule-invariant. *)

let adversary_sender = -1

let spike_extra t ~round =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Delay_spike { delta'; _ } when active ev ~round -> max acc (delta' - t.delta)
      | _ -> acc)
    0 t.events

let same_group groups a b =
  List.exists (fun g -> List.mem a g && List.mem b g) groups

let hold_until t ~round ~sender ~recipient =
  if sender <= adversary_sender then None
  else
    List.fold_left
      (fun acc ev ->
        let blocked_until =
          match ev with
          | Partition { until; groups; _ }
            when active ev ~round && not (same_group groups sender recipient) ->
              Some until
          | Eclipse { until; party; _ }
            when active ev ~round && (party = sender || party = recipient)
                 && sender <> recipient ->
              Some until
          | _ -> None
        in
        match (acc, blocked_until) with
        | None, x | x, None -> x
        | Some a, Some b -> Some (max a b))
      None t.events

let delivery_faulted t ~round =
  List.exists
    (fun ev ->
      match ev with
      | Partition _ | Delay_spike _ | Eclipse _ -> active ev ~round
      | _ -> false)
    t.events

let active_faults t ~round =
  List.length
    (List.filter
       (fun ev ->
         match ev with
         | Partition _ | Delay_spike _ | Eclipse _ | Churn _ | Workload_burst _ ->
             active ev ~round
         | Gossip_toggle _ -> false)
       t.events)

let delivery_round t ~now ~sender ~recipient ~round =
  let round = round + spike_extra t ~round:now in
  match hold_until t ~round:now ~sender ~recipient with
  | None -> round
  | Some heal -> heal + (round - now)

let burst_record t ~round ~party =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Workload_burst { tag; _ } when active ev ~round ->
          Printf.sprintf "%s/%d/%d" tag round party
      | _ -> acc)
    "" t.events

let churn_schedules t =
  List.fold_left
    (fun (corrupt, uncorrupt) ev ->
      match ev with
      | Churn { from; until; party } ->
          ( (from, party) :: corrupt,
            if until < t.rounds then (until, party) :: uncorrupt else uncorrupt )
      | _ -> (corrupt, uncorrupt))
    ([], []) t.events

let gossip_schedule t =
  List.filter_map
    (function Gossip_toggle { at; on } -> Some (at, on) | _ -> None)
    t.events
