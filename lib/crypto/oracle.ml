module Rng = Fruitchain_util.Rng

(* An attempt's draws stay in the slots of the oracle's own generator, one
   slot per draw in draw order: the block coin, the block view's raw word,
   the fruit coin, the fruit view's raw word, then the two filler words
   right-to-left. Only {!attempt} draws from that generator, so the slots
   hold the most recent attempt until {!attempt_hash} reads them. *)
let block_coin = 0
let block_raw = 1
let fruit_coin = 2
let fruit_raw = 3
let filler2 = 4
let filler1 = 5

type backend =
  | Real
  | Sim of {
      rng : Rng.t;
      memo : (string, Hash.t) Hashtbl.t option;
      (* Both probabilities in (0, 1) with non-zero limits: every attempt
         takes all six draws, in one pass. *)
      plain : bool;
    }

type t = {
  backend : backend;
  p : float;
  pf : float;
  (* Difficulty limits, resolved once at creation: [Hash.threshold] is a
     pure function of the hardness, and recomputing it per query/check was
     measurable on the hot path. *)
  block_limit : int64;
  fruit_limit : int64;
  mutable queries : int;
  (* Win counters are native ints (not Obs instruments): [query] is the
     hottest call in the simulator, so the observability layer harvests
     these once per run instead of paying an instrument update per query. *)
  mutable block_wins : int;
  mutable fruit_wins : int;
  (* The Bernoulli outcomes of the most recent attempt, so that {!attempt}
     can defer digest materialization: ~99% of mining attempts lose on both
     difficulties and their digest is never looked at. The raw draws wait
     in the generator's slots; the view arithmetic (folding a raw draw into
     the win or lose range) runs only when the digest is materialized.
     [last_hash] caches the materialized digest; [last_hash_valid] says
     whether it is current. *)
  mutable last_bwin : bool;
  mutable last_fwin : bool;
  mutable last_hash : Hash.t;
  mutable last_hash_valid : bool;
}

let make backend ~p ~pf =
  {
    backend;
    p;
    pf;
    block_limit = Hash.threshold p;
    fruit_limit = Hash.threshold pf;
    queries = 0;
    block_wins = 0;
    fruit_wins = 0;
    last_bwin = false;
    last_fwin = false;
    last_hash = Hash.zero;
    last_hash_valid = false;
  }

let real ~p ~pf = make Real ~p ~pf

let sim ?(memo = false) ~p ~pf rng =
  let memo = if memo then Some (Hashtbl.create 1024) else None in
  let inside q = q > 0.0 && q < 1.0 && not (Int64.equal (Hash.threshold q) 0L) in
  make (Sim { rng; memo; plain = inside p && inside pf }) ~p ~pf

(* Fold a raw 64-bit draw into a view that is below [limit] exactly when
   [success] — the deferred half of the historical [sample_view], which drew
   the Bernoulli and then a uniform value within the success or failure
   range. The draw itself happened at attempt time (the RNG sequence is the
   determinism contract); only this arithmetic is deferred, because on the
   ~99% of attempts that lose, nobody ever looks at the view. *)
let view_of_raw ~limit ~success raw =
  let r63 = Int64.shift_right_logical raw 1 in
  if success then
    if Int64.equal limit 0L then 0L (* p rounded to 0 yet success sampled: no draw taken *)
    else if Int64.compare limit 0L < 0 then
      (* Success range of at least 2^63 values (p >= 1/2): the 63-bit value
         stays inside it. *)
      r63
    else Int64.rem r63 limit
  else begin
    (* Uniform in [limit, 2^64). The failure range has size 2^64 - limit.
       When that size fits in the signed 63-bit range we sample it exactly;
       otherwise (small p, huge failure range) the 63-bit offset stays inside
       the range and keeps ample collision entropy. *)
    let range = Int64.sub 0L limit (* 2^64 - limit, as an unsigned bit pattern *) in
    if Int64.compare range 0L > 0 then Int64.add limit (Int64.rem r63 range)
    else Int64.add limit r63
  end

let attempt_hash t =
  match t.backend with
  | Sim { rng; _ } when not t.last_hash_valid ->
      let block_view =
        view_of_raw ~limit:t.block_limit ~success:t.last_bwin (Rng.slot_bits64 rng block_raw)
      and fruit_view =
        view_of_raw ~limit:t.fruit_limit ~success:t.last_fwin (Rng.slot_bits64 rng fruit_raw)
      and filler = (Rng.slot_bits64 rng filler1, Rng.slot_bits64 rng filler2) in
      let h = Hash.of_views ~block_view ~fruit_view ~filler in
      t.last_hash <- h;
      t.last_hash_valid <- true;
      h
  | Sim _ | Real -> t.last_hash

let fruit_flag = 1
let block_flag = 2
let attempt_won_fruit mask = not (Int.equal (mask land fruit_flag) 0)
let attempt_won_block mask = not (Int.equal (mask land block_flag) 0)

let attempt t input =
  t.queries <- t.queries + 1;
  match t.backend with
  | Real ->
      let h = Hash.of_digest (Sha256.digest input) in
      t.last_hash <- h;
      t.last_hash_valid <- true;
      let mask = ref 0 in
      if Int64.unsigned_compare (Hash.prefix64 h) t.block_limit < 0 then begin
        t.block_wins <- t.block_wins + 1;
        mask := !mask lor block_flag
      end;
      if Int64.unsigned_compare (Hash.suffix64 h) t.fruit_limit < 0 then begin
        t.fruit_wins <- t.fruit_wins + 1;
        mask := !mask lor fruit_flag
      end;
      !mask
  | Sim { rng; memo; plain } ->
      (* Draw order is load-bearing: it reproduces draw-for-draw the RNG
         consumption of the historical per-query implementation — block
         Bernoulli, block view, fruit Bernoulli, fruit view, then the filler
         words right-to-left (the original filler tuple was evaluated
         right-to-left). The differential suite pins this against a
         reference copy of that implementation. A certain or impossible
         outcome (p of 0 or 1) took no Bernoulli draw, and a success
         against a zero limit no view draw, so those attempts draw one by
         one; every other attempt takes its six draws in one pass. *)
      if plain then begin
        Rng.draws rng 6;
        t.last_bwin <- Rng.slot_below rng block_coin t.p;
        t.last_fwin <- Rng.slot_below rng fruit_coin t.pf
      end
      else begin
        t.last_bwin <- Rng.bernoulli rng t.p;
        if not (t.last_bwin && Int64.equal t.block_limit 0L) then Rng.draw_to rng block_raw;
        t.last_fwin <- Rng.bernoulli rng t.pf;
        if not (t.last_fwin && Int64.equal t.fruit_limit 0L) then Rng.draw_to rng fruit_raw;
        Rng.draw_to rng filler2;
        Rng.draw_to rng filler1
      end;
      t.last_hash_valid <- false;
      (match memo with Some tbl -> Hashtbl.replace tbl input (attempt_hash t) | None -> ());
      (* A sampled success lands below the limit by construction — except
         against a zero limit, where the view is 0 and the threshold check
         it stands in for would fail; mirror that. *)
      let mask = ref 0 in
      if t.last_bwin && not (Int64.equal t.block_limit 0L) then begin
        t.block_wins <- t.block_wins + 1;
        mask := !mask lor block_flag
      end;
      if t.last_fwin && not (Int64.equal t.fruit_limit 0L) then begin
        t.fruit_wins <- t.fruit_wins + 1;
        mask := !mask lor fruit_flag
      end;
      !mask

let charge t n =
  if n < 0 then invalid_arg "Oracle.charge: negative count";
  t.queries <- t.queries + n

let sample_win t ~block ~fruit rng =
  (match t.backend with
  | Sim _ -> ()
  | Real -> invalid_arg "Oracle.sample_win: simulation backend only");
  (* Draw order mirrors {!attempt} for one attempt that already won: block
     view raw, fruit view raw, then the filler words right-to-left. A win
     against a zero limit is unencodable (the threshold check would reject
     the view) — mirror {!attempt} and treat it as a loss. *)
  let block = block && not (Int64.equal t.block_limit 0L) in
  let fruit = fruit && not (Int64.equal t.fruit_limit 0L) in
  Rng.draws rng 4;
  let bv = view_of_raw ~limit:t.block_limit ~success:block (Rng.slot_bits64 rng 0) in
  let fv = view_of_raw ~limit:t.fruit_limit ~success:fruit (Rng.slot_bits64 rng 1) in
  if block then t.block_wins <- t.block_wins + 1;
  if fruit then t.fruit_wins <- t.fruit_wins + 1;
  Hash.of_views ~block_view:bv ~fruit_view:fv
    ~filler:(Rng.slot_bits64 rng 3, Rng.slot_bits64 rng 2)

let query t input =
  let _mask = attempt t input in
  attempt_hash t

let verify t input claimed =
  match t.backend with
  | Real -> Hash.equal (Hash.of_digest (Sha256.digest input)) claimed
  | Sim { memo = Some tbl; _ } -> (
      match Hashtbl.find_opt tbl input with
      | Some h -> Hash.equal h claimed
      | None -> false)
  | Sim { memo = None; _ } -> true

(* When the backend is a memo-less simulation, {!query}/{!attempt} ignore
   their input entirely, so callers may skip building the pre-image. *)
let needs_input t =
  match t.backend with Real | Sim { memo = Some _; _ } -> true | Sim { memo = None; _ } -> false

let queries t = t.queries
let block_wins t = t.block_wins
let fruit_wins t = t.fruit_wins
let mined_block t h = Int64.unsigned_compare (Hash.prefix64 h) t.block_limit < 0
let mined_fruit t h = Int64.unsigned_compare (Hash.suffix64 h) t.fruit_limit < 0
