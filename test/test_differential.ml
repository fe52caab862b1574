(* Differential tests for the hot-path rewrites: the arena Store, the
   deferred-sampling Oracle, the ring-buffer Network, both C SHA-256 block
   functions (with the lean Merkle and Codec paths around them), the
   hang-point fruit buffer, the digest-keyed span marking and the shared
   mining step are each checked against a test-local reference copy of
   the implementation it replaced (hash-table store, per-query view
   sampling, hashtable-of-lists inboxes with a full sort per drain,
   pure-OCaml compression, concatenated pre-images, byte-by-byte u64
   encoding, an eagerly maintained candidate set, hex-keyed spans re-marked
   on every delivery, the coalition's own query-then-build step). The
   reference modules are the pre-rewrite code kept verbatim
   modulo observability plumbing; QCheck drives both sides with identical
   inputs — including the same RNG seeds, so the draw-for-draw equivalence
   of the batched oracle is pinned, not just distributional agreement.
   The generator itself is held to the published algorithm instead:
   xoshiro256++ on boxed Int64 with splitmix64 seeding ([Ref_rng]), and
   known answers of the reference C code. *)

module Types = Fruitchain_chain.Types
module Codec = Fruitchain_chain.Codec
module Store = Fruitchain_chain.Store
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Sha256 = Fruitchain_crypto.Sha256
module Merkle = Fruitchain_crypto.Merkle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message
module Network = Fruitchain_net.Network
module Window_view = Fruitchain_core.Window_view
module Fruit_buffer = Fruitchain_core.Buffer

(* ------------------------------------------------------------------ *)
(* Reference store: the pre-arena hash-table representation.           *)

module Ref_store = struct
  module Hashtbl_h = Hashtbl.Make (struct
    type t = Hash.t

    let equal = Hash.equal
    let hash h = Int64.to_int (Hash.prefix64 h) land max_int
  end)

  type entry = { block : Types.block; height : int }
  type t = { entries : entry Hashtbl_h.t }

  let create () =
    let entries = Hashtbl_h.create 4096 in
    Hashtbl_h.replace entries Types.genesis.b_hash { block = Types.genesis; height = 0 };
    { entries }

  let mem t h = Hashtbl_h.mem t.entries h
  let find t h = Option.map (fun e -> e.block) (Hashtbl_h.find_opt t.entries h)

  let find_exn t h =
    match Hashtbl_h.find_opt t.entries h with Some e -> e.block | None -> raise Not_found

  let height t h =
    match Hashtbl_h.find_opt t.entries h with Some e -> e.height | None -> raise Not_found


  let add t (block : Types.block) =
    if not (mem t block.b_hash) then begin
      match Hashtbl_h.find_opt t.entries block.b_header.parent with
      | None -> invalid_arg "Ref_store.add: parent unknown"
      | Some parent ->
          Hashtbl_h.replace t.entries block.b_hash { block; height = parent.height + 1 }
    end

  let fold_back t ~head ~init ~f =
    let rec go acc h =
      let block = find_exn t h in
      let acc = f acc block in
      if Hash.equal h Types.genesis.b_hash then acc else go acc block.Types.b_header.parent
    in
    go init head

  let to_list t ~head = fold_back t ~head ~init:[] ~f:(fun acc b -> b :: acc)

  let last_n t ~head n =
    let rec go acc h remaining =
      if Int.equal remaining 0 then acc
      else
        let block = find_exn t h in
        let acc = block :: acc in
        if Hash.equal h Types.genesis.b_hash then acc
        else go acc block.Types.b_header.parent (remaining - 1)
    in
    go [] head n

  let ancestor_at_height t ~head ~height:target =
    if target < 0 then None
    else
      let rec go h =
        match Hashtbl_h.find_opt t.entries h with
        | None -> None
        | Some e ->
            if Int.equal e.height target then Some e.block
            else if e.height < target then None
            else go e.block.Types.b_header.parent
      in
      go head

  let common_prefix_height t a b =
    let rec lift h target =
      let e = Hashtbl_h.find t.entries h in
      if e.height <= target then h else lift e.block.Types.b_header.parent target
    in
    let ha = height t a and hb = height t b in
    let level = min ha hb in
    let rec meet x y =
      if Hash.equal x y then height t x
      else
        let ex = Hashtbl_h.find t.entries x and ey = Hashtbl_h.find t.entries y in
        meet ex.block.Types.b_header.parent ey.block.Types.b_header.parent
    in
    meet (lift a level) (lift b level)
end

(* ------------------------------------------------------------------ *)
(* Reference generator: splitmix64 seeding and xoshiro256++ on boxed   *)
(* Int64, as Blackman and Vigna publish them.                          *)

module Ref_rng = struct
  open Int64

  type t = { s : int64 array; mutable last : int64 }

  let splitmix64 state =
    state := add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)

  let of_seed seed =
    let st = ref seed in
    let s = Array.init 4 (fun _ -> splitmix64 st) in
    let s = if Array.for_all (equal 0L) s then [| 1L; 2L; 3L; 4L |] else s in
    { s; last = 0L }

  let rotl x k = logor (shift_left x k) (shift_right_logical x (64 - k))

  let next g =
    let s = g.s in
    let result = add (rotl (add s.(0) s.(3)) 23) s.(0) in
    let t = shift_left s.(1) 17 in
    s.(2) <- logxor s.(2) s.(0);
    s.(3) <- logxor s.(3) s.(1);
    s.(1) <- logxor s.(1) s.(2);
    s.(0) <- logxor s.(0) s.(3);
    s.(2) <- logxor s.(2) t;
    s.(3) <- rotl s.(3) 45;
    g.last <- result;
    result

  let float g = to_float (shift_right_logical (next g) 11) *. 0x1p-53
  let int64_range g bound = rem (shift_right_logical (next g) 1) bound
  let int g bound = to_int (int64_range g (of_int bound))
  let bernoulli g p = if p <= 0.0 then false else if p >= 1.0 then true else float g < p
  let split g = of_seed (next g)

  let derive master ~index =
    let mix z =
      let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
      let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
      logxor z (shift_right_logical z 31)
    in
    mix (mix (add master (mul (of_int (index + 1)) 0x9e3779b97f4a7c15L)))
end

(* ------------------------------------------------------------------ *)
(* Reference oracle: per-query view sampling (sampling backend only).  *)

module Ref_oracle = struct
  type t = {
    rng : Rng.t;
    p : float;
    pf : float;
    mutable block_wins : int;
    mutable fruit_wins : int;
  }

  let sim ~p ~pf rng = { rng; p; pf; block_wins = 0; fruit_wins = 0 }

  (* The paper's difficulty tests: [[h]_{:κ} < D_p] on the digest's first
     eight bytes, [[h]_{−κ:} < D_{p_f}] on its last eight, unsigned. *)
  let meets_block h ~p = Int64.unsigned_compare (Hash.prefix64 h) (Hash.threshold p) < 0
  let meets_fruit h ~pf = Int64.unsigned_compare (Hash.suffix64 h) (Hash.threshold pf) < 0

  (* Sample a 64-bit view that is below [threshold p] with probability
     exactly p: draw the success Bernoulli first, then a uniform value
     within the success or failure range. *)
  let sample_view rng p =
    let limit = Hash.threshold p in
    let success = Rng.bernoulli rng p in
    if success then
      if Int64.equal limit 0L then 0L
      else if Int64.compare limit 0L < 0 then Int64.shift_right_logical (Rng.bits64 rng) 1
      else Rng.int64_range rng limit
    else begin
      let range = Int64.sub 0L limit in
      if Int64.compare range 0L > 0 then Int64.add limit (Rng.int64_range rng range)
      else Int64.add limit (Int64.shift_right_logical (Rng.bits64 rng) 1)
    end

  let query t =
    let block_view = sample_view t.rng t.p in
    let fruit_view = sample_view t.rng t.pf in
    (* The tuple is evaluated right-to-left, as in the historical code:
       the second filler word is drawn before the first. *)
    let h =
      Hash.of_views ~block_view ~fruit_view ~filler:(Rng.bits64 t.rng, Rng.bits64 t.rng)
    in
    if meets_block h ~p:t.p then t.block_wins <- t.block_wins + 1;
    if meets_fruit h ~pf:t.pf then t.fruit_wins <- t.fruit_wins + 1;
    h
end

(* ------------------------------------------------------------------ *)
(* Reference network: per-round hashtable inboxes, full sort per drain. *)

module Ref_network = struct
  type envelope = { seq : int; message : Message.t }

  type t = {
    n : int;
    delta : int;
    policy : (now:int -> sender:int -> recipient:int -> round:int -> int) option;
    inboxes : (int, envelope list) Hashtbl.t array;
    mutable seq : int;
    mutable pending : int;
    mutable sent : int;
    mutable delivered : int;
  }

  let create ?policy ~n ~delta () =
    {
      n;
      delta;
      policy;
      inboxes = Array.init n (fun _ -> Hashtbl.create 64);
      seq = 0;
      pending = 0;
      sent = 0;
      delivered = 0;
    }

  let resolve_round t ~now ~rng = function
    | Network.At r -> max (now + 1) (min r (now + t.delta))
    | Network.Uniform_in_window -> now + 1 + Rng.int rng t.delta
    | Network.Next_round -> now + 1
    | Network.Max_delay -> now + t.delta

  let enqueue t ~recipient ~round message =
    let inbox = t.inboxes.(recipient) in
    let existing = Option.value ~default:[] (Hashtbl.find_opt inbox round) in
    Hashtbl.replace inbox round ({ seq = t.seq; message } :: existing);
    t.seq <- t.seq + 1;
    t.pending <- t.pending + 1

  let send_to t ~now ~recipient ~schedule ~rng message =
    let round = resolve_round t ~now ~rng schedule in
    let round =
      match t.policy with
      | None -> round
      | Some p -> max (now + 1) (p ~now ~sender:message.Message.sender ~recipient ~round)
    in
    t.sent <- t.sent + 1;
    enqueue t ~recipient ~round message

  let drain t ~round ~recipient =
    let inbox = t.inboxes.(recipient) in
    match Hashtbl.find_opt inbox round with
    | None -> []
    | Some envelopes ->
        Hashtbl.remove inbox round;
        let k = List.length envelopes in
        t.pending <- t.pending - k;
        t.delivered <- t.delivered + k;
        let sorted =
          List.sort
            (fun a b ->
              match compare a.message.Message.priority b.message.Message.priority with
              | 0 -> compare a.seq b.seq
              | c -> c)
            envelopes
        in
        List.map (fun e -> e.message) sorted
end

(* ------------------------------------------------------------------ *)
(* Store differential.                                                 *)

(* Blocks here only need unique hashes and a valid parent link; the store
   never checks proof-of-work, so skipping the oracle keeps tree
   construction cheap enough for many QCheck cases. *)
let mk_block ~parent ~tag =
  {
    Types.b_header =
      { parent; pointer = parent; nonce = Int64.of_int tag; digest = Merkle.empty_root; record = "" };
    b_hash = Hash.of_raw (Sha256.digest (Printf.sprintf "differential-%d" tag));
    fruits = [];
    b_prov = None;
  }

(* Grow the same random block tree in both stores: each new block picks a
   uniformly random existing block as its parent. *)
let build_tree driver ~blocks =
  let arena = Store.create () and reference = Ref_store.create () in
  let hashes = Array.make (blocks + 1) Types.genesis.b_hash in
  for i = 1 to blocks do
    let parent = hashes.(Rng.int driver i) in
    let b = mk_block ~parent ~tag:i in
    Store.add arena b;
    Ref_store.add reference b;
    hashes.(i) <- b.Types.b_hash
  done;
  (arena, reference, hashes)

let hashes_of_blocks = List.map (fun (b : Types.block) -> b.Types.b_hash)
let hash_list = Alcotest.testable Hash.pp Hash.equal

let check_store_agree driver (arena, reference, hashes) =
  let pick () = hashes.(Rng.int driver (Array.length hashes)) in
  Array.iter
    (fun h ->
      Alcotest.(check bool) "mem" (Ref_store.mem reference h) (Store.mem arena h);
      Alcotest.(check int) "height" (Ref_store.height reference h) (Store.height arena h);
      match (Ref_store.find reference h, Option.map (Store.block_at arena) (Store.find_id arena h)) with
      | Some a, Some b -> Alcotest.(check bool) "find" true (Types.block_equal a b)
      | None, None -> ()
      | _ -> Alcotest.fail "find presence disagrees")
    hashes;
  for _ = 1 to 20 do
    let head = pick () in
    Alcotest.(check (list hash_list)) "to_list"
      (hashes_of_blocks (Ref_store.to_list reference ~head))
      (hashes_of_blocks (Store.to_list arena ~head));
    let len = Store.height arena head + 1 in
    List.iter
      (fun n ->
        Alcotest.(check (list hash_list))
          (Printf.sprintf "last_n %d" n)
          (hashes_of_blocks (Ref_store.last_n reference ~head n))
          (hashes_of_blocks (Store.last_n arena ~head n)))
      [ 0; 1; 2; len - 1; len; len + 5 ];
    List.iter
      (fun target ->
        let expect =
          Option.map
            (fun (b : Types.block) -> b.Types.b_hash)
            (Ref_store.ancestor_at_height reference ~head ~height:target)
        in
        let got =
          Option.map (Store.hash_at arena)
            (Store.ancestor_id_at_height arena ~head:(Store.id arena head) ~height:target)
        in
        Alcotest.(check (option hash_list)) "ancestor_at_height" expect got)
      [ -1; 0; 1; len / 2; len - 1; len; len + 3 ];
    let other = pick () in
    Alcotest.(check int) "common_prefix_height"
      (Ref_store.common_prefix_height reference head other)
      (Store.common_prefix_height arena head other);
    (* The id plane must agree with the hash plane it shadows. *)
    let hid = Store.id arena head in
    Alcotest.(check bool) "hash_at/id roundtrip" true
      (Hash.equal (Store.hash_at arena hid) head);
    Alcotest.(check int) "height_at = height" (Store.height arena head)
      (Store.height_at arena hid);
    if not (Store.id_equal hid Store.genesis_id) then begin
      let parent_hash = (Store.find_exn arena head).Types.b_header.parent in
      Alcotest.(check bool) "parent_id matches header parent" true
        (Hash.equal (Store.hash_at arena (Store.parent_id arena hid)) parent_hash)
    end
  done

let store_differential =
  QCheck.Test.make ~name:"arena store = reference store (random trees)" ~count:25
    QCheck.(small_nat)
    (fun seed ->
      let driver = Rng.of_seed (Int64.of_int (seed + 1)) in
      let tree = build_tree driver ~blocks:(20 + Rng.int driver 40) in
      check_store_agree driver tree;
      true)

(* ------------------------------------------------------------------ *)
(* Generator differential.                                             *)

(* A random program of generator calls, run on [Rng] and on [Ref_rng]
   from the same seed: every output must be equal, and so must the last
   draw ([last_bits64]) and all six slots after any call (a Bernoulli with
   p outside (0, 1) draws nothing; a fresh or split-off generator reads 0).
   A k-step [draws] must equal k reference draws, slot by slot, interleaved
   with single draws; the slots it does not write keep their words. Each op
   carries an int that picks its bound, probability, branch of a split,
   derivation index, draw count or slot. The state is checked by every
   later output, and by four more at the end of the program. *)
let rng_differential =
  QCheck.Test.make ~name:"Rng = boxed-Int64 xoshiro256++ reference" ~count:300
    QCheck.(pair int64 (list_of_size Gen.(int_range 1 200) (pair (int_bound 10) int)))
    (fun (seed, ops) ->
      let g = ref (Rng.of_seed seed) and r = ref (Ref_rng.of_seed seed) in
      let slots = Array.make 6 0L in
      let below w p = Int64.to_float (Int64.shift_right_logical w 11) *. 0x1p-53 < p in
      List.iter
        (fun (op, k) ->
          (match op with
          | 0 -> Alcotest.(check int64) "bits64" (Ref_rng.next !r) (Rng.bits64 !g)
          | 1 ->
              Rng.draw !g;
              ignore (Ref_rng.next !r)
          | 2 ->
              Alcotest.(check int64) "float bits"
                (Int64.bits_of_float (Ref_rng.float !r))
                (Int64.bits_of_float (Rng.float !g))
          | 3 ->
              let bound = 1 + (k land 0xffffffff) in
              Alcotest.(check int) "int" (Ref_rng.int !r bound) (Rng.int !g bound)
          | 4 ->
              let bound = Int64.of_int (1 + (k land max_int)) in
              Alcotest.(check int64) "int64_range" (Ref_rng.int64_range !r bound)
                (Rng.int64_range !g bound)
          | 5 ->
              let p = (float_of_int (k land 0xfff) /. 3000.) -. 0.1 in
              Alcotest.(check bool) "bernoulli" (Ref_rng.bernoulli !r p) (Rng.bernoulli !g p)
          | 6 ->
              let child = Rng.split !g and ref_child = Ref_rng.split !r in
              if Int.equal (k land 1) 0 then begin
                g := child;
                r := ref_child;
                Array.fill slots 0 6 0L
              end
          | 7 ->
              let master = Int64.logxor seed (Int64.of_int k) and index = k land 0xffff in
              Alcotest.(check int64) "derive" (Ref_rng.derive master ~index)
                (Rng.derive master ~index)
          | 8 ->
              let count = (k land 0xffff) mod 7 in
              Rng.draws !g count;
              for j = 0 to count - 1 do
                slots.(j) <- Ref_rng.next !r
              done
          | 9 ->
              let j = (k land 0xffff) mod 6 in
              Rng.draw_to !g j;
              slots.(j) <- Ref_rng.next !r
          | _ ->
              let j = (k land 0xffff) mod 6 and p = float_of_int (k land 0xfff) /. 4096. in
              Alcotest.(check bool) "slot_below" (below slots.(j) p) (Rng.slot_below !g j p));
          Array.iteri
            (fun j w -> Alcotest.(check int64) (Printf.sprintf "slot %d" j) w (Rng.slot_bits64 !g j))
            slots;
          Alcotest.(check int64) "last_bits64" !r.Ref_rng.last (Rng.last_bits64 !g))
        ops;
      for _ = 1 to 4 do
        Alcotest.(check int64) "state" (Ref_rng.next !r) (Rng.bits64 !g)
      done;
      true)

(* Known answers of the reference C code (xoshiro256plusplus.c, seeded
   with four outputs of splitmix64.c): the first four outputs for four
   seeds, then seed 7's first output as a float, (x >> 11) * 2^-53, and
   its second as ((x >> 1) mod 1000). Both the generator and the reference
   must reproduce them. *)
let rng_known_answers () =
  let kat =
    [
      (0L, [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL; 0x02eebf8c3bbe5e1aL ]);
      (1L, [ 0xcfc5d07f6f03c29bL; 0xbf424132963fe08dL; 0x19a37d5757aaf520L; 0xbf08119f05cd56d6L ]);
      (42L, [ 0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL; 0xb37d9f600cd835b8L ]);
      (-1L, [ 0x56ccf8ce948e27b2L; 0xe68588432e5a5b90L; 0xe3e9b5a48119ca8bL; 0x460f19495532ae73L ]);
    ]
  in
  List.iter
    (fun (seed, outputs) ->
      let g = Rng.of_seed seed and r = Ref_rng.of_seed seed in
      List.iter
        (fun expected ->
          Alcotest.(check int64) (Printf.sprintf "Rng, seed %Ld" seed) expected (Rng.bits64 g);
          Alcotest.(check int64)
            (Printf.sprintf "Ref_rng, seed %Ld" seed)
            expected (Ref_rng.next r))
        outputs)
    kat;
  let g = Rng.of_seed 7L and r = Ref_rng.of_seed 7L in
  Alcotest.(check (float 0.)) "Rng, seed 7 float" 0.055360436478333108 (Rng.float g);
  Alcotest.(check (float 0.)) "Ref_rng, seed 7 float" 0.055360436478333108 (Ref_rng.float r);
  Alcotest.(check int) "Rng, seed 7 int 1000" 458 (Rng.int g 1000);
  Alcotest.(check int) "Ref_rng, seed 7 int 1000" 458 (Ref_rng.int r 1000)

(* ------------------------------------------------------------------ *)
(* Oracle differential.                                                *)

(* Probabilities chosen to hit every branch of the view fold: p = 0
   (zero limit), tiny p (failure range overflows the signed 63-bit size),
   mid p, p >= 1/2 (success range overflows), p = 1 (certain success). *)
let interesting_probs = [| 0.0; 1e-9; 1e-4; 0.02; 0.3; 0.5; 0.9; 1.0 |]

(* The memoizing oracle materializes every digest inside [attempt], before
   the next attempt's draws; both must match the reference digest for
   digest, and the memo must bind each input to its digest. *)
let oracle_differential =
  QCheck.Test.make ~name:"deferred oracle = per-query sampling (same seed)" ~count:60
    QCheck.(triple small_nat (int_bound (Array.length interesting_probs - 1))
              (int_bound (Array.length interesting_probs - 1)))
    (fun (seed, pi, pfi) ->
      let p = interesting_probs.(pi) and pf = interesting_probs.(pfi) in
      let seed = Int64.of_int (seed + 17) in
      let oracle = Oracle.sim ~p ~pf (Rng.of_seed seed) in
      let memo = Oracle.sim ~memo:true ~p ~pf (Rng.of_seed seed) in
      let reference = Ref_oracle.sim ~p ~pf (Rng.of_seed seed) in
      for i = 1 to 300 do
        let mask = Oracle.attempt oracle "" in
        let input = string_of_int i in
        let memo_mask = Oracle.attempt memo input in
        let expect = Ref_oracle.query reference in
        let got = Oracle.attempt_hash oracle in
        if not (Hash.equal got expect) then
          Alcotest.failf "digest diverged: %a <> %a" Hash.pp got Hash.pp expect;
        let memo_got = Oracle.attempt_hash memo in
        if not (Hash.equal memo_got expect) then
          Alcotest.failf "memo digest diverged: %a <> %a" Hash.pp memo_got Hash.pp expect;
        Alcotest.(check bool) "memo binds the input" true (Oracle.verify memo input expect);
        Alcotest.(check int) "memo mask" mask memo_mask;
        (* The win mask must agree with the threshold test on the digest it
           stands in for — the mask-equivalence contract of the rewrite. *)
        Alcotest.(check bool) "block win = threshold test"
          (Ref_oracle.meets_block expect ~p)
          (Oracle.attempt_won_block mask);
        Alcotest.(check bool) "fruit win = threshold test"
          (Ref_oracle.meets_fruit expect ~pf)
          (Oracle.attempt_won_fruit mask)
      done;
      Alcotest.(check int) "block wins" reference.Ref_oracle.block_wins (Oracle.block_wins oracle);
      Alcotest.(check int) "fruit wins" reference.Ref_oracle.fruit_wins (Oracle.fruit_wins oracle);
      Alcotest.(check int) "memo block wins" reference.Ref_oracle.block_wins
        (Oracle.block_wins memo);
      Alcotest.(check int) "memo fruit wins" reference.Ref_oracle.fruit_wins
        (Oracle.fruit_wins memo);
      true)

(* The sparse plane's forgery of a known win, drawn one word at a time from
   a boxed [bits64] per draw, as it was before the k-step draw: block view
   raw, fruit view raw, then the filler words right-to-left; a win against
   a zero limit is a loss. The view fold is the one [Ref_oracle.sample_view]
   applies after its Bernoulli draw. *)
let ref_sample_win ~p ~pf ~block ~fruit rng =
  let view limit success raw =
    let r63 = Int64.shift_right_logical raw 1 in
    if success then
      if Int64.compare limit 0L < 0 then r63 else Int64.rem r63 limit
    else
      let range = Int64.sub 0L limit in
      if Int64.compare range 0L > 0 then Int64.add limit (Int64.rem r63 range)
      else Int64.add limit r63
  in
  let block_limit = Hash.threshold p and fruit_limit = Hash.threshold pf in
  let block = block && not (Int64.equal block_limit 0L) in
  let fruit = fruit && not (Int64.equal fruit_limit 0L) in
  let block_view = view block_limit block (Rng.bits64 rng) in
  let fruit_view = view fruit_limit fruit (Rng.bits64 rng) in
  let f2 = Rng.bits64 rng in
  let f1 = Rng.bits64 rng in
  (Hash.of_views ~block_view ~fruit_view ~filler:(f1, f2), block, fruit)

let oracle_sample_win =
  QCheck.Test.make ~name:"sample_win = per-draw forgery (same seed)" ~count:60
    QCheck.(triple small_nat (int_bound (Array.length interesting_probs - 1))
              (int_bound (Array.length interesting_probs - 1)))
    (fun (seed, pi, pfi) ->
      let p = interesting_probs.(pi) and pf = interesting_probs.(pfi) in
      let oracle = Oracle.sim ~p ~pf (Rng.of_seed 1L) in
      let g = Rng.of_seed (Int64.of_int seed) and r = Rng.of_seed (Int64.of_int seed) in
      let block_wins = ref 0 and fruit_wins = ref 0 in
      for i = 1 to 100 do
        let block = Int.equal (i land 1) 0 and fruit = Int.equal (i land 2) 0 in
        let expect, won_block, won_fruit = ref_sample_win ~p ~pf ~block ~fruit r in
        if won_block then incr block_wins;
        if won_fruit then incr fruit_wins;
        let got = Oracle.sample_win oracle ~block ~fruit g in
        if not (Hash.equal got expect) then
          Alcotest.failf "forged digest diverged: %a <> %a" Hash.pp got Hash.pp expect
      done;
      Alcotest.(check int64) "next draw" (Rng.bits64 r) (Rng.bits64 g);
      Alcotest.(check int) "block wins" !block_wins (Oracle.block_wins oracle);
      Alcotest.(check int) "fruit wins" !fruit_wins (Oracle.fruit_wins oracle);
      Alcotest.(check int) "no query charged" 0 (Oracle.queries oracle);
      true)

(* [query] must keep materializing exactly the attempt digest. *)
let oracle_query_is_attempt =
  QCheck.Test.make ~name:"oracle query = attempt + attempt_hash" ~count:20
    QCheck.small_nat
    (fun seed ->
      let seed = Int64.of_int (seed + 3) in
      let a = Oracle.sim ~p:0.1 ~pf:0.4 (Rng.of_seed seed) in
      let b = Oracle.sim ~p:0.1 ~pf:0.4 (Rng.of_seed seed) in
      for _ = 1 to 200 do
        let h = Oracle.query a "" in
        let _mask = Oracle.attempt b "" in
        if not (Hash.equal h (Oracle.attempt_hash b)) then
          Alcotest.fail "query and attempt_hash diverged"
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Network differential.                                               *)

type op =
  | Send of { sender : int; recipient : int; tag : int; priority : int;
              schedule : Network.schedule }
  | Broadcast of { sender : int; tag : int; priority : int; even : Network.schedule;
                   odd : Network.schedule }

(* A random Δ-bounded adversarial workload: rushed, honest and tie-losing
   (honest + 10, as [Common.publish_tie] sends) priorities interleaved,
   targeted sends beside broadcasts (whose schedule differs between even
   and odd recipients), explicit rounds both inside and outside the legal
   window (exercising the clamp), and uniform-window draws (exercising
   that both implementations consume the schedule RNG identically). About
   one round in four is a burst of up to 20 operations, so slots grow past
   their first 8 entries with mixed classes. Targeted sends address only
   the parties below [addressed]; without broadcasts the others are never
   addressed and drain nothing. *)
let gen_ops driver ~n ~delta ~rounds ~addressed ~broadcasts =
  let tag = ref 0 in
  let schedule now =
    match Rng.int driver 4 with
    | 0 -> Network.At (now - 1 + Rng.int driver (2 * delta + 3))
    | 1 -> Network.Uniform_in_window
    | 2 -> Network.Next_round
    | _ -> Network.Max_delay
  in
  let priority () =
    match Rng.int driver 3 with
    | 0 -> Message.rushed_priority
    | 1 -> Message.honest_priority
    | _ -> Message.honest_priority + 10
  in
  List.init rounds (fun now ->
      let count = if Int.equal (Rng.int driver 4) 0 then Rng.int driver 21 else Rng.int driver 5 in
      let ops =
        List.init count (fun _ ->
            incr tag;
            if broadcasts && Int.equal (Rng.int driver 3) 0 then
              let sender = Rng.int driver (n + 1) - 1 in
              let priority = priority () in
              let even = schedule now in
              Broadcast { sender; tag = !tag; priority; even; odd = schedule now }
            else
              let sender = Rng.int driver n in
              let recipient = Rng.int driver addressed in
              let priority = priority () in
              Send { sender; recipient; tag = !tag; priority; schedule = schedule now })
      in
      (now, ops))

let msg_key (m : Message.t) = (m.Message.sender, m.Message.sent_at, m.Message.priority)

let run_network_differential ?ring_policy ?ref_policy ~skip_drains seed =
  let n = 2 + Rng.int (Rng.of_seed (Int64.of_int (seed + 5))) 7 in
  let driver = Rng.of_seed (Int64.of_int (seed * 31 + 7)) in
  let delta = 1 + Rng.int driver 4 in
  let rounds = 30 in
  let addressed = 1 + Rng.int driver n in
  let broadcasts = Rng.bernoulli driver 0.5 in
  let ops = gen_ops driver ~n ~delta ~rounds ~addressed ~broadcasts in
  let sched_seed = Int64.of_int (seed * 13 + 1) in
  let rng_a = Rng.of_seed sched_seed and rng_b = Rng.of_seed sched_seed in
  let net = Network.create ?policy:ring_policy ~n ~delta () in
  let reference = Ref_network.create ?policy:ref_policy ~n ~delta () in
  (* Some (round, recipient) drains are skipped and retried later: the ring
     must hold both slot content and overflow spill until the drain with the
     exact round number arrives, like the reference hashtable does. *)
  let skipped = ref [] in
  let drain_round round =
    for recipient = 0 to n - 1 do
      if skip_drains && Int.equal (Rng.int driver 5) 0 then
        skipped := (round, recipient) :: !skipped
      else begin
        let got = List.map msg_key (Network.drain net ~round ~recipient) in
        let expect = List.map msg_key (Ref_network.drain reference ~round ~recipient) in
        Alcotest.(check (list (triple int int int))) "drain order" expect got
      end
    done
  in
  let message ~sender ~tag ~priority =
    Message.chain_announce ~sender ~sent_at:tag ~priority ~blocks:[] ~head:Types.genesis.b_hash ()
  in
  List.iter
    (fun (now, round_ops) ->
      List.iter
        (function
          | Send { sender; recipient; tag; priority; schedule } ->
              let message = message ~sender ~tag ~priority in
              Network.send_to net ~now ~recipient ~schedule ~rng:rng_a message;
              Ref_network.send_to reference ~now ~recipient ~schedule ~rng:rng_b message
          | Broadcast { sender; tag; priority; even; odd } ->
              let message = message ~sender ~tag ~priority in
              let schedule ~recipient = if Int.equal (recipient mod 2) 0 then even else odd in
              Network.broadcast net ~now ~schedule ~rng:rng_a message;
              (* The reference has no broadcast: one send per other party,
                 in recipient order, as a broadcast's deliveries are made. *)
              for recipient = 0 to n - 1 do
                if not (Int.equal recipient sender) then
                  Ref_network.send_to reference ~now ~recipient ~schedule:(schedule ~recipient)
                    ~rng:rng_b message
              done)
        round_ops;
      drain_round now)
    ops;
  (* Flush: every delivery round within the horizon plus the policy push,
     then the drains that were skipped above. *)
  for round = rounds to rounds + (4 * delta) + 8 do
    drain_round round
  done;
  List.iter
    (fun (round, recipient) ->
      let got = List.map msg_key (Network.drain net ~round ~recipient) in
      let expect = List.map msg_key (Ref_network.drain reference ~round ~recipient) in
      Alcotest.(check (list (triple int int int))) "late drain order" expect got)
    !skipped;
  Alcotest.(check int) "sent" (reference.Ref_network.sent) (Network.sent net);
  Alcotest.(check int) "delivered" reference.Ref_network.delivered (Network.delivered net);
  Alcotest.(check int) "pending" reference.Ref_network.pending (Network.pending net);
  true

let network_differential =
  QCheck.Test.make ~name:"ring network = sorted-list network" ~count:40 QCheck.small_nat
    (fun seed -> run_network_differential ~skip_drains:false seed)

let network_differential_skips =
  QCheck.Test.make ~name:"ring network = sorted-list network (skipped drains)" ~count:40
    QCheck.small_nat
    (fun seed -> run_network_differential ~skip_drains:true seed)

(* A fault policy that holds some traffic far past Δ forces deliveries
   beyond the ring horizon into the overflow table. *)
let push_policy ~now ~sender:_ ~recipient ~round =
  if Int.equal (recipient mod 2) 0 && Int.equal (round mod 3) 0 then round + 11 else max (now + 1) round

let network_differential_overflow =
  QCheck.Test.make ~name:"ring network = sorted-list network (overflow policy)" ~count:40
    QCheck.small_nat
    (fun seed ->
      run_network_differential ~ring_policy:push_policy ~ref_policy:push_policy
        ~skip_drains:true seed)

(* ------------------------------------------------------------------ *)
(* Reference SHA-256: the pure-OCaml hashing core the C block function
   replaced, verbatim (HMAC omitted).                                  *)

module Ref_sha256 = struct
  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  type ctx = {
    h : int array; (* 8 words of chaining state, each masked to 32 bits *)
    buf : Bytes.t; (* 64-byte block buffer *)
    mutable buf_len : int;
    mutable total : int64; (* bytes absorbed *)
    w : int array; (* 64-entry message schedule, reused across blocks *)
  }

  let init () =
    {
      h =
        [|
          0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
          0x1f83d9ab; 0x5be0cd19;
        |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0L;
      w = Array.make 64 0;
    }

  let mask32 = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress ctx block pos =
    let w = ctx.w in
    for t = 0 to 15 do
      w.(t) <- Int32.to_int (Bytes.get_int32_be block (pos + (4 * t))) land mask32
    done;
    for t = 16 to 63 do
      let wt15 = w.(t - 15) and wt2 = w.(t - 2) in
      let s0 = rotr wt15 7 lxor rotr wt15 18 lxor (wt15 lsr 3) in
      let s1 = rotr wt2 17 lxor rotr wt2 19 lxor (wt2 lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
    done;
    let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
    let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and h = ref ctx.h.(7) in
    for t = 0 to 63 do
      let sigma1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = !e land !f lxor (lnot !e land mask32 land !g) in
      let t1 = !h + sigma1 + ch + k.(t) + w.(t) in
      let sigma0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
      let t2 = sigma0 + maj in
      h := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask32
    done;
    ctx.h.(0) <- (ctx.h.(0) + !a) land mask32;
    ctx.h.(1) <- (ctx.h.(1) + !b) land mask32;
    ctx.h.(2) <- (ctx.h.(2) + !c) land mask32;
    ctx.h.(3) <- (ctx.h.(3) + !d) land mask32;
    ctx.h.(4) <- (ctx.h.(4) + !e) land mask32;
    ctx.h.(5) <- (ctx.h.(5) + !f) land mask32;
    ctx.h.(6) <- (ctx.h.(6) + !g) land mask32;
    ctx.h.(7) <- (ctx.h.(7) + !h) land mask32

  let update_bytes ctx data ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length data then
      invalid_arg "Sha256.update_bytes: out of bounds";
    ctx.total <- Int64.add ctx.total (Int64.of_int len);
    let offset = ref pos and remaining = ref len in
    if ctx.buf_len > 0 then begin
      let take = min !remaining (64 - ctx.buf_len) in
      Bytes.blit data !offset ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      offset := !offset + take;
      remaining := !remaining - take;
      if Int.equal ctx.buf_len 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    while !remaining >= 64 do
      compress ctx data !offset;
      offset := !offset + 64;
      remaining := !remaining - 64
    done;
    if !remaining > 0 then begin
      Bytes.blit data !offset ctx.buf 0 !remaining;
      ctx.buf_len <- !remaining
    end

  let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

  let finalize ctx =
    let bit_len = Int64.mul ctx.total 8L in
    let pad_len =
      let rem = (ctx.buf_len + 1 + 8) mod 64 in
      if Int.equal rem 0 then 1 else 1 + (64 - rem)
    in
    let tail = Bytes.make (pad_len + 8) '\000' in
    Bytes.set tail 0 '\x80';
    Bytes.set_int64_be tail pad_len bit_len;
    let saved_total = ctx.total in
    update_bytes ctx tail ~pos:0 ~len:(Bytes.length tail);
    ctx.total <- saved_total;
    assert (Int.equal ctx.buf_len 0);
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
    done;
    Bytes.unsafe_to_string out

  let digest s =
    let ctx = init () in
    update ctx s;
    finalize ctx
end

(* Reference Merkle root and fruit encoder: the concatenation-based
   pre-images and the byte-by-byte u64 writer the lean paths replaced. *)
module Ref_merkle = struct
  let leaf_hash s = Ref_sha256.digest ("\x00" ^ s)
  let node_hash l r = Ref_sha256.digest ("\x01" ^ l ^ r)
  let empty_root = Ref_sha256.digest "fruitchain:merkle:empty"

  let rec level = function
    | [] -> []
    | [ x ] -> [ x ]
    | a :: b :: rest -> node_hash a b :: level rest

  let rec reduce = function [] -> empty_root | [ root ] -> root | nodes -> reduce (level nodes)
  let root leaves = reduce (List.map leaf_hash leaves)
end

module Ref_codec = struct
  let put_u32 buf n =
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff))

  let put_u64 buf v =
    for i = 7 downto 0 do
      Buffer.add_char buf
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
    done

  let fruit_bytes (f : Types.fruit) =
    let buf = Buffer.create 160 in
    let h = f.f_header in
    Buffer.add_string buf (Hash.to_raw h.parent);
    Buffer.add_string buf (Hash.to_raw h.pointer);
    put_u64 buf h.nonce;
    Buffer.add_string buf (Hash.to_raw h.digest);
    put_u32 buf (String.length h.record);
    Buffer.add_string buf h.record;
    Buffer.add_string buf (Hash.to_raw f.f_hash);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Crypto kernel differential.                                        *)

(* Lengths 0-300, with a third of the draws on the padding boundaries:
   55 is the longest tail padded in one block, 56 the shortest that needs
   two, 63/64 and 119/120/128 the same edges one block further on. *)
let gen_message =
  let open QCheck.Gen in
  let len = frequency [ (1, oneofl [ 55; 56; 63; 64; 119; 120; 128 ]); (2, int_range 0 300) ] in
  string_size ~gen:char len

let print_message s = Printf.sprintf "len=%d %S" (String.length s) s

(* [Sha256.digest] runs the SHA-extension block function wherever
   [Sha256.accelerated] holds, [Sha256.digest_portable] the portable one on
   every host; each is held to the reference. *)
let sha256_differential =
  QCheck.Test.make ~name:"C SHA-256 = pure-OCaml reference" ~count:1000
    (QCheck.make ~print:print_message gen_message)
    (fun s ->
      let expect = Ref_sha256.digest s in
      String.equal (Sha256.digest s) expect && String.equal (Sha256.digest_portable s) expect)

let merkle_differential =
  QCheck.Test.make ~name:"Merkle.root = concatenation-based reference root" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 70) (string_of_size Gen.(int_range 0 200)))
    (fun leaves -> String.equal (Hash.to_raw (Merkle.root leaves)) (Ref_merkle.root leaves))

let gen_fruit =
  let open QCheck.Gen in
  let hash = string_size ~gen:char (return 32) >|= Hash.of_raw in
  let nonce = map2 (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      (int_bound 0xffffffff) (int_bound 0xffffffff)
  in
  hash >>= fun parent ->
  hash >>= fun pointer ->
  nonce >>= fun nonce ->
  hash >>= fun digest ->
  string_size ~gen:char (int_range 0 100) >>= fun record ->
  hash >|= fun f_hash ->
  { Types.f_header = { parent; pointer; nonce; digest; record }; f_hash; f_prov = None }

let codec_differential =
  QCheck.Test.make ~name:"Codec.fruit_bytes = byte-by-byte reference encoder" ~count:300
    (QCheck.make ~print:(fun (f : Types.fruit) -> Int64.to_string f.f_header.nonce) gen_fruit)
    (fun f -> String.equal (Codec.fruit_bytes f) (Ref_codec.fruit_bytes f))

(* ------------------------------------------------------------------ *)
(* Reference fruit buffer: the eager candidate-set classifier. Verbatim *)
(* except that without recency "recorded" means anywhere on the owner's *)
(* chain: that half keeps the chain's recorded fruits itself, by        *)
(* scanning the chain on [refresh] and adding each block on [advance].  *)

module Ref_buffer = struct
  open Fruitchain_chain

  type t = {
    enforce_recency : bool;
    fruits : (Hash.t, Types.fruit) Hashtbl.t;  (* everything retained *)
    candidate_set : (Hash.t, Types.fruit) Hashtbl.t;  (* recent ∧ not recorded *)
    by_pointer : (Hash.t, Hash.t list) Hashtbl.t;  (* hang point -> fruit refs *)
    recorded : (Hash.t, unit) Hashtbl.t;  (* recency off: recorded on the chain *)
    mutable sorted : Types.fruit list;  (* cache of [candidates] *)
    mutable dirty : bool;
  }

  let create ?(enforce_recency = true) () =
    {
      enforce_recency;
      fruits = Hashtbl.create 256;
      candidate_set = Hashtbl.create 64;
      by_pointer = Hashtbl.create 64;
      recorded = Hashtbl.create 64;
      sorted = [];
      dirty = false;
    }

  let size t = Hashtbl.length t.fruits
  let mem t h = Hashtbl.mem t.fruits h

  let classify t ~view (f : Types.fruit) =
    let eligible =
      if t.enforce_recency then
        Window_view.is_recent view ~pointer:f.f_header.pointer
        && not (Window_view.is_included view ~fruit:f.f_hash)
      else not (Hashtbl.mem t.recorded f.f_hash)
    in
    if eligible then begin
      if not (Hashtbl.mem t.candidate_set f.f_hash) then begin
        Hashtbl.replace t.candidate_set f.f_hash f;
        t.dirty <- true
      end
    end
    else if Hashtbl.mem t.candidate_set f.f_hash then begin
      Hashtbl.remove t.candidate_set f.f_hash;
      t.dirty <- true
    end

  let add t ~view (f : Types.fruit) =
    if not (Hashtbl.mem t.fruits f.f_hash) then begin
      Hashtbl.replace t.fruits f.f_hash f;
      let siblings =
        Option.value ~default:[] (Hashtbl.find_opt t.by_pointer f.f_header.pointer)
      in
      Hashtbl.replace t.by_pointer f.f_header.pointer (f.f_hash :: siblings);
      classify t ~view f
    end

  let drop t fruit_hash =
    match Hashtbl.find_opt t.fruits fruit_hash with
    | None -> ()
    | Some f ->
        Hashtbl.remove t.fruits fruit_hash;
        if Hashtbl.mem t.candidate_set fruit_hash then begin
          Hashtbl.remove t.candidate_set fruit_hash;
          t.dirty <- true
        end;
        let siblings =
          Option.value ~default:[] (Hashtbl.find_opt t.by_pointer f.f_header.pointer)
        in
        (match List.filter (fun h -> not (Hash.equal h fruit_hash)) siblings with
        | [] -> Hashtbl.remove t.by_pointer f.f_header.pointer
        | siblings -> Hashtbl.replace t.by_pointer f.f_header.pointer siblings)

  let refresh t ~store ~view =
    if not t.enforce_recency then begin
      Hashtbl.reset t.recorded;
      List.iter
        (fun (b : Types.block) ->
          List.iter (fun (f : Types.fruit) -> Hashtbl.replace t.recorded f.f_hash ()) b.fruits)
        (Store.to_list store ~head:(Window_view.head view))
    end;
    Hashtbl.reset t.candidate_set;
    t.dirty <- true;
    let stale = ref [] in
    Hashtbl.iter
      (fun h (f : Types.fruit) ->
        if t.enforce_recency && Window_view.stale_pointer ~store view ~pointer:f.f_header.pointer
        then stale := h :: !stale
        else classify t ~view f)
      t.fruits;
    List.iter (drop t) !stale

  let advance t ~view ~block =
    (* The chain grew by exactly [block] and the window slid accordingly; the
       candidate set changes only at the edges, no rescan needed. *)
    List.iter
      (fun (f : Types.fruit) ->
        if not t.enforce_recency then Hashtbl.replace t.recorded f.f_hash ();
        if Hashtbl.mem t.candidate_set f.f_hash then begin
          Hashtbl.remove t.candidate_set f.f_hash;
          t.dirty <- true
        end)
      block.Types.fruits;
    if t.enforce_recency then begin
      match Window_view.expired view with
      | None -> ()
      | Some old_block ->
          (* Fruits hanging from the block that left the window are stale on
             this chain forever (heights only grow). *)
          let victims = Option.value ~default:[] (Hashtbl.find_opt t.by_pointer old_block) in
          List.iter (drop t) victims
    end;
    (* Buffered fruits hanging from the new head become recent now. *)
    let newly_recent =
      Option.value ~default:[] (Hashtbl.find_opt t.by_pointer block.Types.b_hash)
    in
    List.iter
      (fun h -> match Hashtbl.find_opt t.fruits h with Some f -> classify t ~view f | None -> ())
      newly_recent

  let candidates t =
    if t.dirty then begin
      let all = Hashtbl.fold (fun _ f acc -> f :: acc) t.candidate_set [] in
      t.sorted <- List.sort (fun (a : Types.fruit) b -> Hash.compare a.f_hash b.f_hash) all;
      t.dirty <- false
    end;
    t.sorted

  let candidate_count t = Hashtbl.length t.candidate_set
end

(* Each buffer follows its owner through random operation sequences over
   a shared store and view cache, the way [Node] drives its buffer, and is
   checked against its own reference: fruits
   hang from any stored block (fork, stale or in-window) or from an unknown
   reference; blocks record random fruits, including ones already recorded
   and ones never buffered; the owner learns a block's fruits before
   adopting it, walks extensions one view at a time and prunes on anything
   else (reorgs, deep jumps, moving backwards). After every operation the
   size and membership must agree, and so must F′ — asked twice, the second
   time from the memo. The gap form asks for F′ only after about one
   operation in four (and at the end), so arrivals, extensions, expiries
   and prunes pile up between two F′ and the buffer must derive the new F′
   from a memo several steps old. The crowded form runs longer, mostly
   announces fruits and hangs them from the two oldest blocks, so most
   of its cases push a group past [crowded_group] fruits. The multi-owner
   form gives three owners buffers of the one cache, at heads of their
   own; each operation acts for one owner, every owner is checked after
   every operation, and half-way through the acting owner's buffer is
   released and replaced by a fresh one, starting at genesis. In every
   form [add] must report a fruit new exactly when the reference did not
   hold it. Each operation is small ints interpreted modulo the current
   state, so failing sequences shrink. *)
let buffer_cases = ref 0
let buffer_cases_crowded = ref 0
let crowded_group = 64

type owner = {
  reference : Ref_buffer.t;
  buffer : Fruit_buffer.t;
  mutable head : Hash.t;
  mutable view : Window_view.t;
}

let buffer_property ?(crowded = false) ?(owners = 1) ~name ~at_gaps () =
  let kind, length, count =
    if crowded then QCheck.(frequency [ (20, int_bound 3); (1, int_bound 9) ], (200, 400), 100)
    else (QCheck.int_bound 9, (1, 150), 300)
  in
  (* The last int is the F′ gap, and with several owners also the acting
     owner ([sel / 4]); one owner keeps the single-owner generator. *)
  QCheck.Test.make ~name ~count
    QCheck.(
      triple bool (int_range 1 5)
        (list_of_size Gen.(int_range (fst length) (snd length))
           (quad kind small_nat small_nat (int_bound ((4 * owners) - 1)))))
    (fun (enforce_recency, window, ops) ->
      let store = Store.create () in
      let views =
        if enforce_recency then Window_view.Cache.create ~window ~store
        else Window_view.Cache.whole_chain ~store
      in
      let spawn () =
        {
          reference = Ref_buffer.create ~enforce_recency ();
          buffer = Fruit_buffer.create views;
          head = Types.genesis.b_hash;
          view = Window_view.Cache.view views ~head:Types.genesis.b_hash;
        }
      in
      let all = Array.init owners (fun _ -> spawn ()) in
      let counter = ref 0 in
      let fresh tag =
        incr counter;
        Hash.of_raw (Sha256.digest (Printf.sprintf "%s%d" tag !counter))
      in
      let blocks = ref [| Types.genesis |] and pool = ref [||] in
      let pick arr i = arr.(i mod Array.length arr) in
      let added_agrees = ref true and crowded_case = ref false in
      let learn o (f : Types.fruit) =
        let unheld = not (Ref_buffer.mem o.reference f.f_hash) in
        Ref_buffer.add o.reference ~view:o.view f;
        if not (Bool.equal unheld (Fruit_buffer.add o.buffer f)) then added_agrees := false;
        let group = Hashtbl.find o.reference.by_pointer f.f_header.pointer in
        if List.length group > crowded_group then crowded_case := true
      in
      let new_block ~parent sel =
        let fruits =
          if Array.length !pool = 0 then []
          else
            List.sort_uniq
              (fun (a : Types.fruit) b -> Hash.compare a.f_hash b.f_hash)
              (List.filteri
                 (fun i _ -> i < sel mod 4)
                 [ pick !pool sel; pick !pool (sel / 3); pick !pool (sel / 7) ])
        in
        let header =
          { Types.parent; pointer = parent; nonce = 0L; digest = Hash.zero; record = "" }
        in
        let b = { Types.b_header = header; b_hash = fresh "b"; fruits; b_prov = None } in
        Store.add store b;
        blocks := Array.append !blocks [| b |];
        b
      in
      let adopt o target =
        let rec path_to acc h steps =
          if Hash.equal h o.head then Some acc
          else if steps = 0 || Hash.equal h Types.genesis.b_hash then None
          else
            let b = Store.find_exn store h in
            path_to (b :: acc) b.b_header.parent (steps - 1)
        in
        (match path_to [] target window with
        | Some path ->
            List.iter
              (fun (b : Types.block) ->
                o.view <- Window_view.Cache.view views ~head:b.b_hash;
                Ref_buffer.advance o.reference ~view:o.view ~block:b;
                Fruit_buffer.expire o.buffer ~view:o.view)
              path
        | None ->
            o.view <- Window_view.Cache.view views ~head:target;
            Ref_buffer.refresh o.reference ~store ~view:o.view;
            Fruit_buffer.prune o.buffer ~store ~view:o.view);
        o.head <- target
      in
      let step o (kind, a, b) =
        match kind with
        | 0 | 1 | 2 ->
            let n = Array.length !blocks in
            let pointer =
              if crowded then
                if a mod 16 = 15 then fresh "unknown" else (pick !blocks (a mod 2)).b_hash
              else if a mod (n + 1) = n then fresh "unknown"
              else (pick !blocks a).b_hash
            in
            let header =
              { Types.parent = o.head; pointer; nonce = Int64.of_int b; digest = Hash.zero; record = "" }
            in
            let f = { Types.f_header = header; f_hash = fresh "f"; f_prov = None } in
            pool := Array.append !pool [| f |];
            (* Some fruits are never announced to the owner, only recorded. *)
            if b mod 5 <> 0 then learn o f
        | 3 -> if Array.length !pool > 0 then learn o (pick !pool a)
        | 4 | 5 ->
            let blk = new_block ~parent:o.head b in
            List.iter (learn o) blk.fruits;
            adopt o blk.b_hash
        | 6 ->
            let blk = new_block ~parent:(pick !blocks a).b_hash b in
            if b mod 2 = 0 then List.iter (learn o) blk.fruits
        | 7 -> adopt o (pick !blocks a).b_hash
        | 8 ->
            (* Re-adopting the current head: the strategies' rescan path. *)
            Ref_buffer.refresh o.reference ~store ~view:o.view;
            Fruit_buffer.prune o.buffer ~store ~view:o.view
        | _ ->
            (* Extend the head without learning the block's fruits first,
               as for a block some other party already put in the store. *)
            let blk = new_block ~parent:o.head (a * 11) in
            adopt o blk.b_hash
      in
      let hashes = List.map (fun (f : Types.fruit) -> Hash.to_raw f.f_hash) in
      let same_candidates o =
        let expected = hashes (Ref_buffer.candidates o.reference) in
        let first = Fruit_buffer.candidates o.buffer ~view:o.view in
        let again = Fruit_buffer.candidates o.buffer ~view:o.view in
        List.equal String.equal expected (hashes first)
        && List.equal String.equal expected (hashes again)
        && Int.equal (Ref_buffer.candidate_count o.reference) (List.length expected)
      in
      let same_contents o =
        Int.equal (Ref_buffer.size o.reference) (Fruit_buffer.size o.buffer)
        && Array.for_all
             (fun (f : Types.fruit) ->
               Bool.equal (Ref_buffer.mem o.reference f.f_hash) (Fruit_buffer.mem o.buffer f))
             !pool
      in
      let half = List.length ops / 2 in
      let agree =
        List.for_all
          (fun (i, (kind, a, b, sel)) ->
            let acting = sel / 4 and gap = sel mod 4 in
            if owners > 1 && i = half then begin
              Fruit_buffer.release all.(acting).buffer;
              all.(acting) <- spawn ()
            end;
            step all.(acting) (kind, a, b);
            !added_agrees
            && Array.for_all same_contents all
            && ((at_gaps && gap > 0) || Array.for_all same_candidates all))
          (List.mapi (fun i op -> (i, op)) ops)
        && Array.for_all same_candidates all
      in
      incr buffer_cases;
      if !crowded_case then incr buffer_cases_crowded;
      agree)

(* Runs one form and prints the share of its cases that pushed a group
   past [crowded_group] fruits; [min_share], when given, is a floor on
   that share. *)
let buffer_case ?min_share test =
  let name, speed, run = QCheck_alcotest.to_alcotest test in
  ( name,
    speed,
    fun () ->
      buffer_cases := 0;
      buffer_cases_crowded := 0;
      run ();
      Printf.printf "%d of %d cases pushed a group past %d fruits\n"
        !buffer_cases_crowded !buffer_cases crowded_group;
      Option.iter
        (fun share ->
          Alcotest.(check bool) "share of cases with a group past 64 fruits" true
            (float_of_int !buffer_cases_crowded >= share *. float_of_int !buffer_cases))
        min_share )

let buffer_differential =
  buffer_property ~name:"hang-point buffer = eager candidate set" ~at_gaps:false ()

let buffer_gap_differential =
  buffer_property ~name:"hang-point buffer = eager candidate set, asked at gaps" ~at_gaps:true ()

let buffer_crowded_differential =
  buffer_property ~crowded:true
    ~name:"hang-point buffer = eager candidate set, crowded groups" ~at_gaps:true ()

let buffer_owners_differential =
  buffer_property ~owners:3
    ~name:"hang-point buffers of three owners = eager candidate sets" ~at_gaps:true ()

(* ------------------------------------------------------------------ *)
(* Reference window view: the persistent-map views (a map of the       *)
(* window's hang points, a map of its recorded fruits and a FIFO of    *)
(* its blocks, each view derived from its parent's), verbatim.         *)

module Ref_view = struct
  open Fruitchain_chain
  module Hash = Fruitchain_crypto.Hash

  module Hmap = Map.Make (struct
    type t = Hash.t

    let compare = Hash.compare
  end)

  (* Persistent FIFO of the blocks currently inside the window, oldest first:
     (block reference, its fruits' references). *)
  module Span = struct
    type elt = Hash.t * Hash.t list
    type t = { front : elt list; back : elt list; length : int }

    let empty = { front = []; back = []; length = 0 }
    let push t elt = { t with back = elt :: t.back; length = t.length + 1 }

    let pop t =
      match t.front with
      | x :: front -> (x, { t with front; length = t.length - 1 })
      | [] -> (
          match List.rev t.back with
          | [] -> invalid_arg "Window_view.Span.pop: empty"
          | x :: front -> (x, { front; back = []; length = t.length - 1 }))

    let length t = t.length

    let fold t ~init ~f = List.fold_left f (List.fold_left f init t.front) t.back

    (* The newest [k] elements: the first of [back] (newest first), then, if
       [back] runs out, the last of [front] (oldest first). *)
    let fold_newest t k ~init ~f =
      let rec take acc k = function
        | x :: rest when k > 0 -> take (f acc x) (k - 1) rest
        | _ -> (acc, k)
      in
      let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l in
      let acc, left = take init k t.back in
      if left <= 0 then acc
      else
        let front_length = t.length - (k - left) in
        fst (take acc left (drop (front_length - left) t.front))
  end

  (* How far back a view reaches: the last [n] blocks (the recency window), or
     the whole chain, for runs without the recency rule, whose F′ must know
     every fruit the chain records. *)
  type reach = Last of int | Whole_chain

  type t = {
    head : Hash.t;
    height : int;
    hangs : int Hmap.t;
    included : int Hmap.t;
    span : Span.t;
    expired : Span.elt option; (* block that left the window when this view was made *)
  }

  let genesis =
    let h = Types.genesis.b_hash in
    {
      head = h;
      height = 0;
      hangs = Hmap.singleton h 0;
      included = Hmap.empty;
      span = Span.push Span.empty (h, []);
      expired = None;
    }

  let extend_to reach view (block : Types.block) =
    if not (Hash.equal block.b_header.parent view.head) then
      invalid_arg "Window_view.extend: block does not extend the view's head";
    let height = view.height + 1 in
    let fruit_hashes = List.map (fun (f : Types.fruit) -> f.f_hash) block.fruits in
    let hangs = Hmap.add block.b_hash height view.hangs in
    let included =
      List.fold_left (fun acc fh -> Hmap.add fh height acc) view.included fruit_hashes
    in
    let span = Span.push view.span (block.b_hash, fruit_hashes) in
    (* Expire the block that fell below the window, if any. A fruit entry is
       only removed when its recorded height is the expiring one — a later
       duplicate inclusion (possible for adversarial chains) keeps the newer
       entry alive. *)
    let hangs, included, span, expired =
      match reach with
      | Last window when Span.length span > window && height - window >= 0 ->
          let expired_height = height - window in
          let ((old_hash, old_fruits) as old), span = Span.pop span in
          let hangs =
            match Hmap.find_opt old_hash hangs with
            | Some h when Int.equal h expired_height -> Hmap.remove old_hash hangs
            | _ -> hangs
          in
          let included =
            List.fold_left
              (fun acc fh ->
                match Hmap.find_opt fh acc with
                | Some h when Int.equal h expired_height -> Hmap.remove fh acc
                | _ -> acc)
              included old_fruits
          in
          (hangs, included, span, Some old)
      | Last _ | Whole_chain -> (hangs, included, span, None)
    in
    { head = block.b_hash; height; hangs; included; span; expired }

  let extend ~window = extend_to (Last window)

  let of_chain ~window ~store ~head =
    let blocks = Store.last_n store ~head (window + 1) in
    match blocks with
    | [] -> genesis
    | oldest :: _ ->
        let base_height = Store.height store oldest.Types.b_hash in
        let start =
          {
            head = oldest.Types.b_hash;
            height = base_height;
            hangs = Hmap.singleton oldest.Types.b_hash base_height;
            included =
              List.fold_left
                (fun acc (f : Types.fruit) -> Hmap.add f.f_hash base_height acc)
                Hmap.empty oldest.Types.fruits;
            span =
              Span.push Span.empty
                (oldest.Types.b_hash, List.map (fun (f : Types.fruit) -> f.f_hash) oldest.Types.fruits);
            expired = None;
          }
        in
        List.fold_left (fun view b -> extend ~window view b) start (List.tl blocks)

  let fold_window view ~init ~f = Span.fold view.span ~init ~f:(fun acc (h, _) -> f acc h)
  let fold_newest view k ~init ~f = Span.fold_newest view.span k ~init ~f:(fun acc (h, _) -> f acc h)
  let is_recent view ~pointer = Hmap.mem pointer view.hangs
  let is_included view ~fruit = Hmap.mem fruit view.included

  let stale_pointer ~store view ~pointer =
    (* A pointer is stale when the block it names sits strictly below the
       current window — heights only grow, so it can never be in-window
       again. *)
    (not (is_recent view ~pointer))
    && Store.mem store pointer
    && Store.height store pointer < view.height - (Span.length view.span - 1)

  module Cache = struct
    type view = t
    type nonrec t = { reach : reach; store : Store.t; views : view Hash.Tbl.t }

    let make reach ~store =
      let views = Hash.Tbl.create 1024 in
      Hash.Tbl.replace views Types.genesis.b_hash genesis;
      { reach; store; views }

    let create ~window ~store = make (Last window) ~store
    let whole_chain ~store = make Whole_chain ~store

    let view t ~head =
      match Hash.Tbl.find_opt t.views head with
      | Some v -> v
      | None ->
          (* Walk up to the nearest cached ancestor. A windowed cache gives up
             after [window] steps and rebuilds (deep reorg or cold cache); a
             whole-chain cache always reaches one, genesis at the latest. *)
          let rec ancestors acc h depth =
            match (Hash.Tbl.find_opt t.views h, t.reach) with
            | Some v, _ -> `Extend (v, acc)
            | None, Last window when depth > window -> `Rebuild window
            | None, (Last _ | Whole_chain) ->
                let block = Store.find_exn t.store h in
                if Hash.equal h Types.genesis.b_hash then `Extend (genesis, acc)
                else ancestors (block :: acc) block.Types.b_header.parent (depth + 1)
          in
          let v =
            match ancestors [] head 0 with
            | `Extend (base, blocks) ->
                List.fold_left
                  (fun view b ->
                    let view = extend_to t.reach view b in
                    Hash.Tbl.replace t.views view.head view;
                    view)
                  base blocks
            | `Rebuild window -> of_chain ~window ~store:t.store ~head
          in
          Hash.Tbl.replace t.views head v;
          v
  end

  let head t = t.head
  let height t = t.height
  let expired t = t.expired
end

(* Views of random block trees, read through both implementations. Each
   case draws a window and grows a tree: most blocks extend the newest
   block, some hang from a random one (forks, and, once a branch off an
   old block grows, reorgs deeper than the window). A block records 0 to
   4 fruits drawn from a small pool, so one chain often records a fruit
   twice. Between blocks, random heads are compared: their height, their
   expired block, the blocks of [fold_window] and of [fold_newest k],
   [is_recent] for every block, [is_included] for every fruit and
   [stale_pointer] for every block, each also for a hash no block or
   fruit has. The caches live through the case, so views made
   early are compared again after other views have extended and forked
   their vectors. At the end every stored head is compared, in store
   order in the case's caches and newest first in fresh ones, which
   rebuilds wherever the window allows. Each case runs a windowed and a
   whole-chain cache. *)
let view_differential =
  QCheck.Test.make ~name:"window view = map-based reference view (random trees)" ~count:200
    QCheck.(
      pair (int_range 1 5)
        (list_of_size Gen.(int_range 1 100) (triple (int_bound 9) small_nat small_nat)))
    (fun (window, ops) ->
      let store = Store.create () in
      let counter = ref 0 in
      let fresh tag =
        incr counter;
        Hash.of_raw (Sha256.digest (Printf.sprintf "view-%s%d" tag !counter))
      in
      let unknown = fresh "unknown" in
      let blocks = ref [| Types.genesis |] and pool = ref [||] in
      let new_fruit () =
        let header =
          { Types.parent = Types.genesis.b_hash; pointer = Types.genesis.b_hash; nonce = 0L;
            digest = Hash.zero; record = "" }
        in
        pool := Array.append !pool [| { Types.f_header = header; f_hash = fresh "f"; f_prov = None } |]
      in
      List.iter (fun _ -> new_fruit ()) [ 1; 2; 3 ];
      let pick arr i = arr.(i mod Array.length arr) in
      let new_block ~parent sel =
        let fruits =
          List.sort_uniq
            (fun (a : Types.fruit) b -> Hash.compare a.f_hash b.f_hash)
            (List.filteri
               (fun i _ -> i < sel mod 5)
               [ pick !pool sel; pick !pool (sel / 5); pick !pool (sel / 25); pick !pool (sel / 125) ])
        in
        let header =
          { Types.parent; pointer = parent; nonce = 0L; digest = Hash.zero; record = "" }
        in
        let b = { Types.b_header = header; b_hash = fresh "b"; fruits; b_prov = None } in
        Store.add store b;
        blocks := Array.append !blocks [| b |]
      in
      let sorted_fold fold = List.sort Hash.compare (fold ~init:[] ~f:(fun acc h -> h :: acc)) in
      let agree ~recency view reference k =
        let pointers = unknown :: Array.to_list (Array.map (fun (b : Types.block) -> b.b_hash) !blocks) in
        let fruits = unknown :: Array.to_list (Array.map (fun (f : Types.fruit) -> f.f_hash) !pool) in
        Hash.equal (Window_view.head view) (Ref_view.head reference)
        && Int.equal (Window_view.height view) (Ref_view.height reference)
        && Bool.equal (Window_view.enforces_recency view) recency
        && Option.equal Hash.equal (Window_view.expired view) (Option.map fst (Ref_view.expired reference))
        && List.equal Hash.equal
             (sorted_fold (Window_view.fold_window view))
             (sorted_fold (Ref_view.fold_window reference))
        && List.equal Hash.equal
             (sorted_fold (Window_view.fold_newest view k))
             (sorted_fold (Ref_view.fold_newest reference k))
        && List.for_all
             (fun pointer ->
               Bool.equal (Window_view.is_recent view ~pointer) (Ref_view.is_recent reference ~pointer)
               && Bool.equal
                    (Window_view.stale_pointer ~store view ~pointer)
                    (Ref_view.stale_pointer ~store reference ~pointer))
             pointers
        && List.for_all
             (fun fruit ->
               Bool.equal (Window_view.is_included view ~fruit) (Ref_view.is_included reference ~fruit))
             fruits
      in
      (* A windowed and a whole-chain pair of caches, compared at [head]. *)
      let caches () =
        [
          (true, Window_view.Cache.create ~window ~store, Ref_view.Cache.create ~window ~store);
          (false, Window_view.Cache.whole_chain ~store, Ref_view.Cache.whole_chain ~store);
        ]
      in
      let compare_at caches ~head k =
        List.for_all
          (fun (recency, cache, ref_cache) ->
            agree ~recency (Window_view.Cache.view cache ~head) (Ref_view.Cache.view ref_cache ~head) k)
          caches
      in
      let live = caches () in
      let newest () = !blocks.(Array.length !blocks - 1) in
      let step (kind, a, b) =
        match kind with
        | 0 | 1 | 2 | 3 ->
            new_block ~parent:(newest ()).b_hash a;
            true
        | 4 ->
            new_block ~parent:(pick !blocks a).b_hash b;
            true
        | 5 ->
            new_fruit ();
            true
        | 9 -> compare_at live ~head:(newest ()).b_hash b
        | _ -> compare_at live ~head:(pick !blocks a).b_hash b
      in
      List.for_all step ops
      &&
      let heads = Array.to_list (Array.map (fun (b : Types.block) -> b.b_hash) !blocks) in
      let k = List.length ops mod (window + 3) in
      List.for_all (fun head -> compare_at live ~head k) heads
      &&
      let fresh_caches = caches () in
      List.for_all (fun head -> compare_at fresh_caches ~head k) (List.rev heads))

(* --- Mining step -------------------------------------------------------- *)

module Validate = Fruitchain_chain.Validate
module Mine = Fruitchain_chain.Mine

(* The coalition's query-then-build step as it stood before every miner
   shared [Mine.mine]: [Common.mine_once] and its [finish], verbatim except
   that the shared store add and the trace events are dropped, the strategy
   context becomes explicit arguments, and the backend test it read from
   the oracle (a sampler, of any kind) is passed in as [is_sim]. *)
module Ref_mine = struct
  type mined = { fruit : Types.fruit option; block : Types.block option }

  let nothing = { fruit = None; block = None }

  let finish ~miner ~round ~parent ~pointer ~nonce ~digest ~record ~fruits ~hash ~won_fruit
      ~won_block =
    let header = { Types.parent; pointer; nonce; digest; record } in
    let prov = Some { Types.miner; round; honest = false } in
    let fruit =
      if won_fruit then begin
        let f = { Types.f_header = header; f_hash = hash; f_prov = prov } in
        Some f
      end
      else None
    in
    let block =
      if won_block then begin
        let b = { Types.b_header = header; b_hash = hash; fruits; b_prov = prov } in
        Some b
      end
      else None
    in
    { fruit; block }

  let mine_once oracle rng ~is_sim ~miner ~round ~parent ~pointer ~fruits ~record =
    if is_sim then begin
      Rng.draw rng;
      let mask = Oracle.attempt oracle "" in
      if Int.equal mask 0 then nothing
      else begin
        let nonce = Rng.last_bits64 rng in
        let hash = Oracle.attempt_hash oracle in
        let won_fruit = Oracle.attempt_won_fruit mask in
        let won_block = Oracle.attempt_won_block mask in
        let fruits, digest =
          if won_block then begin
            let fruits = fruits () in
            (fruits, Validate.fruit_set_digest fruits)
          end
          else ([], Merkle.empty_root)
        in
        finish ~miner ~round ~parent ~pointer ~nonce ~digest ~record ~fruits ~hash ~won_fruit
          ~won_block
      end
    end
    else begin
      let nonce = Rng.bits64 rng in
      let fruits = fruits () in
      let digest = Validate.fruit_set_digest fruits in
      let header = { Types.parent; pointer; nonce; digest; record } in
      let hash = Oracle.query oracle (Codec.header_bytes header) in
      let won_fruit = Oracle.mined_fruit oracle hash in
      let won_block = Oracle.mined_block oracle hash in
      if not (won_fruit || won_block) then nothing
      else
        finish ~miner ~round ~parent ~pointer ~nonce ~digest ~record ~fruits ~hash ~won_fruit
          ~won_block
    end
end

type mining_case = {
  seed : int;
  real : bool; (* SHA-256 backend, else the memo-less sampler *)
  mp : float;
  mpf : float;
  candidates : Types.fruit list;
  parent : Hash.t;
  pointer : Hash.t;
  record : string;
  miner : int;
}

let gen_mining_case =
  let open QCheck.Gen in
  let hash = string_size ~gen:char (return 32) >|= Hash.of_raw in
  let prob = oneof [ float_range 0.0 1.0; oneofl (Array.to_list interesting_probs) ] in
  small_nat >>= fun seed ->
  bool >>= fun real ->
  prob >>= fun mp ->
  prob >>= fun mpf ->
  list_size (int_range 0 20) gen_fruit >>= fun candidates ->
  hash >>= fun parent ->
  hash >>= fun pointer ->
  string_size ~gen:char (int_range 0 40) >>= fun record ->
  int_range (-1) 50 >|= fun miner ->
  { seed; real; mp; mpf; candidates; parent; pointer; record; miner }

let print_mining_case c =
  Printf.sprintf "seed=%d real=%b p=%g pf=%g fruits=%d miner=%d record=%S" c.seed c.real c.mp
    c.mpf (List.length c.candidates) c.miner c.record

let same_prov =
  Option.equal (fun (a : Types.provenance) (b : Types.provenance) ->
      Int.equal a.miner b.miner && Int.equal a.round b.round && Bool.equal a.honest b.honest)

let same_fruit (a : Types.fruit) (b : Types.fruit) =
  String.equal (Codec.header_bytes a.f_header) (Codec.header_bytes b.f_header)
  && Hash.equal a.f_hash b.f_hash && same_prov a.f_prov b.f_prov

let same_block (a : Types.block) (b : Types.block) =
  String.equal (Codec.header_bytes a.b_header) (Codec.header_bytes b.b_header)
  && Hash.equal a.b_hash b.b_hash
  && List.equal same_fruit a.fruits b.fruits
  && same_prov a.b_prov b.b_prov

(* Over the memo-less sampler and the SHA-256 backend, the shared step
   must reproduce the old coalition step object for object, counter for
   counter and draw for draw. The memoizing sampler is left out on
   purpose: the old step took its deferred path there, so its lone fruits
   committed to the empty set, while [Mine] must commit d(F′) before a
   query the memo records. *)
let mining_differential =
  QCheck.Test.make ~name:"Mine.mine = reference coalition step (same seeds)" ~count:150
    (QCheck.make ~print:print_mining_case gen_mining_case)
    (fun c ->
      let make_oracle () =
        let rng = Rng.of_seed (Int64.of_int ((2 * c.seed) + 1)) in
        let oracle =
          if c.real then Oracle.real ~p:c.mp ~pf:c.mpf else Oracle.sim ~p:c.mp ~pf:c.mpf rng
        in
        (oracle, rng)
      in
      let ref_oracle, ref_oracle_rng = make_oracle () in
      let oracle, oracle_rng = make_oracle () in
      let ref_rng = Rng.of_seed (Int64.of_int (2 * c.seed)) in
      let rng = Rng.of_seed (Int64.of_int (2 * c.seed)) in
      let fruits () = c.candidates in
      for round = 0 to 59 do
        let expect =
          Ref_mine.mine_once ref_oracle ref_rng ~is_sim:(not c.real) ~miner:c.miner ~round
            ~parent:c.parent ~pointer:c.pointer ~fruits ~record:c.record
        in
        let got =
          Mine.mine oracle rng ~miner:c.miner ~round ~honest:false ~parent:c.parent
            ~pointer:c.pointer ~fruits ~record:c.record
        in
        if not (Option.equal same_fruit expect.Ref_mine.fruit got.Mine.fruit) then
          Alcotest.failf "round %d: fruits differ" round;
        if not (Option.equal same_block expect.Ref_mine.block got.Mine.block) then
          Alcotest.failf "round %d: blocks differ" round
      done;
      Alcotest.(check int) "queries" (Oracle.queries ref_oracle) (Oracle.queries oracle);
      Alcotest.(check int) "block wins" (Oracle.block_wins ref_oracle) (Oracle.block_wins oracle);
      Alcotest.(check int) "fruit wins" (Oracle.fruit_wins ref_oracle) (Oracle.fruit_wins oracle);
      Alcotest.(check int64) "miner's next draw" (Rng.bits64 ref_rng) (Rng.bits64 rng);
      Alcotest.(check int64) "oracle's next draw" (Rng.bits64 ref_oracle_rng)
        (Rng.bits64 oracle_rng);
      true)

(* --- Lifecycle spans ----------------------------------------------------- *)

module Scope = Fruitchain_obs.Scope
module Tracer = Fruitchain_obs.Tracer
module Json = Fruitchain_obs.Json
module Config = Fruitchain_sim.Config
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params

(* The span tracker keyed by the rendered 16-hex-char id, one table per
   entity kind. Reorg spans, which take no id, are left out. *)
module Ref_span = struct
  module Scope = Fruitchain_obs.Scope

  type record = {
    kind : [ `Fruit | `Block ];
    id : string;
    mined : int;
    mutable height : int;
    mutable gossiped : int;
    mutable referenced : int;
    mutable stable : int;
    mutable first_seen : int;
    mutable last_seen : int;
    mutable deliveries : int;
    mutable adopted : int;
  }

  type t = {
    scope : Scope.t;
    fruits : (string, record) Hashtbl.t;
    blocks : (string, record) Hashtbl.t;
    mutable rev_order : record list;
    mutable reorg_seq : int;
  }

  let create ~scope () =
    {
      scope;
      fruits = Hashtbl.create 256;
      blocks = Hashtbl.create 256;
      rev_order = [];
      reorg_seq = 0;
    }

  let table t = function `Fruit -> t.fruits | `Block -> t.blocks

  let entity_name = function `Fruit -> "fruit" | `Block -> "block"

  let open_span t kind ~id ~round ~miner ~honest ~height =
    match Hashtbl.find_opt (table t kind) id with
    | Some r -> r
    | None ->
        let r =
          {
            kind;
            id;
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
        Hashtbl.replace (table t kind) id r;
        t.rev_order <- r :: t.rev_order;
        let base =
          [
            ("entity", Json.Str (entity_name kind));
            ("id", Json.Str id);
            ("round", Json.Int round);
            ("miner", Json.Int miner);
            ("honest", Json.Bool honest);
          ]
        in
        let fields =
          match kind with `Fruit -> base | `Block -> base @ [ ("height", Json.Int height) ]
        in
        Scope.emit t.scope "span.open" fields;
        r

  let fruit t ~id ~round ~miner ~honest =
    ignore (open_span t `Fruit ~id ~round ~miner ~honest ~height:(-1))

  let block t ~id ~round ~miner ~honest ~height =
    ignore (open_span t `Block ~id ~round ~miner ~honest ~height)

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
end

(* The trace's mint, delivery and close hooks with per-delivery span marking:
   the id rendered from the full hex digest at every hook, and every
   sighting of a block re-opening and re-marking all its fruits. The metric
   harvest is left out: the property's scopes carry no registry. *)
module Ref_observe = struct
  open Fruitchain_chain
  module Span = Ref_span

  type t = {
    scope : Scope.t;
    config : Config.t;
    store : Store.t;
    trace : Trace.t;
    spans : Span.t option;
  }

  let int key v = (key, Json.Int v)

  let create ~scope ~config ~store =
    {
      scope;
      config;
      store;
      trace = Trace.create ~scope ~config ~store ();
      spans = (if Scope.tracing scope then Some (Span.create ~scope ()) else None);
    }

  let short h = String.sub (Hash.to_hex h) 0 16

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

  let record_mint t kind hash = function
    | Some (pr : Types.provenance) ->
        Trace.record_event t.trace
          {
            Trace.round = pr.Types.round;
            miner = pr.Types.miner;
            honest = pr.Types.honest;
            kind;
            hash;
          }
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

  let close_spans t span =
    (match Trace.honest_parties t.trace with
    | [] -> ()
    | _ :: _ ->
        let kappa = Params.pointer_depth t.config.Config.params in
        let chain = Array.of_list (Trace.honest_final_chain t.trace) in
        Array.iteri
          (fun h (b : Types.block) ->
            Span.block_height span ~id:(short b.Types.b_hash) ~height:h;
            if not (List.is_empty b.Types.fruits) then begin
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

  let finish t ~oracle =
    if Scope.enabled t.scope then begin
      let final_height =
        match Trace.honest_parties t.trace with
        | [] -> -1
        | i :: _ -> Store.height t.store (Trace.final_head_of t.trace ~party:i)
      in
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
end

(* Trace and Ref_observe, each on its own buffering tracer, take the same
   random hook sequence over one store, and every line they emit must be
   equal. Fruits and blocks are minted at the current round, with or
   without provenance; some blocks take the digest of a buffered fruit, as
   when one query wins both difficulties; blocks carry fruits other blocks
   carry too. Announcements may carry several blocks or be relays, and
   deliveries come in any order, repeat, and release withheld blocks whose
   mint round is earlier than that of a block seen before. Both planes'
   hooks mix freely. The final honest chain decides heights, reference
   rounds and stability at close. Each operation is three small ints
   interpreted modulo the current state, so failing sequences shrink. *)
let span_differential =
  QCheck.Test.make ~name:"first-sighting span marks = per-delivery marks" ~count:300
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 1 120) (triple (int_bound 9) small_nat small_nat)))
    (fun (kappa, ops) ->
      let n = 4 in
      let config =
        Config.make ~n ~rounds:1_000
          ~params:(Params.make ~p:0.01 ~pf:0.1 ~kappa ())
          ()
      in
      let store = Store.create () in
      let tracer = Tracer.buffer () and ref_tracer = Tracer.buffer () in
      let observe = Trace.create ~scope:(Scope.make ~tracer ()) ~config ~store () in
      let reference = Ref_observe.create ~scope:(Scope.make ~tracer:ref_tracer ()) ~config ~store in
      let now = ref 0 and counter = ref 0 in
      let fresh () =
        incr counter;
        Hash.of_raw (Sha256.digest (Printf.sprintf "span-%d" !counter))
      in
      let prov a b =
        if a mod 7 = 0 then None
        else Some { Types.miner = a mod n; round = !now; honest = b mod 4 <> 0 }
      in
      let header ~parent =
        { Types.parent; pointer = parent; nonce = 0L; digest = Hash.zero; record = "" }
      in
      let fruits = ref [||] and blocks = ref [| Types.genesis |] in
      let pick arr i = arr.(i mod Array.length arr) in
      let taken = Hashtbl.create 16 in
      let new_block a b =
        let parent = pick !blocks a in
        let carried =
          if Array.length !fruits = 0 then []
          else
            List.sort_uniq
              (fun (x : Types.fruit) y -> Hash.compare x.f_hash y.f_hash)
              (List.filteri
                 (fun i _ -> i < b mod 4)
                 [ pick !fruits b; pick !fruits (b / 3); pick !fruits (b / 7) ])
        in
        (* Every fifth block takes the digest of the newest fruit, unless a
           block already has, as when one query wins both difficulties. *)
        let b_hash =
          match Array.length !fruits with
          | 0 -> fresh ()
          | k ->
              let newest = !fruits.(k - 1) in
              if b mod 5 = 0 && not (Hashtbl.mem taken newest.Types.f_hash) then newest.f_hash
              else fresh ()
        in
        Hashtbl.replace taken b_hash ();
        let blk =
          {
            Types.b_header = header ~parent:parent.Types.b_hash;
            b_hash;
            fruits = carried;
            b_prov = prov a b;
          }
        in
        (* A block outside the store opens with an unknown height. *)
        if a mod 6 <> 0 && Store.mem store parent.Types.b_hash then Store.add store blk;
        blocks := Array.append !blocks [| blk |];
        blk
      in
      let announce blks ~relay =
        match blks with
        | [] -> []
        | (last : Types.block) :: _ ->
            [
              Message.chain_announce ~sender:0 ~sent_at:!now ~relay ~blocks:(List.rev blks)
                ~head:last.b_hash ();
            ]
      in
      let both_minted ~miner msgs =
        Trace.minted observe ~round:!now ~miner msgs;
        Ref_observe.minted reference ~round:!now ~miner msgs
      in
      let both_incoming msgs =
        Trace.incoming observe ~round:!now msgs;
        Ref_observe.incoming reference ~round:!now msgs
      in
      let step (kind, a, b) =
        match kind with
        | 0 ->
            (* A fruit, mined on the sparse plane, announced, or only ever
               carried by blocks. *)
            let f =
              {
                Types.f_header = header ~parent:(pick !blocks a).b_hash;
                f_hash = fresh ();
                f_prov = prov a b;
              }
            in
            fruits := Array.append !fruits [| f |];
            if b mod 3 = 0 then begin
              Trace.fruit_mined observe f;
              Ref_observe.fruit_mined reference f
            end
            else if b mod 3 = 1 then
              both_minted ~miner:(a mod n)
                [ Message.fruit_announce ~sender:(a mod n) ~sent_at:!now f ]
        | 1 ->
            (* A mint, announced at once or withheld for a later release. *)
            let blk = new_block a b in
            if b mod 2 = 0 then both_minted ~miner:(a mod n) (announce [ blk ] ~relay:false)
        | 2 ->
            let blk = new_block a b in
            Trace.block_mined observe ~sibling:(a mod 3 = 0) blk;
            Ref_observe.block_mined reference ~sibling:(a mod 3 = 0) blk
        | 3 | 4 ->
            (* A delivery of one to three blocks minted at any time. *)
            both_incoming
              (announce
                 (List.filteri
                    (fun i _ -> i <= b mod 3)
                    [ pick !blocks a; pick !blocks (a / 2); pick !blocks (a + b) ])
                 ~relay:(b mod 4 = 0))
        | 5 ->
            if Array.length !fruits > 0 then
              both_incoming
                [ Message.fruit_announce ~sender:(b mod n) ~sent_at:!now (pick !fruits a) ]
        | 6 ->
            (* A release of several blocks, or a relay of them. *)
            both_minted ~miner:(a mod n)
              (announce
                 [ pick !blocks a; pick !blocks b; pick !blocks (a * b) ]
                 ~relay:(a mod 3 = 0))
        | 7 ->
            if Array.length !fruits > 0 then begin
              let f = pick !fruits a in
              Trace.fruit_mined observe f;
              Ref_observe.fruit_mined reference f
            end
        | _ -> now := !now + 1 + (a mod 5)
      in
      List.iter step ops;
      (* The final head: the highest stored block. *)
      let head =
        Array.fold_left
          (fun best (blk : Types.block) ->
            if Store.mem store blk.b_hash && Store.height store blk.b_hash > Store.height store best
            then blk.b_hash
            else best)
          Types.genesis.b_hash !blocks
      in
      Trace.set_final_heads reference.Ref_observe.trace (Array.make n head);
      let oracle = Oracle.real ~p:0.01 ~pf:0.1 in
      let head_id = Store.find_id store head in
      Trace.finish observe (fun _ -> head_id) ~network:(Network.create ~n ~delta:2 ()) ~oracle
        ~extra:[];
      Ref_observe.finish reference ~oracle;
      List.equal String.equal (Tracer.lines ref_tracer) (Tracer.lines tracer))

(* ------------------------------------------------------------------ *)
(* Reference renderer: the printing half of Json before the fast paths
   (a closure per escaped character, [string_of_int], [List.iteri]).    *)

module Ref_json = struct
  open Json

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let float_repr f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            write b item)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            write b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    write b v;
    Buffer.contents b
end

(* Random trees whose strings draw every byte, weighted toward the ones
   the renderer treats specially: '"', '\\', control bytes, 0x7f and the
   bytes of multi-byte UTF-8; ints and floats weighted toward their edges
   (min_int, max_int, 0, nan, infinities, the 1e15 switch of format). *)
let gen_json_string =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, map (String.make 1) (map Char.chr (int_range 0 255)));
        (2, map (String.make 1) (oneofl [ '"'; '\\'; '\x7f'; '/' ]));
        (2, map (String.make 1) (map Char.chr (int_range 0 0x1f)));
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\xc3"; "\xa9" ]);
        (4, string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
      ]
  in
  map (String.concat "") (list_size (int_range 0 8) piece)

let gen_json_int =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ min_int; max_int; 0; -1; min_int + 1; max_int - 1; 9; 10; -10 ]);
        (3, int);
        (3, int_range (-1000) 1000);
      ])

let gen_json_float =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e15; -1e15;
              1e15 -. 1.0; 1e15 +. 2.0; 999_999_999_999_999.0; 0.1; 1e-7; 123456.5;
            ] );
        (2, float);
        (2, map float_of_int (int_range (-100_000) 100_000));
      ])

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self size ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) gen_json_int;
               map (fun f -> Json.Float f) gen_json_float;
               map (fun s -> Json.Str s) gen_json_string;
             ]
         in
         if size <= 1 then leaf
         else
           let sub = self (size / 3) in
           frequency
             [
               (3, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) sub));
               ( 2,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 5) (pair gen_json_string sub)) );
             ])

(* [to_string], and [write] into a buffer that already holds bytes, equal
   the reference rendering. *)
let json_differential =
  QCheck.Test.make ~name:"Json.to_string and Json.write = reference renderer" ~count:1000
    (QCheck.make ~print:Ref_json.to_string gen_json)
    (fun v ->
      let expected = Ref_json.to_string v in
      let b = Buffer.create 4 in
      Buffer.add_string b "prefix,";
      Json.write b v;
      String.equal (Json.to_string v) expected
      && String.equal (Buffer.contents b) ("prefix," ^ expected))

let () =
  Alcotest.run "differential"
    [
      ( "crypto",
        [
          QCheck_alcotest.to_alcotest sha256_differential;
          QCheck_alcotest.to_alcotest merkle_differential;
          QCheck_alcotest.to_alcotest codec_differential;
        ] );
      ( "store",
        [ QCheck_alcotest.to_alcotest store_differential ] );
      ( "buffer",
        [
          buffer_case buffer_differential;
          buffer_case buffer_gap_differential;
          buffer_case ~min_share:0.5 buffer_crowded_differential;
          buffer_case buffer_owners_differential;
        ] );
      ( "views",
        [ QCheck_alcotest.to_alcotest view_differential ] );
      ( "spans",
        [ QCheck_alcotest.to_alcotest span_differential ] );
      ( "mining",
        [ QCheck_alcotest.to_alcotest mining_differential ] );
      ( "json",
        [ QCheck_alcotest.to_alcotest json_differential ] );
      ( "rng",
        [
          QCheck_alcotest.to_alcotest rng_differential;
          Alcotest.test_case "known answers (reference C)" `Quick rng_known_answers;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest oracle_differential;
          QCheck_alcotest.to_alcotest oracle_query_is_attempt;
          QCheck_alcotest.to_alcotest oracle_sample_win;
        ] );
      ( "network",
        [
          QCheck_alcotest.to_alcotest network_differential;
          QCheck_alcotest.to_alcotest network_differential_skips;
          QCheck_alcotest.to_alcotest network_differential_overflow;
        ] );
    ]
