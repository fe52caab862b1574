(* Tests for Fruitchain_util: rng, sampling, stats, hex, table. *)

module Rng = Fruitchain_util.Rng
module Sampling = Fruitchain_util.Sampling
module Stats = Fruitchain_util.Stats
module Hex = Fruitchain_util.Hex
module Table = Fruitchain_util.Table
module Alias = Fruitchain_util.Alias

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_seed 42L and b = Rng.of_seed 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.of_seed 1L and b = Rng.of_seed 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_rng_split_independent () =
  let g = Rng.of_seed 7L in
  let child = Rng.split g in
  let xs = List.init 32 (fun _ -> Rng.bits64 g) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* The slots are read and written through unchecked 64-bit intrinsics, so
   every slot index and draw count outside the six slots must be refused
   before any access, and leave the generator as it was. *)
let test_rng_slot_bounds () =
  let g = Rng.of_seed 9L and twin = Rng.of_seed 9L in
  let refused name f =
    Alcotest.(check bool) name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  refused "draws 7" (fun () -> Rng.draws g 7);
  refused "draws -1" (fun () -> Rng.draws g (-1));
  refused "draw_to 6" (fun () -> Rng.draw_to g 6);
  refused "draw_to -1" (fun () -> Rng.draw_to g (-1));
  refused "slot_bits64 6" (fun () -> ignore (Rng.slot_bits64 g 6 : int64));
  refused "slot_below -1" (fun () -> ignore (Rng.slot_below g (-1) 0.5 : bool));
  Rng.draws g 0;
  Alcotest.(check int64) "refused calls and draws 0 draw nothing" (Rng.bits64 twin) (Rng.bits64 g)

let test_rng_float_range () =
  let g = Rng.of_seed 3L in
  for _ = 1 to 10_000 do
    let x = Rng.float g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_float_mean () =
  let g = Rng.of_seed 4L in
  let s = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add s (Rng.float g)
  done;
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (Stats.mean s -. 0.5) < 0.01)

let test_rng_int_bounds () =
  let g = Rng.of_seed 5L in
  for _ = 1 to 10_000 do
    let x = Rng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0))

let test_rng_int_uniform () =
  let g = Rng.of_seed 6L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int g 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "each bucket near n/10" true
        (Float.abs (float_of_int c -. 10_000.0) < 500.0))
    counts

let test_bernoulli_extremes () =
  let g = Rng.of_seed 8L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli g 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli g 1.0);
  Alcotest.(check bool) "p<0 never" false (Rng.bernoulli g (-0.5));
  Alcotest.(check bool) "p>1 always" true (Rng.bernoulli g 1.5)

let test_bernoulli_rate () =
  let g = Rng.of_seed 10L in
  let hits = ref 0 in
  let n = 200_000 in
  for _ = 1 to n do
    if Rng.bernoulli g 0.05 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.05" true (Float.abs (rate -. 0.05) < 0.003)

(* --- Sampling -------------------------------------------------------- *)

let test_geometric_mean () =
  let g = Rng.of_seed 11L in
  let s = Stats.create () in
  let p = 0.2 in
  for _ = 1 to 50_000 do
    Stats.add s (float_of_int (Sampling.geometric g p))
  done;
  (* mean of failures-before-success = (1-p)/p = 4 *)
  Alcotest.(check bool) "mean near 4" true (Float.abs (Stats.mean s -. 4.0) < 0.15)

let test_geometric_p1 () =
  let g = Rng.of_seed 12L in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is 0" 0 (Sampling.geometric g 1.0)
  done

let test_geometric_invalid () =
  let g = Rng.of_seed 13L in
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Sampling.geometric: need 0 < p <= 1") (fun () ->
      ignore (Sampling.geometric g 0.0))

let test_binomial_edges () =
  let g = Rng.of_seed 14L in
  Alcotest.(check int) "p=0" 0 (Sampling.binomial g 100 0.0);
  Alcotest.(check int) "p=1" 100 (Sampling.binomial g 100 1.0);
  Alcotest.(check int) "n=0" 0 (Sampling.binomial g 0 0.5)

let test_binomial_mean_small () =
  let g = Rng.of_seed 15L in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (float_of_int (Sampling.binomial g 20 0.3))
  done;
  Alcotest.(check bool) "mean near 6" true (Float.abs (Stats.mean s -. 6.0) < 0.1)

let test_binomial_mean_large () =
  let g = Rng.of_seed 16L in
  let s = Stats.create () in
  for _ = 1 to 5_000 do
    Stats.add s (float_of_int (Sampling.binomial g 10_000 0.5))
  done;
  Alcotest.(check bool) "mean near 5000" true (Float.abs (Stats.mean s -. 5000.0) < 5.0)

let test_binomial_range () =
  let g = Rng.of_seed 17L in
  for _ = 1 to 1_000 do
    let x = Sampling.binomial g 50 0.5 in
    Alcotest.(check bool) "within [0,50]" true (x >= 0 && x <= 50)
  done

let test_exponential_mean () =
  let g = Rng.of_seed 20L in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Sampling.exponential g 0.5)
  done;
  Alcotest.(check bool) "mean near 2" true (Float.abs (Stats.mean s -. 2.0) < 0.05)

let test_shuffle_permutation () =
  let g = Rng.of_seed 21L in
  let a = Array.init 50 Fun.id in
  Sampling.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

(* --- Stats ----------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  check_float "mean" 2.5 (Stats.mean s);
  check_float "std" (Float.sqrt (5.0 /. 3.0)) (Stats.std s);
  check_float "min" 1.0 (Stats.min_value s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "std nan" true (Float.is_nan (Stats.std s))

let test_stats_single () =
  let s = Stats.of_list [ 5.0 ] in
  check_float "mean" 5.0 (Stats.mean s);
  Alcotest.(check bool) "std nan with one sample" true (Float.is_nan (Stats.std s))

let test_stats_merge () =
  let a = Stats.of_list [ 1.0; 2.0; 3.0 ] in
  let b = Stats.of_list [ 10.0; 20.0 ] in
  let m = Stats.merge a b in
  let direct = Stats.of_list [ 1.0; 2.0; 3.0; 10.0; 20.0 ] in
  check_float "merged mean" (Stats.mean direct) (Stats.mean m);
  Alcotest.(check (float 1e-9)) "merged std" (Stats.std direct) (Stats.std m);
  check_float "merged min" (Stats.min_value direct) (Stats.min_value m)

let test_stats_merge_empty () =
  let a = Stats.of_list [ 1.0; 2.0 ] in
  let e = Stats.create () in
  check_float "merge with empty (right)" (Stats.mean a) (Stats.mean (Stats.merge a e));
  check_float "merge with empty (left)" (Stats.mean a) (Stats.mean (Stats.merge e a))

let test_quantile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "q0 = min" 1.0 (Stats.quantile xs 0.0);
  check_float "q1 = max" 4.0 (Stats.quantile xs 1.0);
  check_float "median interpolates" 2.5 (Stats.quantile xs 0.5);
  check_float "q0.25" 1.75 (Stats.quantile xs 0.25)

let test_quantile_invalid () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Stats.quantile: empty array")
    (fun () -> ignore (Stats.quantile [||] 0.5));
  Alcotest.check_raises "q out of range" (Invalid_argument "Stats.quantile: q out of range")
    (fun () -> ignore (Stats.quantile [| 1.0 |] 1.5))

let test_cv () =
  let s = Stats.of_list [ 10.0; 10.0; 10.0 ] in
  check_float "cv of constant" 0.0 (Stats.coefficient_of_variation s)

(* --- Hex ------------------------------------------------------------- *)

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff hello" in
  Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s))

let test_hex_known () =
  Alcotest.(check string) "encode" "deadbeef" (Hex.encode "\xde\xad\xbe\xef");
  Alcotest.(check string) "decode uppercase" "\xde\xad\xbe\xef" (Hex.decode "DEADBEEF")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

(* --- Table ----------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_table_renders () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left); ("b", Table.Right) ] () in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 1 = "t");
  Alcotest.(check bool) "contains row" true (contains s "yy");
  Alcotest.(check bool) "contains header" true (contains s "| a")

let test_table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("v", Table.Right) ] () in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  Alcotest.(check string) "csv escaping"
    "name,v\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n" (Table.to_csv t)

let test_table_formats () =
  Alcotest.(check string) "fpct" "12.50%" (Table.fpct 0.125);
  Alcotest.(check string) "f2" "3.14" (Table.f2 3.14159);
  Alcotest.(check string) "int" "42" (Table.int 42)

(* --- Alias tables ----------------------------------------------------- *)

let test_alias_single () =
  let t = Alias.create [| 3.0 |] in
  let g = Rng.of_seed 5L in
  for _ = 1 to 100 do
    Alcotest.(check int) "always index 0" 0 (Alias.sample t g)
  done

let test_alias_zero_weight_excluded () =
  let t = Alias.create [| 1.0; 0.0; 1.0 |] in
  let g = Rng.of_seed 11L in
  for _ = 1 to 2000 do
    Alcotest.(check bool) "never samples a zero-weight index" true (Alias.sample t g <> 1)
  done

let test_alias_invalid () =
  let raises name msg weights =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Alias.create weights))
  in
  raises "empty" "Alias.create: empty weight vector" [||];
  raises "all zero" "Alias.create: all weights are zero" [| 0.0; 0.0 |];
  let bad = "Alias.create: weights must be finite and non-negative" in
  raises "negative" bad [| 1.0; -1.0 |];
  raises "nan" bad [| 1.0; Float.nan |];
  raises "infinite" bad [| 1.0; Float.infinity |]

let test_alias_deterministic () =
  let weights = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let a = Alias.create weights and b = Alias.create weights in
  let ga = Rng.of_seed 21L and gb = Rng.of_seed 21L in
  for _ = 1 to 500 do
    Alcotest.(check int) "same table, same stream" (Alias.sample a ga) (Alias.sample b gb)
  done

let test_alias_two_draws () =
  (* The O(1) contract: a sample consumes exactly two draws, so a sample
     followed by a raw draw matches two skipped draws followed by the same
     raw draw on a twin stream. *)
  let t = Alias.create [| 1.0; 2.0; 3.0 |] in
  let a = Rng.of_seed 33L and b = Rng.of_seed 33L in
  ignore (Alias.sample t a);
  ignore (Rng.bits64 b);
  ignore (Rng.bits64 b);
  Alcotest.(check int64) "exactly two draws per sample" (Rng.bits64 b) (Rng.bits64 a)

(* The table walk that [Alias.sample] shortcuts when every cell accepts:
   Vose's construction as [Alias.create] runs it, and a sample that reads
   the acceptance probability of its cell. *)
let walk_table weights =
  let n = Array.length weights in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let scaled = Array.map (fun w -> w /. total *. float_of_int n) weights in
  let prob = Array.make n 1.0 and alias = Array.init n Fun.id in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  Array.iteri
    (fun i x ->
      if x < 1.0 then (small.(!ns) <- i; incr ns) else (large.(!nl) <- i; incr nl))
    scaled;
  let none_small = Int.equal !ns 0 in
  while !ns > 0 && !nl > 0 do
    decr ns;
    let s = small.(!ns) and l = large.(!nl - 1) in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
    if scaled.(l) < 1.0 then (decr nl; small.(!ns) <- l; incr ns)
  done;
  while !ns > 0 do decr ns; prob.(small.(!ns)) <- 1.0 done;
  let sample rng =
    let i = Rng.int rng n in
    if Rng.float rng < prob.(i) then i else alias.(i)
  in
  (none_small, sample)

(* Same draws, same index: uniform power at n = 100 (no cell starts small,
   so [sample] never reads its table), n = 49 (every scaled weight is
   1 - 2^-53 and starts small, so the table is read) and skewed weights. *)
let test_alias_table_walk () =
  let cases =
    [
      ("uniform, n = 100", Array.make 100 1.0, true);
      ("uniform, n = 49", Array.make 49 1.0, false);
      ("skewed", Array.init 20 (fun i -> float_of_int ((i * i) + 1)), false);
    ]
  in
  List.iter
    (fun (name, weights, expect_none_small) ->
      let none_small, walk = walk_table weights in
      Alcotest.(check bool) (name ^ ": no cell starts small") expect_none_small none_small;
      let t = Alias.create weights in
      let a = Rng.of_seed 41L and b = Rng.of_seed 41L in
      for _ = 1 to 2000 do
        Alcotest.(check int) (name ^ ": index") (walk b) (Alias.sample t a)
      done;
      Alcotest.(check int64) (name ^ ": next draw") (Rng.bits64 b) (Rng.bits64 a))
    cases

(* --- binomial_pos / gini ---------------------------------------------- *)

let test_binomial_pos_edges () =
  let g = Rng.of_seed 3L in
  Alcotest.(check int) "p=1 gives n" 7 (Sampling.binomial_pos g 7 1.0);
  Alcotest.(check int) "n=1 gives 1" 1 (Sampling.binomial_pos g 1 0.3);
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Sampling.binomial_pos: need n > 0") (fun () ->
      ignore (Sampling.binomial_pos g 0 0.5));
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Sampling.binomial_pos: need p > 0") (fun () ->
      ignore (Sampling.binomial_pos g 5 0.0))

let test_binomial_pos_mean () =
  (* E[Bin(n,p) | >= 1] = n*p / (1 - (1-p)^n). *)
  let g = Rng.of_seed 17L in
  let n = 50 and p = 0.02 and trials = 20_000 in
  let total = ref 0 in
  for _ = 1 to trials do
    let x = Sampling.binomial_pos g n p in
    Alcotest.(check bool) "in [1, n]" true (x >= 1 && x <= n);
    total := !total + x
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expected =
    float_of_int n *. p /. -.Float.expm1 (float_of_int n *. Float.log1p (-.p))
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f within 2%% of %.4f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.02 *. expected)

let test_gini_known () =
  check_float "equal shares" 0.0 (Stats.gini [| 5.0; 5.0; 5.0; 5.0 |]);
  check_float "one-hot" 0.75 (Stats.gini [| 0.0; 0.0; 0.0; 1.0 |]);
  check_float "all zero" 0.0 (Stats.gini [| 0.0; 0.0 |]);
  check_float "scale invariant" (Stats.gini [| 1.0; 2.0; 3.0 |])
    (Stats.gini [| 10.0; 20.0; 30.0 |])

let test_gini_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.gini: empty array") (fun () ->
      ignore (Stats.gini [||]));
  Alcotest.check_raises "negative" (Invalid_argument "Stats.gini: negative value")
    (fun () -> ignore (Stats.gini [| 1.0; -2.0 |]))

(* --- QCheck properties ----------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"hex roundtrip (random bytes)" ~count:500 (string_of_size Gen.(0 -- 64))
      (fun s -> Hex.decode (Hex.encode s) = s);
    Test.make ~name:"hex encode length doubles" ~count:200 string (fun s ->
        String.length (Hex.encode s) = 2 * String.length s);
    Test.make ~name:"stats merge = concat" ~count:200
      (pair (list (float_bound_exclusive 1000.0)) (list (float_bound_exclusive 1000.0)))
      (fun (xs, ys) ->
        let m = Stats.merge (Stats.of_list xs) (Stats.of_list ys) in
        let d = Stats.of_list (xs @ ys) in
        let agree a b = (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) < 1e-6 in
        agree (Stats.mean m) (Stats.mean d) && agree (Stats.min_value m) (Stats.min_value d));
    Test.make ~name:"quantile between min and max" ~count:200
      (pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
      (fun (xs, q) ->
        let a = Array.of_list xs in
        let v = Stats.quantile a q in
        v >= Stats.quantile a 0.0 -. 1e-9 && v <= Stats.quantile a 1.0 +. 1e-9);
    Test.make ~name:"binomial within [0,n]" ~count:200 (int_bound 200) (fun n ->
        let g = Rng.of_seed (Int64.of_int (n + 1)) in
        let x = Sampling.binomial g n 0.37 in
        x >= 0 && x <= n);
    Test.make ~name:"shuffle preserves multiset" ~count:200 (list (int_bound 100)) (fun xs ->
        let g = Rng.of_seed 77L in
        let a = Array.of_list xs in
        Sampling.shuffle g a;
        List.sort compare (Array.to_list a) = List.sort compare xs);
    Test.make ~name:"alias sampling matches weights" ~count:25
      (pair (int_bound 1000) (list_of_size Gen.(1 -- 8) (int_bound 20)))
      (fun (seed, ws) ->
        let ws = if List.for_all (fun w -> w = 0) ws then [ 1 ] else ws in
        let weights = Array.of_list (List.map float_of_int ws) in
        let total = Array.fold_left ( +. ) 0.0 weights in
        let t = Alias.create weights in
        let n = Array.length weights in
        let g = Rng.of_seed (Int64.of_int (seed + 1)) in
        let trials = 30_000 in
        let counts = Array.make n 0 in
        for _ = 1 to trials do
          let i = Alias.sample t g in
          counts.(i) <- counts.(i) + 1
        done;
        let ok = ref true in
        for i = 0 to n - 1 do
          let p = weights.(i) /. total in
          let emp = float_of_int counts.(i) /. float_of_int trials in
          let sigma = Float.sqrt (p *. (1.0 -. p) /. float_of_int trials) in
          if Float.abs (emp -. p) > (5.0 *. sigma) +. 1e-9 then ok := false
        done;
        !ok);
    Test.make ~name:"binomial_pos within [1,n]" ~count:300
      (pair (int_bound 99) (int_bound 1000))
      (fun (n, seed) ->
        let n = n + 1 in
        let g = Rng.of_seed (Int64.of_int (seed + 1)) in
        let x = Sampling.binomial_pos g n 0.07 in
        x >= 1 && x <= n);
    Test.make ~name:"geometric skip never lands past a win round" ~count:50
      (int_bound 1000)
      (fun seed ->
        (* The sparse scheduler draws the gap to the next winning round
           from Geometric(pb) with pb = 1-(1-p)^Q, then the win count at
           that round from Binomial(Q,p) conditioned positive. The two
           compose to the per-query Bernoulli marginal: total wins over R
           rounds must match Binomial(R*Q, p). *)
        let g = Rng.of_seed (Int64.of_int (seed + 1)) in
        let rounds = 4_000 and q = 8 in
        let p = 0.004 in
        let pb = -.Float.expm1 (float_of_int q *. Float.log1p (-.p)) in
        let total = ref 0 in
        let r = ref (Sampling.geometric g pb) in
        while !r < rounds do
          let wins = Sampling.binomial_pos g q p in
          if wins < 1 then total := min_int;
          total := !total + wins;
          r := !r + 1 + Sampling.geometric g pb
        done;
        let mean = float_of_int (rounds * q) *. p in
        let sigma = Float.sqrt (mean *. (1.0 -. p)) in
        Float.abs (float_of_int !total -. mean) < 6.0 *. sigma);
  ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "slot bounds" `Quick test_rng_slot_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "geometric invalid" `Quick test_geometric_invalid;
          Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
          Alcotest.test_case "binomial mean (small)" `Quick test_binomial_mean_small;
          Alcotest.test_case "binomial mean (large)" `Quick test_binomial_mean_large;
          Alcotest.test_case "binomial range" `Quick test_binomial_range;
          Alcotest.test_case "binomial_pos edges" `Quick test_binomial_pos_edges;
          Alcotest.test_case "binomial_pos mean" `Quick test_binomial_pos_mean;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge with empty" `Quick test_stats_merge_empty;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "quantile invalid" `Quick test_quantile_invalid;
          Alcotest.test_case "cv" `Quick test_cv;
          Alcotest.test_case "gini known values" `Quick test_gini_known;
          Alcotest.test_case "gini invalid" `Quick test_gini_invalid;
        ] );
      ( "alias",
        [
          Alcotest.test_case "single entry" `Quick test_alias_single;
          Alcotest.test_case "zero weight excluded" `Quick test_alias_zero_weight_excluded;
          Alcotest.test_case "invalid weights" `Quick test_alias_invalid;
          Alcotest.test_case "deterministic construction" `Quick test_alias_deterministic;
          Alcotest.test_case "exactly two draws" `Quick test_alias_two_draws;
          Alcotest.test_case "same draws as the table walk" `Quick test_alias_table_walk;
        ] );
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "arity check" `Quick test_table_arity;
          Alcotest.test_case "cell formats" `Quick test_table_formats;
          Alcotest.test_case "csv export" `Quick test_table_csv;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
