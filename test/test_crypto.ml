(* Tests for Fruitchain_crypto: SHA-256 against the FIPS/NIST vectors, HMAC
   against RFC 4231, Hash difficulty views, Merkle trees, and both oracle
   backends. *)

module Sha256 = Fruitchain_crypto.Sha256
module Hash = Fruitchain_crypto.Hash
module Merkle = Fruitchain_crypto.Merkle
module Oracle = Fruitchain_crypto.Oracle
module Hex = Fruitchain_util.Hex
module Rng = Fruitchain_util.Rng

(* --- SHA-256 --------------------------------------------------------- *)

(* Each FIPS vector goes through both block functions: [digest] runs the
   SHA-extension one wherever [Sha256.accelerated] holds, and
   [digest_portable] the portable one on every host. *)
let check_vector name expected msg =
  Alcotest.(check string) name expected (Hex.encode (Sha256.digest msg));
  Alcotest.(check string) (name ^ ", portable") expected (Hex.encode (Sha256.digest_portable msg))

let test_sha256_empty () =
  check_vector "FIPS empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" ""

let test_sha256_abc () =
  check_vector "FIPS abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc"

let test_sha256_448bits () =
  check_vector "FIPS two-block" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"

let test_sha256_896bits () =
  check_vector "FIPS four-block"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"

let test_sha256_million_a () =
  check_vector "FIPS 1M x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (String.make 1_000_000 'a')

let test_sha256_incremental_chunks () =
  (* Absorbing in arbitrary chunks must equal one-shot hashing. *)
  let msg = String.init 1_000 (fun i -> Char.chr (i mod 256)) in
  let expected = Sha256.digest msg in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let rec feed pos =
        if pos < String.length msg then begin
          let len = min chunk (String.length msg - pos) in
          Sha256.update ctx (String.sub msg pos len);
          feed (pos + len)
        end
      in
      feed 0;
      Alcotest.(check string)
        (Printf.sprintf "chunk=%d" chunk)
        (Hex.encode expected)
        (Hex.encode (Sha256.finalize ctx)))
    [ 1; 3; 63; 64; 65; 128; 999 ]

let test_sha256_boundary_lengths () =
  (* Padding edge cases: lengths around the 55/56/64-byte boundaries. *)
  List.iter
    (fun len ->
      let msg = String.make len 'x' in
      let ctx = Sha256.init () in
      Sha256.update ctx msg;
      Alcotest.(check string)
        (Printf.sprintf "len=%d" len)
        (Hex.encode (Sha256.digest msg))
        (Hex.encode (Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_update_bytes_bounds () =
  (* [pos + len] wraps negative for a huge [len]; the guard must not add. *)
  let data = Bytes.make 8 'a' in
  let out_of_bounds = Invalid_argument "Sha256.update_bytes: out of bounds" in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises (Printf.sprintf "pos=%d len=%d" pos len) out_of_bounds (fun () ->
          Sha256.update_bytes (Sha256.init ()) data ~pos ~len))
    [ (1, max_int); (9, 0); (-1, 1); (0, -1); (0, 9) ];
  (* The in-bounds edge: the empty slice at the end. *)
  let ctx = Sha256.init () in
  Sha256.update_bytes ctx data ~pos:8 ~len:0;
  Alcotest.(check string) "pos=8 len=0 absorbs nothing"
    (Hex.encode (Sha256.digest ""))
    (Hex.encode (Sha256.finalize ctx))

(* The flags of the first CPU in /proc/cpuinfo, or [None] where there is no
   [flags] line (not Linux, or not x86). *)
let cpuinfo_flags () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line -> (
                match String.index_opt line ':' with
                | Some i when String.equal (String.trim (String.sub line 0 i)) "flags" ->
                    let rest = String.sub line (i + 1) (String.length line - i - 1) in
                    Some (String.split_on_char ' ' rest |> List.filter (fun f -> f <> ""))
                | Some _ | None -> scan ())
          in
          scan ())

let test_probe_matches_cpuinfo () =
  (* Both block functions give the same bytes, so no digest can tell which
     one runs: a probe that never picks the SHA extensions loses the speed
     silently, one that picks them on a CPU without them dies with SIGILL. *)
  match cpuinfo_flags () with
  | None -> print_endline "no flags line in /proc/cpuinfo: the CPU probe is not checked here"
  | Some flags ->
      let has f = List.mem f flags in
      Alcotest.(check bool) "accelerated iff sha_ni, ssse3 and sse4_1 are listed"
        (has "sha_ni" && has "ssse3" && has "sse4_1")
        Sha256.accelerated

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "RFC4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Sha256.hmac ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "RFC4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first; check against the
     equivalent explicit construction. *)
  let key = String.make 100 'k' in
  let direct = Sha256.hmac ~key "msg" in
  let via_digest = Sha256.hmac ~key:(Sha256.digest key) "msg" in
  Alcotest.(check string) "long key folds" (Hex.encode via_digest) (Hex.encode direct)

(* --- Hash views and difficulty --------------------------------------- *)

let test_hash_of_raw_validation () =
  Alcotest.check_raises "wrong size" (Invalid_argument "Hash.of_raw: expected 32 bytes")
    (fun () -> ignore (Hash.of_raw "short"))

let test_hash_hex_roundtrip () =
  let h = Hash.of_raw (Sha256.digest "x") in
  Alcotest.(check bool) "roundtrip" true (Hash.equal h (Hash.of_hex (Hash.to_hex h)))

let test_hash_views () =
  let raw = String.init 32 (fun i -> Char.chr i) in
  let h = Hash.of_raw raw in
  Alcotest.(check int64) "prefix64 big-endian" 0x0001020304050607L (Hash.prefix64 h);
  Alcotest.(check int64) "suffix64 big-endian" 0x18191a1b1c1d1e1fL (Hash.suffix64 h)

let test_threshold_extremes () =
  Alcotest.(check int64) "p=0" 0L (Hash.threshold 0.0);
  Alcotest.(check int64) "p=1 all ones" (-1L) (Hash.threshold 1.0);
  Alcotest.(check int64) "p=0.5 is 2^63" Int64.min_int (Hash.threshold 0.5)

let test_difficulty_checks () =
  let h = Hash.of_views ~block_view:100L ~fruit_view:(-1L) ~filler:(0L, 0L) in
  Alcotest.(check bool) "block passes easy" true (Hash.meets_block_difficulty h ~p:0.5);
  Alcotest.(check bool) "fruit fails (max view)" false (Hash.meets_fruit_difficulty h ~pf:0.999);
  let h2 = Hash.of_views ~block_view:(-1L) ~fruit_view:0L ~filler:(1L, 2L) in
  Alcotest.(check bool) "block fails (max view)" false (Hash.meets_block_difficulty h2 ~p:0.999);
  Alcotest.(check bool) "fruit passes (zero view)" true (Hash.meets_fruit_difficulty h2 ~pf:1e-9)

let test_of_views_roundtrip () =
  let h = Hash.of_views ~block_view:0x1122334455667788L ~fruit_view:0x99aabbccddeeff00L
      ~filler:(42L, 43L)
  in
  Alcotest.(check int64) "block view" 0x1122334455667788L (Hash.prefix64 h);
  Alcotest.(check int64) "fruit view" 0x99aabbccddeeff00L (Hash.suffix64 h)

(* --- Merkle ---------------------------------------------------------- *)

let test_merkle_empty () =
  Alcotest.(check bool) "empty root constant" true (Hash.equal Merkle.empty_root (Merkle.root []))

let test_merkle_single () =
  Alcotest.(check bool) "singleton root = leaf hash" true
    (Hash.equal (Merkle.leaf_hash "a") (Merkle.root [ "a" ]))

let test_merkle_order_sensitivity () =
  Alcotest.(check bool) "order matters" false
    (Hash.equal (Merkle.root [ "a"; "b" ]) (Merkle.root [ "b"; "a" ]))

let test_merkle_content_sensitivity () =
  Alcotest.(check bool) "content matters" false
    (Hash.equal (Merkle.root [ "a"; "b"; "c" ]) (Merkle.root [ "a"; "b"; "d" ]))

let test_merkle_domain_separation () =
  (* A leaf "x" must differ from an interior node over any children; the
     0x00/0x01 prefixes guarantee it structurally. *)
  let leaf = Merkle.leaf_hash "x" in
  let node = Merkle.node_hash (Merkle.leaf_hash "x") (Merkle.leaf_hash "x") in
  Alcotest.(check bool) "leaf <> node" false (Hash.equal leaf node)

let test_merkle_proofs_all_indices () =
  let leaves = List.init 7 (fun i -> Printf.sprintf "leaf-%d" i) in
  let root = Merkle.root leaves in
  List.iteri
    (fun i leaf ->
      let proof = Merkle.proof leaves i in
      Alcotest.(check bool) (Printf.sprintf "proof %d verifies" i) true
        (Merkle.verify_proof ~root ~leaf proof))
    leaves

let test_merkle_proof_rejects_wrong_leaf () =
  let leaves = [ "a"; "b"; "c"; "d" ] in
  let root = Merkle.root leaves in
  let proof = Merkle.proof leaves 1 in
  Alcotest.(check bool) "wrong leaf rejected" false (Merkle.verify_proof ~root ~leaf:"z" proof)

let test_merkle_proof_bounds () =
  Alcotest.check_raises "index out of range" (Invalid_argument "Merkle.proof: index out of range")
    (fun () -> ignore (Merkle.proof [ "a" ] 1))

(* --- Oracle ---------------------------------------------------------- *)

let test_real_oracle_verify () =
  let o = Oracle.real ~p:0.5 ~pf:0.5 in
  let h = Oracle.query o "input" in
  Alcotest.(check bool) "verify accepts" true (Oracle.verify o "input" h);
  Alcotest.(check bool) "verify rejects other input" false (Oracle.verify o "other" h);
  Alcotest.(check int) "queries counted" 1 (Oracle.queries o)

let test_real_oracle_deterministic () =
  let o = Oracle.real ~p:0.5 ~pf:0.5 in
  Alcotest.(check bool) "same input same hash" true
    (Hash.equal (Oracle.query o "x") (Oracle.query o "x"))

let test_sim_oracle_rates () =
  let o = Oracle.sim ~p:0.1 ~pf:0.3 (Rng.of_seed 1L) in
  let blocks = ref 0 and fruits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let h = Oracle.query o "" in
    if Oracle.mined_block o h then incr blocks;
    if Oracle.mined_fruit o h then incr fruits
  done;
  let bf = float_of_int !blocks /. float_of_int n in
  let ff = float_of_int !fruits /. float_of_int n in
  Alcotest.(check bool) "block rate ~ 0.1" true (Float.abs (bf -. 0.1) < 0.005);
  Alcotest.(check bool) "fruit rate ~ 0.3" true (Float.abs (ff -. 0.3) < 0.01);
  Alcotest.(check int) "queries counted" n (Oracle.queries o)

let test_sim_oracle_hash_uniqueness () =
  let o = Oracle.sim ~p:0.01 ~pf:0.1 (Rng.of_seed 2L) in
  let seen = Hashtbl.create 1024 in
  for _ = 1 to 10_000 do
    let h = Oracle.query o "" in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen (Hash.to_raw h));
    Hashtbl.replace seen (Hash.to_raw h) ()
  done

let test_sim_oracle_memo_verify () =
  let o = Oracle.sim ~memo:true ~p:0.5 ~pf:0.5 (Rng.of_seed 3L) in
  let h = Oracle.query o "payload" in
  Alcotest.(check bool) "memo verify accepts" true (Oracle.verify o "payload" h);
  Alcotest.(check bool) "memo verify rejects unknown" false (Oracle.verify o "nope" h)

let test_oracle_reset_queries () =
  let o = Oracle.sim ~p:0.5 ~pf:0.5 (Rng.of_seed 4L) in
  ignore (Oracle.query o "");
  Oracle.reset_queries o;
  Alcotest.(check int) "reset" 0 (Oracle.queries o)

let test_real_oracle_rate () =
  (* The SHA-256 backend must also hit its configured marginal. *)
  let p = 1.0 /. 16.0 in
  let o = Oracle.real ~p ~pf:p in
  let hits = ref 0 in
  let n = 20_000 in
  for i = 1 to n do
    let h = Oracle.query o (Printf.sprintf "probe-%d" i) in
    if Oracle.mined_block o h then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 1/16" true (Float.abs (rate -. p) < 0.01)

(* --- QCheck properties ----------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sha256 deterministic" ~count:200 string (fun s ->
        Sha256.digest s = Sha256.digest s);
    Test.make ~name:"sha256 split invariance" ~count:200
      (pair string string)
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.update ctx a;
        Sha256.update ctx b;
        Sha256.finalize ctx = Sha256.digest (a ^ b));
    Test.make ~name:"merkle proofs verify (random sets)" ~count:100
      (list_of_size Gen.(1 -- 20) (string_of_size Gen.(0 -- 16)))
      (fun leaves ->
        let root = Merkle.root leaves in
        List.for_all
          (fun i -> Merkle.verify_proof ~root ~leaf:(List.nth leaves i) (Merkle.proof leaves i))
          (List.init (List.length leaves) Fun.id));
    Test.make ~name:"threshold monotone in p" ~count:200
      (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (a, b) ->
        let lo = Float.min a b and hi = Float.max a b in
        Int64.unsigned_compare (Hash.threshold lo) (Hash.threshold hi) <= 0);
  ]

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "448 bits" `Quick test_sha256_448bits;
          Alcotest.test_case "896 bits" `Quick test_sha256_896bits;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental chunks" `Quick test_sha256_incremental_chunks;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_boundary_lengths;
          Alcotest.test_case "update_bytes bounds" `Quick test_update_bytes_bounds;
          Alcotest.test_case "probe agrees with cpuinfo" `Quick test_probe_matches_cpuinfo;
          Alcotest.test_case "hmac rfc4231 #1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "hmac rfc4231 #2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "hmac long key" `Quick test_hmac_long_key;
        ] );
      ( "hash",
        [
          Alcotest.test_case "of_raw validation" `Quick test_hash_of_raw_validation;
          Alcotest.test_case "hex roundtrip" `Quick test_hash_hex_roundtrip;
          Alcotest.test_case "views big-endian" `Quick test_hash_views;
          Alcotest.test_case "threshold extremes" `Quick test_threshold_extremes;
          Alcotest.test_case "difficulty checks" `Quick test_difficulty_checks;
          Alcotest.test_case "of_views roundtrip" `Quick test_of_views_roundtrip;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "empty" `Quick test_merkle_empty;
          Alcotest.test_case "single" `Quick test_merkle_single;
          Alcotest.test_case "order sensitive" `Quick test_merkle_order_sensitivity;
          Alcotest.test_case "content sensitive" `Quick test_merkle_content_sensitivity;
          Alcotest.test_case "domain separation" `Quick test_merkle_domain_separation;
          Alcotest.test_case "proofs all indices" `Quick test_merkle_proofs_all_indices;
          Alcotest.test_case "proof rejects wrong leaf" `Quick test_merkle_proof_rejects_wrong_leaf;
          Alcotest.test_case "proof bounds" `Quick test_merkle_proof_bounds;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "real verify" `Quick test_real_oracle_verify;
          Alcotest.test_case "real deterministic" `Quick test_real_oracle_deterministic;
          Alcotest.test_case "sim rates" `Quick test_sim_oracle_rates;
          Alcotest.test_case "sim hash uniqueness" `Quick test_sim_oracle_hash_uniqueness;
          Alcotest.test_case "sim memo verify" `Quick test_sim_oracle_memo_verify;
          Alcotest.test_case "reset queries" `Quick test_oracle_reset_queries;
          Alcotest.test_case "real rate" `Slow test_real_oracle_rate;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
