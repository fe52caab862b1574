(* Tests for Fruitchain_chain: types, codec round-trips, store, validation
   (including the recency rule). *)

module Types = Fruitchain_chain.Types
module Codec = Fruitchain_chain.Codec
module Store = Fruitchain_chain.Store
module Validate = Fruitchain_chain.Validate
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Merkle = Fruitchain_crypto.Merkle
module Sha256 = Fruitchain_crypto.Sha256
module Rng = Fruitchain_util.Rng

(* An oracle easy enough that every attempt succeeds on both puzzles; tests
   that need failures use harder settings. *)
let easy_oracle () = Oracle.real ~p:1.0 ~pf:1.0

let mk_header ?(parent = Types.genesis_hash) ?(pointer = Types.genesis_hash) ?(nonce = 0L)
    ?(digest = Merkle.empty_root) ?(record = "") () =
  { Types.parent; pointer; nonce; digest; record }

(* Mine a valid block on [parent] with the given fruits, retrying nonces
   until the difficulty is met. *)
let mine_block oracle rng ~parent ?(pointer = Types.genesis_hash) ?(record = "") fruits =
  let digest = Validate.fruit_set_digest fruits in
  let rec go () =
    let header = mk_header ~parent ~pointer ~nonce:(Rng.bits64 rng) ~digest ~record () in
    let hash = Oracle.query oracle (Codec.header_bytes header) in
    if Oracle.mined_block oracle hash then
      { Types.b_header = header; b_hash = hash; fruits; b_prov = None }
    else go ()
  in
  go ()

let mine_fruit oracle rng ~pointer ?(record = "r") () =
  let rec go () =
    let header = mk_header ~pointer ~nonce:(Rng.bits64 rng) ~record () in
    let hash = Oracle.query oracle (Codec.header_bytes header) in
    if Oracle.mined_fruit oracle hash then
      { Types.f_header = header; f_hash = hash; f_prov = None }
    else go ()
  in
  go ()

(* --- Types ----------------------------------------------------------- *)

let test_genesis_shape () =
  Alcotest.(check bool) "zero parent" true (Hash.equal Types.genesis.b_header.parent Hash.zero);
  Alcotest.(check int) "no fruits" 0 (List.length Types.genesis.fruits);
  Alcotest.(check bool) "fixed hash" true (Hash.equal Types.genesis.b_hash Types.genesis_hash)

let test_equality_by_hash () =
  let o = easy_oracle () and rng = Rng.of_seed 1L in
  let f1 = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let f1' = { f1 with Types.f_prov = Some { Types.miner = 9; round = 9; honest = false } } in
  Alcotest.(check bool) "fruit equality ignores provenance" true (Types.fruit_equal f1 f1')

(* --- Codec ----------------------------------------------------------- *)

(* Fruits are decoded only inside blocks: wrap [f] in a block and read it
   back out of the block's wire encoding. *)
let block_with o rng f = mine_block o rng ~parent:Types.genesis_hash [ f ]
let fruit_via_block b = List.hd (Codec.block_of_bytes (Codec.block_bytes b)).Types.fruits

let test_codec_fruit_roundtrip () =
  let o = easy_oracle () and rng = Rng.of_seed 2L in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"hello \x00 world" () in
  let f' = fruit_via_block (block_with o rng f) in
  Alcotest.(check bool) "roundtrip" true (Types.fruit_equal f f');
  Alcotest.(check string) "record preserved" f.Types.f_header.record f'.Types.f_header.record

let test_codec_block_roundtrip () =
  let o = easy_oracle () and rng = Rng.of_seed 3L in
  let fruits = List.init 5 (fun i ->
      mine_fruit o rng ~pointer:Types.genesis_hash ~record:(Printf.sprintf "r%d" i) ())
  in
  let b = mine_block o rng ~parent:Types.genesis_hash fruits in
  let b' = Codec.block_of_bytes (Codec.block_bytes b) in
  Alcotest.(check bool) "roundtrip" true (Types.block_equal b b');
  Alcotest.(check int) "fruit count" 5 (List.length b'.Types.fruits);
  List.iter2
    (fun f f' -> Alcotest.(check bool) "fruit order" true (Types.fruit_equal f f'))
    b.Types.fruits b'.Types.fruits

let test_codec_header_injective () =
  let h1 = mk_header ~record:"a" () and h2 = mk_header ~record:"b" () in
  Alcotest.(check bool) "distinct records distinct bytes" false
    (String.equal (Codec.header_bytes h1) (Codec.header_bytes h2));
  let h3 = mk_header ~nonce:1L () and h4 = mk_header ~nonce:2L () in
  Alcotest.(check bool) "distinct nonces distinct bytes" false
    (String.equal (Codec.header_bytes h3) (Codec.header_bytes h4))

let test_codec_truncation_rejected () =
  let o = easy_oracle () and rng = Rng.of_seed 4L in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let bytes = Codec.block_bytes (block_with o rng f) in
  Alcotest.check_raises "truncated fruit" (Invalid_argument "Codec: truncated input") (fun () ->
      ignore (Codec.block_of_bytes (String.sub bytes 0 (String.length bytes - 1))))

let test_codec_trailing_rejected () =
  let o = easy_oracle () and rng = Rng.of_seed 5L in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  Alcotest.check_raises "trailing" (Invalid_argument "Codec: trailing bytes") (fun () ->
      ignore (Codec.block_of_bytes (Codec.block_bytes (block_with o rng f) ^ "x")))

let test_codec_sizes () =
  let o = easy_oracle () and rng = Rng.of_seed 6L in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"" () in
  (* 3 hashes (96) + nonce (8) + record length prefix (4) + ref hash (32) *)
  Alcotest.(check int) "empty-record fruit wire size" 140 (Codec.fruit_wire_size f);
  let b = mine_block o rng ~parent:Types.genesis_hash [ f ] in
  Alcotest.(check int) "block wire size = header + count + fruits"
    (140 + 4 + 140) (Codec.block_wire_size b)

(* --- Store ----------------------------------------------------------- *)

let test_store_genesis_present () =
  let s = Store.create () in
  Alcotest.(check bool) "genesis" true (Store.mem s Types.genesis_hash);
  Alcotest.(check int) "height 0" 0 (Store.height s Types.genesis_hash)

let test_store_add_and_heights () =
  let o = easy_oracle () and rng = Rng.of_seed 7L in
  let s = Store.create () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [] in
  Store.add s b1;
  Store.add s b2;
  Alcotest.(check int) "height 1" 1 (Store.height s b1.Types.b_hash);
  Alcotest.(check int) "height 2" 2 (Store.height s b2.Types.b_hash)

let test_store_orphan_rejected () =
  let o = easy_oracle () and rng = Rng.of_seed 8L in
  let s = Store.create () in
  let fake_parent = Hash.of_raw (Sha256.digest "nowhere") in
  let orphan = mine_block o rng ~parent:fake_parent [] in
  Alcotest.check_raises "orphan" (Invalid_argument "Store.add: parent unknown") (fun () ->
      Store.add s orphan)

let test_store_duplicate_noop () =
  let o = easy_oracle () and rng = Rng.of_seed 9L in
  let s = Store.create () in
  let b = mine_block o rng ~parent:Types.genesis_hash [] in
  let first = Store.add_id s b in
  Store.add s b;
  Alcotest.(check bool) "no duplicate" true (Store.id_equal first (Store.id s b.Types.b_hash))

let build_chain o rng s ~len =
  let rec go acc parent n =
    if n = 0 then List.rev acc
    else begin
      let b = mine_block o rng ~parent [] in
      Store.add s b;
      go (b :: acc) b.Types.b_hash (n - 1)
    end
  in
  go [] Types.genesis_hash len

let test_store_to_list () =
  let o = easy_oracle () and rng = Rng.of_seed 10L in
  let s = Store.create () in
  let blocks = build_chain o rng s ~len:5 in
  let head = (List.nth blocks 4).Types.b_hash in
  let chain = Store.to_list s ~head in
  Alcotest.(check int) "length incl genesis" 6 (List.length chain);
  Alcotest.(check bool) "genesis first" true
    (Types.block_equal (List.hd chain) Types.genesis);
  Alcotest.(check bool) "head last" true
    (Hash.equal (List.nth chain 5).Types.b_hash head)

let test_store_last_n () =
  let o = easy_oracle () and rng = Rng.of_seed 11L in
  let s = Store.create () in
  let blocks = build_chain o rng s ~len:5 in
  let head = (List.nth blocks 4).Types.b_hash in
  let last2 = Store.last_n s ~head 2 in
  Alcotest.(check int) "two blocks" 2 (List.length last2);
  Alcotest.(check bool) "ends at head" true
    (Hash.equal (List.nth last2 1).Types.b_hash head);
  Alcotest.(check int) "oversized n returns all" 6 (List.length (Store.last_n s ~head 100))

let test_store_ancestor_at_height () =
  let o = easy_oracle () and rng = Rng.of_seed 12L in
  let s = Store.create () in
  let blocks = build_chain o rng s ~len:4 in
  let head = Store.id s (List.nth blocks 3).Types.b_hash in
  (match Store.ancestor_id_at_height s ~head ~height:2 with
  | Some i ->
      Alcotest.(check bool) "on the chain" true
        (Hash.equal (Store.hash_at s i) (List.nth blocks 1).Types.b_hash)
  | None -> Alcotest.fail "ancestor missing");
  Alcotest.(check bool) "beyond head" true
    (Option.is_none (Store.ancestor_id_at_height s ~head ~height:9));
  Alcotest.(check bool) "negative" true
    (Option.is_none (Store.ancestor_id_at_height s ~head ~height:(-1)))

let test_store_common_prefix () =
  let o = easy_oracle () and rng = Rng.of_seed 13L in
  let s = Store.create () in
  let trunk = build_chain o rng s ~len:3 in
  let fork_base = (List.nth trunk 1).Types.b_hash in
  let fa = mine_block o rng ~parent:fork_base [] in
  let fb = mine_block o rng ~parent:fa.Types.b_hash [] in
  Store.add s fa;
  Store.add s fb;
  let trunk_head = (List.nth trunk 2).Types.b_hash in
  Alcotest.(check int) "meet at fork base" 2
    (Store.common_prefix_height s trunk_head fb.Types.b_hash);
  Alcotest.(check int) "same head" 3 (Store.common_prefix_height s trunk_head trunk_head);
  Alcotest.(check int) "genesis vs head" 0
    (Store.common_prefix_height s Types.genesis_hash trunk_head)

let test_store_fruit_indices () =
  let o = easy_oracle () and rng = Rng.of_seed 14L in
  let s = Store.create () in
  let f1 = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [ f1 ] in
  Store.add s b1;
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [] in
  Store.add s b2;
  let hangs = Store.hang_positions_id s ~head:(Store.id s b2.Types.b_hash) ~window:2 in
  Alcotest.(check bool) "hang positions cover b1,b2" true
    (Hash.Tbl.mem hangs b1.Types.b_hash && Hash.Tbl.mem hangs b2.Types.b_hash);
  Alcotest.(check bool) "genesis outside window 2" false (Hash.Tbl.mem hangs Types.genesis_hash)

(* --- Snapshot ---------------------------------------------------------- *)

module Snapshot = Fruitchain_chain.Snapshot

(* Snapshots are read and written only through files: [with_snap_file]
   hands a fresh temporary path to [f] and removes it afterwards. *)
let with_snap_file f =
  let path = Filename.temp_file "fruitchain" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let snap_bytes chain =
  with_snap_file (fun path ->
      Snapshot.save_chain ~path chain;
      In_channel.with_open_bin path In_channel.input_all)

let load_bytes bytes =
  with_snap_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      Snapshot.load_chain ~path)

let test_snapshot_roundtrip () =
  let o = easy_oracle () and rng = Rng.of_seed 40L in
  let s = Store.create () in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"kept" () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [ f ] in
  Store.add s b1;
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [] in
  Store.add s b2;
  let chain = Store.to_list s ~head:b2.Types.b_hash in
  let chain' = load_bytes (snap_bytes chain) in
  Alcotest.(check int) "same length" (List.length chain) (List.length chain');
  List.iter2
    (fun a b -> Alcotest.(check bool) "same blocks" true (Types.block_equal a b))
    chain chain';
  Alcotest.(check (list string)) "fruit record survives" [ "kept" ]
    (Fruitchain_core.Extract.ledger_of_chain chain')

let test_snapshot_genesis_only () =
  let bytes = snap_bytes [ Types.genesis ] in
  Alcotest.(check int) "loads to genesis" 1 (List.length (load_bytes bytes))

let test_snapshot_rejects_garbage () =
  Alcotest.check_raises "bad magic"
    (Invalid_argument "Snapshot.chain_of_bytes: bad magic or version") (fun () ->
      ignore (load_bytes "not a snapshot at all"));
  let o = easy_oracle () and rng = Rng.of_seed 41L in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  let good = snap_bytes [ Types.genesis; b1 ] in
  Alcotest.check_raises "truncated" (Invalid_argument "Snapshot: truncated") (fun () ->
      ignore (load_bytes (String.sub good 0 (String.length good - 3))));
  Alcotest.check_raises "trailing" (Invalid_argument "Snapshot: trailing bytes") (fun () ->
      ignore (load_bytes (good ^ "x")))

let test_snapshot_rejects_broken_chain () =
  let o = easy_oracle () and rng = Rng.of_seed 42L in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  let detached = mine_block o rng ~parent:(Hash.of_raw (Sha256.digest "elsewhere")) [] in
  Alcotest.check_raises "broken links on save"
    (Invalid_argument "Snapshot.chain_to_bytes: broken links") (fun () ->
      ignore (snap_bytes [ Types.genesis; b1; detached ]));
  Alcotest.check_raises "must start at genesis"
    (Invalid_argument "Snapshot.chain_to_bytes: chain must start at genesis") (fun () ->
      ignore (snap_bytes [ b1 ]))

let test_snapshot_file_and_store () =
  let o = easy_oracle () and rng = Rng.of_seed 43L in
  let s = Store.create () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  Store.add s b1;
  with_snap_file (fun path ->
      Snapshot.save_chain ~path (Store.to_list s ~head:b1.Types.b_hash);
      let loaded = Snapshot.load_chain ~path in
      Alcotest.(check int) "file roundtrip" 2 (List.length loaded);
      Alcotest.(check bool) "head restored" true
        (Types.block_equal (List.nth loaded 1) b1))

(* --- Validation ------------------------------------------------------ *)

let test_valid_fruit () =
  let o = easy_oracle () and rng = Rng.of_seed 15L in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  Alcotest.(check bool) "valid" true (Validate.valid_fruit o f)

let test_invalid_fruit_wrong_hash () =
  let o = easy_oracle () and rng = Rng.of_seed 16L in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let forged = { f with Types.f_hash = Hash.of_raw (Sha256.digest "forged") } in
  Alcotest.(check bool) "forged reference rejected" false (Validate.valid_fruit o forged)

let test_header_mismatch_rejected () =
  (* Validation serializes a header only when the oracle reads pre-images;
     every oracle that does must still reject a fruit or block whose hash
     is not H(header). The memo-less sampling oracle never read the bytes,
     so it accepts the same objects, as it always has. *)
  let retitle (h : Types.header) = { h with Types.record = h.record ^ "!" } in
  List.iter
    (fun (name, o, rejects) ->
      let rng = Rng.of_seed 21L in
      let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
      let b = mine_block o rng ~parent:Types.genesis_hash [ f ] in
      Alcotest.(check bool) (name ^ ": mined fruit valid") true (Validate.valid_fruit o f);
      Alcotest.(check bool) (name ^ ": mined block valid") true (Validate.valid_block o b);
      let f' = { f with Types.f_header = retitle f.f_header } in
      let b' = { b with Types.b_header = retitle b.b_header } in
      Alcotest.(check bool) (name ^ ": fruit header/hash mismatch") (not rejects)
        (Validate.valid_fruit o f');
      Alcotest.(check bool) (name ^ ": block header/hash mismatch") (not rejects)
        (Validate.valid_block o b'))
    [
      ("real", easy_oracle (), true);
      ("sim memo", Oracle.sim ~memo:true ~p:1.0 ~pf:1.0 (Rng.of_seed 22L), true);
      ("sim", Oracle.sim ~p:1.0 ~pf:1.0 (Rng.of_seed 23L), false);
    ]

let test_fruit_difficulty_rejected () =
  (* Mine with an easy oracle, check with a strict one: the PoW no longer
     meets the difficulty. *)
  let easy = easy_oracle () and rng = Rng.of_seed 17L in
  let strict = Oracle.real ~p:1e-12 ~pf:1e-12 in
  let f = mine_fruit easy rng ~pointer:Types.genesis_hash () in
  Alcotest.(check bool) "hard difficulty rejects" false (Validate.valid_fruit strict f)

let test_valid_block_and_digest () =
  let o = easy_oracle () and rng = Rng.of_seed 18L in
  let fruits = [ mine_fruit o rng ~pointer:Types.genesis_hash () ] in
  let b = mine_block o rng ~parent:Types.genesis_hash fruits in
  Alcotest.(check bool) "valid" true (Validate.valid_block o b);
  (* Tamper with the fruit set: the digest no longer matches. *)
  let tampered = { b with Types.fruits = [] } in
  Alcotest.(check bool) "digest mismatch rejected" false (Validate.valid_block o tampered)

let test_genesis_always_valid () =
  let o = Oracle.real ~p:1e-12 ~pf:1e-12 in
  Alcotest.(check bool) "genesis valid at any difficulty" true
    (Validate.valid_block o Types.genesis)

let test_valid_chain_happy () =
  let o = easy_oracle () and rng = Rng.of_seed 19L in
  let s = Store.create () in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  Store.add s b1;
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [ f ] in
  Store.add s b2;
  let chain = Store.to_list s ~head:b2.Types.b_hash in
  Alcotest.(check bool) "valid with recency" true
    (Validate.valid_chain o ~recency:(Some 4) chain = Ok ())

let test_chain_must_start_at_genesis () =
  let o = easy_oracle () and rng = Rng.of_seed 20L in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  Alcotest.(check bool) "missing genesis" true
    (Validate.valid_chain o ~recency:None [ b1 ] = Error Validate.Not_genesis_rooted);
  Alcotest.(check bool) "empty chain" true
    (Validate.valid_chain o ~recency:None [] = Error Validate.Not_genesis_rooted)

let test_chain_broken_link () =
  let o = easy_oracle () and rng = Rng.of_seed 21L in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  let b_detached = mine_block o rng ~parent:(Hash.of_raw (Sha256.digest "elsewhere")) [] in
  (match Validate.valid_chain o ~recency:None [ Types.genesis; b1; b_detached ] with
  | Error (Validate.Broken_link { position }) -> Alcotest.(check int) "position" 2 position
  | _ -> Alcotest.fail "expected broken link")

let test_chain_recency_violation () =
  let o = easy_oracle () and rng = Rng.of_seed 22L in
  let s = Store.create () in
  (* Build a 5-block chain, then a block containing a fruit hanging from
     genesis: with window 2 that fruit is stale. *)
  let blocks = build_chain o rng s ~len:5 in
  let stale_fruit = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let head = (List.nth blocks 4).Types.b_hash in
  let bad = mine_block o rng ~parent:head [ stale_fruit ] in
  Store.add s bad;
  let chain = Store.to_list s ~head:bad.Types.b_hash in
  (match Validate.valid_chain o ~recency:(Some 2) chain with
  | Error (Validate.Stale_fruit { position; fruit }) ->
      Alcotest.(check int) "position" 6 position;
      Alcotest.(check bool) "fruit id" true (Hash.equal fruit stale_fruit.Types.f_hash)
  | _ -> Alcotest.fail "expected stale fruit");
  (* The same chain is fine with a window that reaches genesis, and with
     recency disabled. *)
  Alcotest.(check bool) "wide window ok" true
    (Validate.valid_chain o ~recency:(Some 10) chain = Ok ());
  Alcotest.(check bool) "disabled ok" true (Validate.valid_chain o ~recency:None chain = Ok ())

let test_fruit_cannot_hang_from_its_own_block () =
  (* The recency rule requires j < i: a fruit pointing at the block that
     contains it is invalid. *)
  let o = easy_oracle () and rng = Rng.of_seed 23L in
  let s = Store.create () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  Store.add s b1;
  (* Forge: mine a block b2 whose fruit points to b2 itself. We cannot know
     b2's hash before mining, so emulate with a fruit pointing to a sibling
     position: fruit points to b2's parent is fine, to b2 itself impossible
     to construct honestly — point it at an unknown hash instead. *)
  let dangling = mine_fruit o rng ~pointer:(Hash.of_raw (Sha256.digest "future")) () in
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [ dangling ] in
  Store.add s b2;
  let chain = Store.to_list s ~head:b2.Types.b_hash in
  (match Validate.valid_chain o ~recency:(Some 4) chain with
  | Error (Validate.Stale_fruit _) -> ()
  | _ -> Alcotest.fail "unknown hang point must violate recency")

let test_valid_extension_matches_full_check () =
  let o = easy_oracle () and rng = Rng.of_seed 24L in
  let s = Store.create () in
  let blocks = build_chain o rng s ~len:3 in
  let head = (List.nth blocks 2).Types.b_hash in
  let f = mine_fruit o rng ~pointer:head () in
  let b4 = mine_block o rng ~parent:head [ f ] in
  Alcotest.(check bool) "extension ok" true
    (Validate.valid_extension o s ~recency:(Some 3) b4 = Ok ());
  let stale = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let b4' = mine_block o rng ~parent:head [ stale ] in
  (match Validate.valid_extension o s ~recency:(Some 2) b4' with
  | Error (Validate.Stale_fruit _) -> ()
  | _ -> Alcotest.fail "expected stale fruit in extension check")

let test_valid_extension_unknown_parent () =
  let o = easy_oracle () and rng = Rng.of_seed 25L in
  let s = Store.create () in
  let b = mine_block o rng ~parent:(Hash.of_raw (Sha256.digest "void")) [] in
  (match Validate.valid_extension o s ~recency:None b with
  | Error (Validate.Broken_link _) -> ()
  | _ -> Alcotest.fail "expected broken link")

(* --- QCheck ----------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"codec fruit roundtrip (random records)" ~count:200
      (string_of_size Gen.(0 -- 200))
      (fun record ->
        let o = easy_oracle () and rng = Rng.of_seed 31L in
        let f = mine_fruit o rng ~pointer:Types.genesis_hash ~record () in
        let f' = fruit_via_block (block_with o rng f) in
        Types.fruit_equal f f' && f'.Types.f_header.record = record);
    Test.make ~name:"fruit_set_digest order sensitive" ~count:100
      (list_of_size Gen.(2 -- 6) (string_of_size Gen.(1 -- 8)))
      (fun records ->
        let o = easy_oracle () and rng = Rng.of_seed 32L in
        let fruits =
          List.map (fun record -> mine_fruit o rng ~pointer:Types.genesis_hash ~record ()) records
        in
        let d1 = Validate.fruit_set_digest fruits in
        let d2 = Validate.fruit_set_digest (List.rev fruits) in
        List.length fruits < 2 || not (Hash.equal d1 d2));
  ]

let () =
  Alcotest.run "chain"
    [
      ( "types",
        [
          Alcotest.test_case "genesis shape" `Quick test_genesis_shape;
          Alcotest.test_case "equality by hash" `Quick test_equality_by_hash;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fruit roundtrip" `Quick test_codec_fruit_roundtrip;
          Alcotest.test_case "block roundtrip" `Quick test_codec_block_roundtrip;
          Alcotest.test_case "header injective" `Quick test_codec_header_injective;
          Alcotest.test_case "truncation rejected" `Quick test_codec_truncation_rejected;
          Alcotest.test_case "trailing rejected" `Quick test_codec_trailing_rejected;
          Alcotest.test_case "wire sizes" `Quick test_codec_sizes;
        ] );
      ( "store",
        [
          Alcotest.test_case "genesis present" `Quick test_store_genesis_present;
          Alcotest.test_case "add and heights" `Quick test_store_add_and_heights;
          Alcotest.test_case "orphan rejected" `Quick test_store_orphan_rejected;
          Alcotest.test_case "duplicate noop" `Quick test_store_duplicate_noop;
          Alcotest.test_case "to_list" `Quick test_store_to_list;
          Alcotest.test_case "last_n" `Quick test_store_last_n;
          Alcotest.test_case "ancestor at height" `Quick test_store_ancestor_at_height;
          Alcotest.test_case "common prefix" `Quick test_store_common_prefix;
          Alcotest.test_case "fruit indices" `Quick test_store_fruit_indices;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "genesis only" `Quick test_snapshot_genesis_only;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage;
          Alcotest.test_case "rejects broken chains" `Quick test_snapshot_rejects_broken_chain;
          Alcotest.test_case "file and store" `Quick test_snapshot_file_and_store;
        ] );
      ( "validate",
        [
          Alcotest.test_case "valid fruit" `Quick test_valid_fruit;
          Alcotest.test_case "forged fruit hash" `Quick test_invalid_fruit_wrong_hash;
          Alcotest.test_case "header/hash mismatch per oracle" `Quick test_header_mismatch_rejected;
          Alcotest.test_case "fruit difficulty" `Quick test_fruit_difficulty_rejected;
          Alcotest.test_case "valid block + digest" `Quick test_valid_block_and_digest;
          Alcotest.test_case "genesis always valid" `Quick test_genesis_always_valid;
          Alcotest.test_case "valid chain" `Quick test_valid_chain_happy;
          Alcotest.test_case "must start at genesis" `Quick test_chain_must_start_at_genesis;
          Alcotest.test_case "broken link" `Quick test_chain_broken_link;
          Alcotest.test_case "recency violation" `Quick test_chain_recency_violation;
          Alcotest.test_case "unknown hang point" `Quick test_fruit_cannot_hang_from_its_own_block;
          Alcotest.test_case "incremental extension" `Quick test_valid_extension_matches_full_check;
          Alcotest.test_case "extension unknown parent" `Quick test_valid_extension_unknown_parent;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
