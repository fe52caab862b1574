(* Tests for Fruitchain_core: parameters, the window view, the fruit
   buffer, the FruitChain node (Figure 1 semantics), and ledger
   extraction. Protocol tests run the real SHA-256 oracle at generous
   difficulty so all validity rules are genuinely exercised. *)

module Params = Fruitchain_core.Params
module Window_view = Fruitchain_core.Window_view
module Buffer_f = Fruitchain_core.Buffer
module Node = Fruitchain_core.Node
module Extract = Fruitchain_core.Extract
module Types = Fruitchain_chain.Types
module Codec = Fruitchain_chain.Codec
module Store = Fruitchain_chain.Store
module Validate = Fruitchain_chain.Validate
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Sha256 = Fruitchain_crypto.Sha256
module Merkle = Fruitchain_crypto.Merkle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

let easy_oracle () = Oracle.real ~p:1.0 ~pf:1.0

let mine_block oracle rng ~parent ?(pointer = Types.genesis_hash) fruits =
  let digest = Validate.fruit_set_digest fruits in
  let rec go () =
    let header = { Types.parent; pointer; nonce = Rng.bits64 rng; digest; record = "" } in
    let hash = Oracle.query oracle (Codec.header_bytes header) in
    if Oracle.mined_block oracle hash then
      { Types.b_header = header; b_hash = hash; fruits; b_prov = None }
    else go ()
  in
  go ()

let mine_fruit oracle rng ~pointer ?(record = "r") () =
  let rec go () =
    let header =
      {
        Types.parent = Types.genesis_hash;
        pointer;
        nonce = Rng.bits64 rng;
        digest = Merkle.empty_root;
        record;
      }
    in
    let hash = Oracle.query oracle (Codec.header_bytes header) in
    if Oracle.mined_fruit oracle hash then
      { Types.f_header = header; f_hash = hash; f_prov = None }
    else go ()
  in
  go ()

(* --- Params ----------------------------------------------------------- *)

let test_params_derived () =
  let p = Params.make ~recency_r:4 ~p:0.001 ~pf:0.01 ~kappa:8 () in
  Alcotest.(check int) "window" 32 (Params.recency_window p);
  Alcotest.(check int) "pointer depth" 8 (Params.pointer_depth p);
  Alcotest.(check (float 1e-9)) "q" 10.0 (Params.q p)

let test_params_defaults () =
  let p = Params.make ~p:0.5 ~pf:0.5 ~kappa:2 () in
  Alcotest.(check int) "default R=17" 17 p.Params.recency_r;
  Alcotest.(check bool) "recency on by default" true p.Params.enforce_recency

let test_params_validation () =
  Alcotest.check_raises "p=0" (Invalid_argument "Params.make: p out of (0, 1]") (fun () ->
      ignore (Params.make ~p:0.0 ~pf:0.1 ~kappa:1 ()));
  Alcotest.check_raises "pf>1" (Invalid_argument "Params.make: pf out of (0, 1]") (fun () ->
      ignore (Params.make ~p:0.1 ~pf:1.5 ~kappa:1 ()));
  Alcotest.check_raises "kappa=0" (Invalid_argument "Params.make: kappa must be positive")
    (fun () -> ignore (Params.make ~p:0.1 ~pf:0.1 ~kappa:0 ()))

(* --- Window view ------------------------------------------------------ *)

let build_chain oracle rng store ~len ~fruits_at =
  (* fruits_at: position (1-based) -> fruit list to include there. *)
  let rec go acc parent n =
    if n > len then List.rev acc
    else begin
      let fruits = fruits_at n in
      let b = mine_block oracle rng ~parent fruits in
      Store.add store b;
      go (b :: acc) b.Types.b_hash (n + 1)
    end
  in
  go [] Types.genesis_hash 1

(* Views are read through a cache, as every caller does: following a chain
   one head at a time takes the extension path; asking a fresh cache for a
   head deeper than its window takes the rebuild path. *)
let views_along cache blocks =
  List.map (fun (b : Types.block) -> Window_view.Cache.view cache ~head:b.b_hash) blocks

let last l = List.nth l (List.length l - 1)

let genesis_cache () = Window_view.Cache.create ~window:4 ~store:(Store.create ())
let genesis_view () = Window_view.Cache.view (genesis_cache ()) ~head:Types.genesis_hash

let test_view_genesis () =
  let v = genesis_view () in
  Alcotest.(check int) "height 0" 0 (Window_view.height v);
  Alcotest.(check bool) "genesis recent" true
    (Window_view.is_recent v ~pointer:Types.genesis_hash);
  Alcotest.(check bool) "nothing included" false
    (Window_view.is_included v ~fruit:Types.genesis_hash);
  Alcotest.(check bool) "nothing expired" true (Option.is_none (Window_view.expired v))

let test_view_extend_tracks_window () =
  let o = easy_oracle () and rng = Rng.of_seed 1L in
  let store = Store.create () in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let blocks = build_chain o rng store ~len:5 ~fruits_at:(fun i -> if i = 2 then [ f ] else []) in
  let window = 3 in
  let view = last (views_along (Window_view.Cache.create ~window ~store) blocks) in
  Alcotest.(check int) "height 5" 5 (Window_view.height view);
  (* Window covers heights 3..5: block at height 2 (holding f) expired. *)
  Alcotest.(check bool) "recent head" true
    (Window_view.is_recent view ~pointer:(List.nth blocks 4).Types.b_hash);
  Alcotest.(check bool) "height-3 block recent" true
    (Window_view.is_recent view ~pointer:(List.nth blocks 2).Types.b_hash);
  Alcotest.(check bool) "height-2 block expired" false
    (Window_view.is_recent view ~pointer:(List.nth blocks 1).Types.b_hash);
  Alcotest.(check bool) "old inclusion expired" false
    (Window_view.is_included view ~fruit:f.Types.f_hash);
  Alcotest.(check bool) "expired block reported" true
    (match Window_view.expired view with
    | Some h -> Hash.equal h (List.nth blocks 1).Types.b_hash
    | None -> false)

let test_view_inclusion_visible () =
  let o = easy_oracle () and rng = Rng.of_seed 2L in
  let store = Store.create () in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let blocks = build_chain o rng store ~len:2 ~fruits_at:(fun i -> if i = 2 then [ f ] else []) in
  let view = last (views_along (Window_view.Cache.create ~window:4 ~store) blocks) in
  Alcotest.(check bool) "included" true (Window_view.is_included view ~fruit:f.Types.f_hash)

let test_view_rebuilt_matches_extended () =
  let o = easy_oracle () and rng = Rng.of_seed 3L in
  let store = Store.create () in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let blocks = build_chain o rng store ~len:6 ~fruits_at:(fun i -> if i = 4 then [ f ] else []) in
  let head = (List.nth blocks 5).Types.b_hash in
  let window = 3 in
  let by_extend = last (views_along (Window_view.Cache.create ~window ~store) blocks) in
  (* Six blocks above genesis, the only cached view: past the window. *)
  let by_scan = Window_view.Cache.view (Window_view.Cache.create ~window ~store) ~head in
  Alcotest.(check int) "same height" (Window_view.height by_extend) (Window_view.height by_scan);
  List.iter
    (fun (b : Types.block) ->
      Alcotest.(check bool)
        (Printf.sprintf "recency agrees at height %d" (Store.height store b.b_hash))
        (Window_view.is_recent by_extend ~pointer:b.b_hash)
        (Window_view.is_recent by_scan ~pointer:b.b_hash))
    blocks;
  Alcotest.(check bool) "inclusion agrees"
    (Window_view.is_included by_extend ~fruit:f.Types.f_hash)
    (Window_view.is_included by_scan ~fruit:f.Types.f_hash);
  Alcotest.(check bool) "rebuilt view sees the inclusion" true
    (Window_view.is_included by_scan ~fruit:f.Types.f_hash);
  Alcotest.(check bool) "rebuilt view reports the same expired block" true
    (Option.equal Hash.equal (Window_view.expired by_extend) (Window_view.expired by_scan)
    && Option.is_some (Window_view.expired by_scan));
  let window_of v = List.sort Hash.compare (Window_view.fold_window v ~init:[] ~f:(fun acc h -> h :: acc)) in
  Alcotest.(check bool) "same window blocks" true
    (List.equal Hash.equal (window_of by_extend) (window_of by_scan));
  Alcotest.(check int) "window holds [window] blocks" window (List.length (window_of by_scan))

let test_view_cache_reuses () =
  let o = easy_oracle () and rng = Rng.of_seed 5L in
  let store = Store.create () in
  let blocks = build_chain o rng store ~len:4 ~fruits_at:(fun _ -> []) in
  let cache = Window_view.Cache.create ~window:3 ~store in
  let head = (List.nth blocks 3).Types.b_hash in
  let v1 = Window_view.Cache.view cache ~head in
  let v2 = Window_view.Cache.view cache ~head in
  Alcotest.(check bool) "same object" true (v1 == v2);
  Alcotest.(check int) "correct height" 4 (Window_view.height v1)

let test_view_stale_pointer () =
  let o = easy_oracle () and rng = Rng.of_seed 6L in
  let store = Store.create () in
  let blocks = build_chain o rng store ~len:6 ~fruits_at:(fun _ -> []) in
  let head = (List.nth blocks 5).Types.b_hash in
  let view = Window_view.Cache.view (Window_view.Cache.create ~window:2 ~store) ~head in
  Alcotest.(check bool) "deep block stale" true
    (Window_view.stale_pointer ~store view ~pointer:(List.nth blocks 0).Types.b_hash);
  Alcotest.(check bool) "unknown pointer not stale" false
    (Window_view.stale_pointer ~store view ~pointer:(Hash.of_raw (Sha256.digest "unknown")));
  Alcotest.(check bool) "in-window not stale" false
    (Window_view.stale_pointer ~store view ~pointer:head);
  let whole = Window_view.Cache.view (Window_view.Cache.whole_chain ~store) ~head in
  Alcotest.(check bool) "nothing stale in a whole-chain view" false
    (List.exists
       (fun (b : Types.block) -> Window_view.stale_pointer ~store whole ~pointer:b.b_hash)
       blocks)

(* --- Buffer ----------------------------------------------------------- *)

let test_buffer_add_and_candidates () =
  let o = easy_oracle () and rng = Rng.of_seed 7L in
  let views = genesis_cache () in
  let buf = Buffer_f.create views in
  let view = Window_view.Cache.view views ~head:Types.genesis_hash in
  let f1 = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let f2 = mine_fruit o rng ~pointer:(Hash.of_raw (Sha256.digest "elsewhere")) () in
  Alcotest.(check bool) "f1 new" true (Buffer_f.add buf f1);
  Alcotest.(check bool) "f2 new" true (Buffer_f.add buf f2);
  Alcotest.(check int) "both retained" 2 (Buffer_f.size buf);
  Alcotest.(check int) "only recent one a candidate" 1
    (List.length (Buffer_f.candidates buf ~view));
  Alcotest.(check bool) "candidate is f1" true
    (Types.fruit_equal (List.hd (Buffer_f.candidates buf ~view)) f1)

let test_buffer_idempotent () =
  let o = easy_oracle () and rng = Rng.of_seed 8L in
  let views = genesis_cache () in
  let buf = Buffer_f.create views in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  Alcotest.(check bool) "first add is new" true (Buffer_f.add buf f);
  Alcotest.(check bool) "second add is not" false (Buffer_f.add buf f);
  Alcotest.(check bool) "member" true (Buffer_f.mem buf f);
  Alcotest.(check int) "no duplicate" 1 (Buffer_f.size buf);
  Alcotest.(check int) "one candidate" 1
    (List.length
       (Buffer_f.candidates buf ~view:(Window_view.Cache.view views ~head:Types.genesis_hash)))

let test_buffer_one_hash_two_pointers () =
  (* Identity is (pointer, hash): a fruit whose header is changed to hang
     from another recent block keeps its hash and is a second fruit. *)
  let o = easy_oracle () and rng = Rng.of_seed 13L in
  let store = Store.create () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [] in
  Store.add store b1;
  let views = Window_view.Cache.create ~window:4 ~store in
  let view = Window_view.Cache.view views ~head:b1.Types.b_hash in
  let buf = Buffer_f.create views in
  let f1 = mine_fruit o rng ~pointer:Types.genesis_hash () in
  let f2 = { f1 with f_header = { f1.f_header with pointer = b1.Types.b_hash } } in
  Alcotest.(check bool) "first pointer new" true (Buffer_f.add buf f1);
  Alcotest.(check bool) "second pointer new" true (Buffer_f.add buf f2);
  Alcotest.(check bool) "second pointer again" false (Buffer_f.add buf f2);
  Alcotest.(check int) "both held" 2 (Buffer_f.size buf);
  Alcotest.(check bool) "both members" true (Buffer_f.mem buf f1 && Buffer_f.mem buf f2);
  let pointers =
    List.map (fun (f : Types.fruit) -> f.f_header.pointer) (Buffer_f.candidates buf ~view)
  in
  Alcotest.(check int) "both in F'" 2 (List.length pointers);
  Alcotest.(check bool) "one per pointer" true
    (List.exists (Hash.equal Types.genesis_hash) pointers
    && List.exists (Hash.equal b1.Types.b_hash) pointers)

let test_buffer_candidates_sorted () =
  let o = easy_oracle () and rng = Rng.of_seed 9L in
  let views = genesis_cache () in
  let buf = Buffer_f.create views in
  for i = 0 to 9 do
    ignore
      (Buffer_f.add buf (mine_fruit o rng ~pointer:Types.genesis_hash ~record:(string_of_int i) ()))
  done;
  let hashes =
    List.map
      (fun (f : Types.fruit) -> f.f_hash)
      (Buffer_f.candidates buf ~view:(Window_view.Cache.view views ~head:Types.genesis_hash))
  in
  let sorted = List.sort Hash.compare hashes in
  Alcotest.(check int) "all ten" 10 (List.length hashes);
  Alcotest.(check bool) "canonical order" true (List.equal Hash.equal hashes sorted)

let test_buffer_expire_vs_prune () =
  (* Following the chain one view at a time with [expire] must leave the
     buffer, and F′, identical to a full [prune] against the final view. *)
  let o = easy_oracle () and rng = Rng.of_seed 10L in
  let store = Store.create () in
  let window = 2 in
  let fruits = List.init 6 (fun i ->
      mine_fruit o rng ~pointer:Types.genesis_hash ~record:(Printf.sprintf "f%d" i) ())
  in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [ List.nth fruits 0; List.nth fruits 1 ] in
  Store.add store b1;
  let views = Window_view.Cache.create ~window ~store in
  let incremental = Buffer_f.create views in
  let reference = Buffer_f.create views in
  List.iter (fun f ->
      ignore (Buffer_f.add incremental f : bool);
      ignore (Buffer_f.add reference f : bool))
    fruits;
  let view1 = Window_view.Cache.view views ~head:b1.Types.b_hash in
  Buffer_f.expire incremental ~view:view1;
  Buffer_f.prune reference ~store ~view:view1;
  let hashes buf view = List.map (fun (f : Types.fruit) -> f.f_hash) (Buffer_f.candidates buf ~view) in
  Alcotest.(check int) "recorded fruits are not candidates" 4
    (List.length (hashes incremental view1));
  Alcotest.(check bool) "same candidates" true
    (List.equal Hash.equal (hashes reference view1) (hashes incremental view1));
  (* Grow twice more so genesis-hanging fruits expire (window 2). *)
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [] in
  Store.add store b2;
  let b3 = mine_block o rng ~parent:b2.Types.b_hash [] in
  Store.add store b3;
  let view2 = Window_view.Cache.view views ~head:b2.Types.b_hash in
  let view3 = Window_view.Cache.view views ~head:b3.Types.b_hash in
  Buffer_f.expire incremental ~view:view2;
  Buffer_f.expire incremental ~view:view3;
  Buffer_f.prune reference ~store ~view:view3;
  Alcotest.(check int) "expired fruits dropped by both" (Buffer_f.size reference)
    (Buffer_f.size incremental);
  Alcotest.(check int) "nothing left" 0 (Buffer_f.size incremental);
  Alcotest.(check bool) "still identical" true
    (List.equal Hash.equal (hashes reference view3) (hashes incremental view3))

let test_buffer_recency_disabled () =
  let o = easy_oracle () and rng = Rng.of_seed 11L in
  let store = Store.create () in
  let views = Window_view.Cache.whole_chain ~store in
  let buf = Buffer_f.create views in
  let view = Window_view.Cache.view views ~head:Types.genesis_hash in
  let f = mine_fruit o rng ~pointer:(Hash.of_raw (Sha256.digest "anywhere")) () in
  ignore (Buffer_f.add buf f : bool);
  Alcotest.(check int) "unknown pointer still candidate" 1
    (List.length (Buffer_f.candidates buf ~view));
  Buffer_f.prune buf ~store ~view;
  Alcotest.(check int) "never pruned" 1 (Buffer_f.size buf)

let test_buffer_recency_disabled_remembers_chain () =
  (* Without recency "not yet recorded" means on the whole chain: a
     recorded fruit stays out of F′ however far its block sinks and across
     prunes, and comes back only when a reorg orphans its block. *)
  let o = easy_oracle () and rng = Rng.of_seed 12L in
  let store = Store.create () in
  let views = Window_view.Cache.whole_chain ~store in
  let buf = Buffer_f.create views in
  let f = mine_fruit o rng ~pointer:Types.genesis_hash () in
  ignore (Buffer_f.add buf f : bool);
  let grow head fruits_per_block =
    List.fold_left
      (fun head fruits ->
        let b = mine_block o rng ~parent:head fruits in
        Store.add store b;
        let view = Window_view.Cache.view views ~head:b.Types.b_hash in
        Buffer_f.expire buf ~view;
        b.Types.b_hash)
      head fruits_per_block
  in
  let candidates head =
    List.length (Buffer_f.candidates buf ~view:(Window_view.Cache.view views ~head))
  in
  let head = grow Types.genesis_hash [ [ f ]; []; []; []; [] ] in
  let view = Window_view.Cache.view views ~head in
  Alcotest.(check bool) "recorded five blocks down" true
    (Window_view.is_included view ~fruit:f.Types.f_hash);
  Alcotest.(check int) "not a candidate" 0 (candidates head);
  Buffer_f.prune buf ~store ~view;
  Alcotest.(check int) "not a candidate after a prune" 0 (candidates head);
  let fork = grow Types.genesis_hash [ []; []; []; []; []; [] ] in
  Buffer_f.prune buf ~store ~view:(Window_view.Cache.view views ~head:fork);
  Alcotest.(check int) "a candidate again once its block is orphaned" 1 (candidates fork);
  Alcotest.(check int) "never dropped" 1 (Buffer_f.size buf)

(* --- Node (Figure 1) --------------------------------------------------- *)

let node_setup ?(p = 1.0 /. 8.0) ?(pf = 0.5) ?(kappa = 2) ?(recency_r = 2) ~seed () =
  let params = Params.make ~p ~pf ~kappa ~recency_r () in
  let oracle = Oracle.real ~p ~pf in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let node = Node.create ~id:0 ~params ~store ~views ~rng:(Rng.of_seed seed) () in
  (params, oracle, store, views, node)

let test_node_starts_at_genesis () =
  let _, _, _, _, node = node_setup ~seed:1L () in
  Alcotest.(check int) "height 0" 0 (Node.height node);
  Alcotest.(check int) "empty buffer" 0 (Node.buffer_size node);
  Alcotest.(check (list string)) "empty ledger" [] (Node.ledger node)

let test_node_mines_and_extends () =
  let _, oracle, _, _, node = node_setup ~seed:2L () in
  (* With p = 1/8, 200 attempts mine ~25 blocks. *)
  let blocks = ref 0 and fruits = ref 0 in
  for round = 0 to 199 do
    let { Node.fruit; block } =
      Node.mine node oracle ~round ~record:(Printf.sprintf "m%d" round) ~honest:true
    in
    if Option.is_some block then incr blocks;
    if Option.is_some fruit then incr fruits
  done;
  Alcotest.(check bool) "mined some blocks" true (!blocks > 5);
  Alcotest.(check bool) "mined some fruits" true (!fruits > 50);
  Alcotest.(check int) "chain height = blocks mined" !blocks (Node.height node)

let test_node_chain_stays_valid () =
  let params, oracle, _, _, node = node_setup ~seed:3L () in
  for round = 0 to 299 do
    ignore (Node.mine node oracle ~round ~record:(Printf.sprintf "m%d" round) ~honest:true)
  done;
  match
    Validate.valid_chain oracle ~recency:(Some (Params.recency_window params)) (Node.chain node)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-mined chain invalid: %a" Validate.pp_chain_error e

let test_node_includes_recent_fruits () =
  let _, oracle, _, _, node = node_setup ~seed:4L () in
  (* Deliver a foreign fruit hanging from genesis; the node's next block
     must record it (genesis is within the window at the start). *)
  let rng = Rng.of_seed 99L in
  let foreign = mine_fruit (easy_oracle ()) rng ~pointer:Types.genesis_hash ~record:"foreign" () in
  (* Make it valid under the node's oracle: re-mine with node's oracle. *)
  let rec valid_foreign () =
    let f = mine_fruit oracle rng ~pointer:Types.genesis_hash ~record:"foreign" () in
    if Validate.valid_fruit oracle f then f else valid_foreign ()
  in
  let foreign = if Validate.valid_fruit oracle foreign then foreign else valid_foreign () in
  Node.receive node oracle (Message.fruit_announce ~sender:1 ~sent_at:0 foreign);
  Alcotest.(check int) "buffered" 1 (Node.buffer_size node);
  Alcotest.(check bool) "is candidate" true
    (List.exists (fun (f : Types.fruit) -> Types.fruit_equal f foreign) (Node.candidate_fruits node));
  (* Mine until a block lands; it must contain the foreign fruit. *)
  let rec mine_until_block round =
    match (Node.mine node oracle ~round ~record:"" ~honest:true).Node.block with
    | Some b -> b
    | None -> mine_until_block (round + 1)
  in
  let b = mine_until_block 0 in
  Alcotest.(check bool) "foreign fruit recorded" true
    (List.exists (fun (f : Types.fruit) -> Types.fruit_equal f foreign) b.Types.fruits);
  Alcotest.(check (list string)) "ledger contains it"
    [ "foreign" ]
    (List.filter (String.equal "foreign") (Node.ledger node))

let test_node_rejects_invalid_fruit () =
  let _, oracle, _, _, node = node_setup ~seed:5L () in
  let forged =
    {
      Types.f_header =
        {
          Types.parent = Types.genesis_hash;
          pointer = Types.genesis_hash;
          nonce = 0L;
          digest = Merkle.empty_root;
          record = "fake";
        };
      f_hash = Hash.of_raw (Sha256.digest "not the header hash");
      f_prov = None;
    }
  in
  Node.receive node oracle (Message.fruit_announce ~sender:1 ~sent_at:0 forged);
  Alcotest.(check int) "rejected" 0 (Node.buffer_size node)

let test_node_adopts_longer_chain () =
  let _, oracle, store, _, node = node_setup ~seed:6L () in
  let rng = Rng.of_seed 50L in
  (* Build a 2-block chain externally (same store). *)
  let rec mine_valid parent =
    let b = mine_block oracle rng ~parent [] in
    if Validate.valid_block oracle b then b else mine_valid parent
  in
  let b1 = mine_valid Types.genesis_hash in
  let b2 = mine_valid b1.Types.b_hash in
  ignore store;
  Node.receive node oracle
    (Message.chain_announce ~sender:1 ~sent_at:0 ~blocks:[ b1; b2 ] ~head:b2.Types.b_hash ());
  Alcotest.(check int) "adopted" 2 (Node.height node);
  Alcotest.(check bool) "head is b2" true (Hash.equal (Node.head node) b2.Types.b_hash)

let test_node_ignores_shorter_chain () =
  let _, oracle, _, _, node = node_setup ~seed:7L () in
  let rng = Rng.of_seed 51L in
  let rec mine_valid parent =
    let b = mine_block oracle rng ~parent [] in
    if Validate.valid_block oracle b then b else mine_valid parent
  in
  let b1 = mine_valid Types.genesis_hash in
  let b2 = mine_valid b1.Types.b_hash in
  Node.receive node oracle
    (Message.chain_announce ~sender:1 ~sent_at:0 ~blocks:[ b1; b2 ] ~head:b2.Types.b_hash ());
  (* A competing 1-block chain must not displace the 2-block one; nor must
     an equal-length one. *)
  let c1 = mine_valid Types.genesis_hash in
  Node.receive node oracle
    (Message.chain_announce ~sender:2 ~sent_at:1 ~blocks:[ c1 ] ~head:c1.Types.b_hash ());
  Alcotest.(check bool) "kept b2" true (Hash.equal (Node.head node) b2.Types.b_hash);
  let c2 = mine_valid c1.Types.b_hash in
  Node.receive node oracle
    (Message.chain_announce ~sender:2 ~sent_at:2 ~blocks:[ c2 ] ~head:c2.Types.b_hash ());
  Alcotest.(check bool) "tie does not displace" true (Hash.equal (Node.head node) b2.Types.b_hash)

let test_node_rebuffers_fruits_on_reorg () =
  (* The fairness mechanism: a fruit recorded in a block that gets orphaned
     must become a candidate again on the winning chain. *)
  let _, oracle, _, _, node = node_setup ~seed:8L () in
  let rng = Rng.of_seed 52L in
  let rec mine_valid_fruit ~record =
    let f = mine_fruit oracle rng ~pointer:Types.genesis_hash ~record () in
    if Validate.valid_fruit oracle f then f else mine_valid_fruit ~record
  in
  let rec mine_valid parent fruits =
    let b = mine_block oracle rng ~parent fruits in
    if Validate.valid_block oracle b then b else mine_valid parent fruits
  in
  let f = mine_valid_fruit ~record:"precious" in
  (* Branch A records f at height 1. *)
  let a1 = mine_valid Types.genesis_hash [ f ] in
  Node.receive node oracle
    (Message.chain_announce ~sender:1 ~sent_at:0 ~blocks:[ a1 ] ~head:a1.Types.b_hash ());
  Alcotest.(check bool) "f recorded, not candidate" false
    (List.exists (fun (g : Types.fruit) -> Types.fruit_equal g f) (Node.candidate_fruits node));
  (* Branch B (longer) does not record f: after adoption f is a candidate
     again. *)
  let b1 = mine_valid Types.genesis_hash [] in
  let b2 = mine_valid b1.Types.b_hash [] in
  Node.receive node oracle
    (Message.chain_announce ~sender:2 ~sent_at:1 ~blocks:[ b1; b2 ] ~head:b2.Types.b_hash ());
  Alcotest.(check bool) "reorged to B" true (Hash.equal (Node.head node) b2.Types.b_hash);
  Alcotest.(check bool) "f is a candidate again" true
    (List.exists (fun (g : Types.fruit) -> Types.fruit_equal g f) (Node.candidate_fruits node))

let test_node_two_for_one_same_query () =
  (* At p = pf = 1 a single step wins both: the fruit and block share the
     reference hash and the block does not contain its twin fruit. *)
  let params = Params.make ~p:1.0 ~pf:1.0 ~kappa:2 ~recency_r:2 () in
  let oracle = Oracle.real ~p:1.0 ~pf:1.0 in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let node = Node.create ~id:0 ~params ~store ~views ~rng:(Rng.of_seed 9L) () in
  let { Node.fruit; block } = Node.mine node oracle ~round:0 ~record:"m" ~honest:true in
  match (fruit, block) with
  | Some f, Some b ->
      Alcotest.(check bool) "shared reference" true (Hash.equal f.Types.f_hash b.Types.b_hash);
      Alcotest.(check int) "block has no fruits yet" 0 (List.length b.Types.fruits);
      (* The twin fruit is buffered and lands in the NEXT block. *)
      let { Node.block = block2; _ } = Node.mine node oracle ~round:1 ~record:"m2" ~honest:true in
      (match block2 with
      | Some b2 ->
          Alcotest.(check bool) "twin fruit recorded next" true
            (List.exists (fun (g : Types.fruit) -> Types.fruit_equal g f) b2.Types.fruits)
      | None -> Alcotest.fail "p=1 must mine")
  | _ -> Alcotest.fail "p=pf=1 must win both"

let test_node_release_starts_empty () =
  (* A node spawned after another released its buffer's slot holds
     nothing, even on that slot: it takes a fruit the released node held. *)
  let params, oracle, store, views, node = node_setup ~seed:14L () in
  let f = mine_fruit oracle (Rng.of_seed 15L) ~pointer:Types.genesis_hash () in
  Node.receive node oracle (Message.fruit_announce ~sender:9 ~sent_at:0 f);
  Alcotest.(check int) "held" 1 (Node.buffer_size node);
  Node.release node;
  let reborn = Node.create ~id:0 ~params ~store ~views ~rng:(Rng.of_seed 16L) () in
  Alcotest.(check int) "starts empty" 0 (Node.buffer_size reborn);
  Alcotest.(check int) "no candidates" 0 (List.length (Node.candidate_fruits reborn));
  Node.receive reborn oracle (Message.fruit_announce ~sender:9 ~sent_at:0 f);
  Alcotest.(check int) "takes the fruit" 1 (Node.buffer_size reborn);
  Alcotest.(check int) "a candidate" 1 (List.length (Node.candidate_fruits reborn))

let test_node_step_broadcasts () =
  let _, oracle, _, _, node = node_setup ~p:1.0 ~pf:1.0 ~seed:10L () in
  let out = Node.step node oracle ~round:0 ~record:"m" ~incoming:[] in
  Alcotest.(check int) "fruit + chain announcements" 2 (List.length out);
  let kinds =
    List.map
      (fun (m : Message.t) ->
        match m.payload with Message.Fruit_announce _ -> `F | Message.Chain_announce _ -> `C)
      out
  in
  Alcotest.(check bool) "one of each" true (List.mem `F kinds && List.mem `C kinds)

(* --- Gossip (footnote 2) ------------------------------------------------ *)

let test_gossip_relays_unseen_fruit () =
  let params = Params.make ~p:(1.0 /. 8.0) ~pf:0.5 ~kappa:2 ~recency_r:2 () in
  let oracle = Oracle.real ~p:params.Params.p ~pf:params.Params.pf in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let node = Node.create ~gossip:true ~id:0 ~params ~store ~views ~rng:(Rng.of_seed 1L) () in
  let rng = Rng.of_seed 90L in
  let rec valid_fruit () =
    let f = mine_fruit oracle rng ~pointer:Types.genesis_hash ~record:"gossiped" () in
    if Validate.valid_fruit oracle f then f else valid_fruit ()
  in
  let f = valid_fruit () in
  (* Deliver the fruit to this node only; its next step must include a
     relay announcement of it, flagged as such. *)
  let out =
    Node.step node oracle ~round:1 ~record:""
      ~incoming:[ Message.fruit_announce ~sender:7 ~sent_at:0 f ]
  in
  let relays =
    List.filter
      (fun (m : Message.t) ->
        m.Message.relay
        && match m.payload with Message.Fruit_announce g -> Types.fruit_equal g f | _ -> false)
      out
  in
  Alcotest.(check int) "one relay" 1 (List.length relays);
  (* Delivering the same fruit again produces no second relay. *)
  let out2 =
    Node.step node oracle ~round:2 ~record:""
      ~incoming:[ Message.fruit_announce ~sender:8 ~sent_at:1 f ]
  in
  Alcotest.(check int) "no duplicate relay" 0
    (List.length (List.filter (fun (m : Message.t) -> m.Message.relay) out2))

let test_gossip_off_by_default () =
  let params = Params.make ~p:(1.0 /. 8.0) ~pf:0.5 ~kappa:2 ~recency_r:2 () in
  let oracle = Oracle.real ~p:params.Params.p ~pf:params.Params.pf in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let node = Node.create ~id:0 ~params ~store ~views ~rng:(Rng.of_seed 2L) () in
  let rng = Rng.of_seed 91L in
  let rec valid_fruit () =
    let f = mine_fruit oracle rng ~pointer:Types.genesis_hash () in
    if Validate.valid_fruit oracle f then f else valid_fruit ()
  in
  let out =
    Node.step node oracle ~round:1 ~record:""
      ~incoming:[ Message.fruit_announce ~sender:7 ~sent_at:0 (valid_fruit ()) ]
  in
  Alcotest.(check int) "no relays without gossip" 0
    (List.length (List.filter (fun (m : Message.t) -> m.Message.relay) out))

let test_gossip_spreads_targeted_delivery () =
  (* Three nodes in a line: sender delivers a fruit to node 0 only; with
     gossip the fruit reaches every buffer within two hops. Block mining is
     switched off (p ~ 0) so only the relayed fruit moves. *)
  let params = Params.make ~p:1e-12 ~pf:0.5 ~kappa:2 ~recency_r:2 () in
  let oracle = Oracle.real ~p:params.Params.p ~pf:params.Params.pf in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let nodes =
    Array.init 3 (fun i ->
        Node.create ~gossip:true ~id:i ~params ~store ~views ~rng:(Rng.of_seed (Int64.of_int i))
          ())
  in
  let rng = Rng.of_seed 92L in
  let rec valid_fruit () =
    let f = mine_fruit oracle rng ~pointer:Types.genesis_hash ~record:"wanted" () in
    if Validate.valid_fruit oracle f then f else valid_fruit ()
  in
  let f = valid_fruit () in
  let has node =
    List.exists (fun (g : Types.fruit) -> Types.fruit_equal g f) (Node.candidate_fruits node)
  in
  (* Round 1: only node 0 hears of it. *)
  let out0 =
    Node.step nodes.(0) oracle ~round:1 ~record:""
      ~incoming:[ Message.fruit_announce ~sender:9 ~sent_at:0 f ]
  in
  Alcotest.(check bool) "node 0 has it" true (has nodes.(0));
  Alcotest.(check bool) "node 1 not yet" false (has nodes.(1));
  (* Round 2: node 0's relay reaches node 1 (line topology). *)
  let out1 = Node.step nodes.(1) oracle ~round:2 ~record:"" ~incoming:out0 in
  Alcotest.(check bool) "node 1 has it" true (has nodes.(1));
  (* Round 3: node 1's relay reaches node 2. *)
  ignore (Node.step nodes.(2) oracle ~round:3 ~record:"" ~incoming:out1);
  Alcotest.(check bool) "node 2 has it" true (has nodes.(2))

let test_gossip_relays_once_in_large_group () =
  (* 72 fruits on one pointer, past the 64 a buffer group once scanned before
     it switched to an index (the case keeps that name) and far past a usual
     hang-point group (about p_f/p = 10 fruits); the first and the last
     delivered again must still be known. Block mining is off (p ~ 0). *)
  let params = Params.make ~p:1e-12 ~pf:0.5 ~kappa:2 ~recency_r:2 () in
  let oracle = Oracle.real ~p:params.Params.p ~pf:params.Params.pf in
  let store = Store.create () in
  let views = Window_view.Cache.create ~window:(Params.recency_window params) ~store in
  let node = Node.create ~gossip:true ~id:0 ~params ~store ~views ~rng:(Rng.of_seed 3L) () in
  let rng = Rng.of_seed 93L in
  let fruits =
    List.init 72 (fun i ->
        mine_fruit oracle rng ~pointer:Types.genesis_hash ~record:(string_of_int i) ())
  in
  let deliver round fs =
    let incoming = List.map (Message.fruit_announce ~sender:7 ~sent_at:(round - 1)) fs in
    List.filter_map
      (fun (m : Message.t) ->
        match m.payload with Message.Fruit_announce f when m.relay -> Some f | _ -> None)
      (Node.step node oracle ~round ~record:"" ~incoming)
  in
  Alcotest.(check bool) "each relayed once, in arrival order" true
    (List.equal Types.fruit_equal fruits (deliver 1 fruits));
  Alcotest.(check int) "first and last not relayed again" 0
    (List.length (deliver 2 [ List.hd fruits; List.nth fruits (List.length fruits - 1) ]))

(* --- Extract ----------------------------------------------------------- *)

let test_extract_order_and_dedup () =
  let o = easy_oracle () and rng = Rng.of_seed 11L in
  let f1 = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"one" () in
  let f2 = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"two" () in
  let f3 = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"three" () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [ f1; f2 ] in
  (* f2 duplicated in the next block: only the first occurrence counts. *)
  let b2 = mine_block o rng ~parent:b1.Types.b_hash [ f2; f3 ] in
  let chain = [ Types.genesis; b1; b2 ] in
  let fruits = Extract.fruits_of_chain chain in
  Alcotest.(check int) "distinct fruits" 3 (List.length fruits);
  Alcotest.(check (list string)) "ledger order" [ "one"; "two"; "three" ]
    (Extract.ledger_of_chain chain)

let test_extract_drops_empty_records () =
  let o = easy_oracle () and rng = Rng.of_seed 12L in
  let f1 = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"" () in
  let f2 = mine_fruit o rng ~pointer:Types.genesis_hash ~record:"real" () in
  let b1 = mine_block o rng ~parent:Types.genesis_hash [ f1; f2 ] in
  Alcotest.(check (list string)) "padding dropped" [ "real" ]
    (Extract.ledger_of_chain [ Types.genesis; b1 ]);
  Alcotest.(check int) "fruits still counted" 2
    (List.length (Extract.fruits_of_chain [ Types.genesis; b1 ]))

let () =
  Alcotest.run "core"
    [
      ( "params",
        [
          Alcotest.test_case "derived quantities" `Quick test_params_derived;
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "validation" `Quick test_params_validation;
        ] );
      ( "window_view",
        [
          Alcotest.test_case "genesis view" `Quick test_view_genesis;
          Alcotest.test_case "extend tracks window" `Quick test_view_extend_tracks_window;
          Alcotest.test_case "inclusion visible" `Quick test_view_inclusion_visible;
          Alcotest.test_case "rebuilt = extended" `Quick test_view_rebuilt_matches_extended;
          Alcotest.test_case "cache reuses" `Quick test_view_cache_reuses;
          Alcotest.test_case "stale pointer" `Quick test_view_stale_pointer;
        ] );
      ( "buffer",
        [
          Alcotest.test_case "add and candidates" `Quick test_buffer_add_and_candidates;
          Alcotest.test_case "idempotent add" `Quick test_buffer_idempotent;
          Alcotest.test_case "one hash on two pointers" `Quick test_buffer_one_hash_two_pointers;
          Alcotest.test_case "canonical order" `Quick test_buffer_candidates_sorted;
          Alcotest.test_case "expire = prune" `Quick test_buffer_expire_vs_prune;
          Alcotest.test_case "recency disabled" `Quick test_buffer_recency_disabled;
          Alcotest.test_case "recency disabled remembers the chain" `Quick
            test_buffer_recency_disabled_remembers_chain;
        ] );
      ( "node",
        [
          Alcotest.test_case "starts at genesis" `Quick test_node_starts_at_genesis;
          Alcotest.test_case "mines and extends" `Quick test_node_mines_and_extends;
          Alcotest.test_case "chain stays valid" `Quick test_node_chain_stays_valid;
          Alcotest.test_case "includes recent fruits" `Quick test_node_includes_recent_fruits;
          Alcotest.test_case "rejects invalid fruit" `Quick test_node_rejects_invalid_fruit;
          Alcotest.test_case "adopts longer chain" `Quick test_node_adopts_longer_chain;
          Alcotest.test_case "ignores shorter/tie" `Quick test_node_ignores_shorter_chain;
          Alcotest.test_case "rebuffers on reorg" `Quick test_node_rebuffers_fruits_on_reorg;
          Alcotest.test_case "2-for-1 same query" `Quick test_node_two_for_one_same_query;
          Alcotest.test_case "step broadcasts" `Quick test_node_step_broadcasts;
          Alcotest.test_case "released slot starts empty" `Quick test_node_release_starts_empty;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "relays unseen fruit" `Quick test_gossip_relays_unseen_fruit;
          Alcotest.test_case "off by default" `Quick test_gossip_off_by_default;
          Alcotest.test_case "spreads targeted delivery" `Quick
            test_gossip_spreads_targeted_delivery;
          Alcotest.test_case "relays once past the scan limit" `Quick
            test_gossip_relays_once_in_large_group;
        ] );
      ( "extract",
        [
          Alcotest.test_case "order and dedup" `Quick test_extract_order_and_dedup;
          Alcotest.test_case "drops empty records" `Quick test_extract_drops_empty_records;
        ] );
    ]
