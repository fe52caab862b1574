(* Tests for Fruitchain_nakamoto: the Π_nak(p) node of §2.4. *)

module Node = Fruitchain_nakamoto.Node
module Types = Fruitchain_chain.Types
module Store = Fruitchain_chain.Store
module Validate = Fruitchain_chain.Validate
module Codec = Fruitchain_chain.Codec
module Hash = Fruitchain_crypto.Hash
module Oracle = Fruitchain_crypto.Oracle
module Sha256 = Fruitchain_crypto.Sha256
module Merkle = Fruitchain_crypto.Merkle
module Rng = Fruitchain_util.Rng
module Message = Fruitchain_net.Message

let setup ?(p = 0.25) ~seed () =
  let oracle = Oracle.real ~p ~pf:p in
  let store = Store.create () in
  let node = Node.create ~id:0 ~store ~rng:(Rng.of_seed seed) in
  (oracle, store, node)

(* The node's state, read through its head id from the shared store. *)
let head store node = Store.hash_at store (Node.head_id node)
let height store node = Store.height_at store (Node.head_id node)
let chain store node = Store.to_list_id store ~head:(Node.head_id node)

let records store node =
  List.filter_map
    (fun (b : Types.block) ->
      if String.equal b.b_header.record "" then None else Some b.b_header.record)
    (chain store node)

let mine_external oracle rng ~parent ~record =
  let rec go () =
    let header =
      { Types.parent; pointer = parent; nonce = Rng.bits64 rng; digest = Merkle.empty_root; record }
    in
    let hash = Oracle.query oracle (Codec.header_bytes header) in
    if Oracle.mined_block oracle hash then
      { Types.b_header = header; b_hash = hash; fruits = []; b_prov = None }
    else go ()
  in
  go ()

let test_initial_state () =
  let _, store, node = setup ~seed:1L () in
  Alcotest.(check int) "height 0" 0 (height store node);
  Alcotest.(check bool) "head genesis" true (Hash.equal (head store node) Types.genesis_hash);
  Alcotest.(check (list string)) "empty ledger" [] (records store node)

let test_mining_extends_chain () =
  let oracle, store, node = setup ~p:1.0 ~seed:2L () in
  (match Node.mine node oracle ~round:0 ~record:"tx1" ~honest:true with
  | Some b ->
      Alcotest.(check int) "height 1" 1 (height store node);
      Alcotest.(check bool) "head updated" true (Hash.equal (head store node) b.Types.b_hash);
      Alcotest.(check string) "record carried" "tx1" b.Types.b_header.record;
      (match b.Types.b_prov with
      | Some prov ->
          Alcotest.(check int) "miner stamped" 0 prov.Types.miner;
          Alcotest.(check bool) "honest stamped" true prov.Types.honest
      | None -> Alcotest.fail "missing provenance")
  | None -> Alcotest.fail "p=1 must mine")

let test_mining_failure_no_change () =
  let oracle = Oracle.real ~p:1e-18 ~pf:1e-18 in
  let store = Store.create () in
  let node = Node.create ~id:0 ~store ~rng:(Rng.of_seed 3L) in
  Alcotest.(check bool) "no block" true
    (Node.mine node oracle ~round:0 ~record:"" ~honest:true = None);
  Alcotest.(check int) "height unchanged" 0 (height store node)

let test_ledger_order () =
  let oracle, store, node = setup ~p:1.0 ~seed:4L () in
  List.iteri
    (fun i r -> ignore (Node.mine node oracle ~round:i ~record:r ~honest:true))
    [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "ledger order" [ "a"; "b"; "c" ] (records store node)

let test_adopt_longer_reject_shorter () =
  let oracle, store, node = setup ~p:0.5 ~seed:5L () in
  let rng = Rng.of_seed 60L in
  let b1 = mine_external oracle rng ~parent:Types.genesis_hash ~record:"x" in
  let b2 = mine_external oracle rng ~parent:b1.Types.b_hash ~record:"y" in
  Node.receive node oracle
    (Message.chain_announce ~sender:1 ~sent_at:0 ~blocks:[ b1; b2 ] ~head:b2.Types.b_hash ());
  Alcotest.(check int) "adopted longer" 2 (height store node);
  let c1 = mine_external oracle rng ~parent:Types.genesis_hash ~record:"z" in
  Node.receive node oracle
    (Message.chain_announce ~sender:2 ~sent_at:1 ~blocks:[ c1 ] ~head:c1.Types.b_hash ());
  Alcotest.(check bool) "kept longer" true (Hash.equal (head store node) b2.Types.b_hash)

let test_tie_keeps_first () =
  let oracle, store, node = setup ~p:0.5 ~seed:6L () in
  let rng = Rng.of_seed 61L in
  let a1 = mine_external oracle rng ~parent:Types.genesis_hash ~record:"a" in
  let b1 = mine_external oracle rng ~parent:Types.genesis_hash ~record:"b" in
  Node.receive node oracle
    (Message.chain_announce ~sender:1 ~sent_at:0 ~blocks:[ a1 ] ~head:a1.Types.b_hash ());
  Node.receive node oracle
    (Message.chain_announce ~sender:2 ~sent_at:0 ~blocks:[ b1 ] ~head:b1.Types.b_hash ());
  Alcotest.(check bool) "first arrival wins ties" true
    (Hash.equal (head store node) a1.Types.b_hash)

let test_invalid_block_dropped_with_descendants () =
  let oracle, store, node = setup ~p:0.5 ~seed:7L () in
  let rng = Rng.of_seed 62L in
  let good = mine_external oracle rng ~parent:Types.genesis_hash ~record:"ok" in
  (* Forge an invalid middle block (bad reference hash) with a valid child
     mined on top of the forged hash. *)
  let forged = { good with Types.b_hash = Hash.of_raw (Sha256.digest "forged") } in
  let child = mine_external oracle rng ~parent:forged.Types.b_hash ~record:"child" in
  Node.receive node oracle
    (Message.chain_announce ~sender:1 ~sent_at:0 ~blocks:[ forged; child ]
       ~head:child.Types.b_hash ());
  Alcotest.(check int) "nothing adopted" 0 (height store node);
  Alcotest.(check bool) "forged not stored" false (Store.mem store forged.Types.b_hash)

let test_fruit_announcements_ignored () =
  let oracle, store, node = setup ~seed:8L () in
  let f =
    { Types.f_header = Types.genesis.b_header; f_hash = Types.genesis_hash; f_prov = None }
  in
  Node.receive node oracle (Message.fruit_announce ~sender:1 ~sent_at:0 f);
  Alcotest.(check int) "unchanged" 0 (height store node)

let test_step_broadcasts_on_success () =
  let oracle, _, node = setup ~p:1.0 ~seed:9L () in
  (match Node.step node oracle ~round:0 ~record:"m" ~incoming:[] with
  | [ msg ] -> (
      match msg.Message.payload with
      | Message.Chain_announce { blocks = [ b ]; head } ->
          Alcotest.(check bool) "announces own head" true (Hash.equal head b.Types.b_hash)
      | _ -> Alcotest.fail "expected chain announce")
  | other -> Alcotest.failf "expected one message, got %d" (List.length other));
  let oracle_hard = Oracle.real ~p:1e-18 ~pf:1e-18 in
  Alcotest.(check int) "silent on failure" 0
    (List.length (Node.step node oracle_hard ~round:1 ~record:"m" ~incoming:[]))

let test_two_nodes_converge () =
  (* Two nodes, synchronous relay: after many rounds they agree on a common
     prefix and both chains validate. *)
  let p = 0.2 in
  let oracle = Oracle.real ~p ~pf:p in
  let store = Store.create () in
  let n0 = Node.create ~id:0 ~store ~rng:(Rng.of_seed 10L) in
  let n1 = Node.create ~id:1 ~store ~rng:(Rng.of_seed 11L) in
  let inbox = [| ref []; ref [] |] in
  for round = 0 to 299 do
    List.iteri
      (fun i node ->
        let incoming = !(inbox.(i)) in
        inbox.(i) := [];
        let out = Node.step node oracle ~round ~record:"" ~incoming in
        inbox.(1 - i) := !(inbox.(1 - i)) @ out)
      [ n0; n1 ]
  done;
  let h0 = head store n0 and h1 = head store n1 in
  let common = Store.common_prefix_height store h0 h1 in
  Alcotest.(check bool) "chains grew" true (height store n0 > 20);
  Alcotest.(check bool) "agree up to short suffix" true
    (min (height store n0) (height store n1) - common <= 2);
  Alcotest.(check bool) "n0 chain valid" true
    (Validate.valid_chain oracle ~recency:None (chain store n0) = Ok ())

let () =
  Alcotest.run "nakamoto"
    [
      ( "node",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "mining extends" `Quick test_mining_extends_chain;
          Alcotest.test_case "failure leaves state" `Quick test_mining_failure_no_change;
          Alcotest.test_case "ledger order" `Quick test_ledger_order;
          Alcotest.test_case "adopt longer only" `Quick test_adopt_longer_reject_shorter;
          Alcotest.test_case "tie keeps first" `Quick test_tie_keeps_first;
          Alcotest.test_case "invalid block dropped" `Quick test_invalid_block_dropped_with_descendants;
          Alcotest.test_case "fruits ignored" `Quick test_fruit_announcements_ignored;
          Alcotest.test_case "step broadcasts" `Quick test_step_broadcasts_on_success;
          Alcotest.test_case "two nodes converge" `Quick test_two_nodes_converge;
        ] );
    ]
