(* Tests for Lamport signatures and the currency layer (transfers, state,
   wallet) — the "Bitcoin application" on top of the fruit ledger. *)

module Lamport = Fruitchain_crypto.Lamport
module Hash = Fruitchain_crypto.Hash
module Sha256 = Fruitchain_crypto.Sha256
module Transfer = Fruitchain_currency.Transfer
module State = Fruitchain_currency.State
module Wallet = Fruitchain_currency.Wallet
module Types = Fruitchain_chain.Types

(* --- Lamport -------------------------------------------------------------- *)

let test_lamport_sign_verify () =
  let sk, pk = Lamport.generate ~seed:"alice" in
  let s = Lamport.sign sk "hello world" in
  Alcotest.(check bool) "verifies" true (Lamport.verify pk "hello world" s);
  Alcotest.(check bool) "wrong message" false (Lamport.verify pk "hello worle" s)

let test_lamport_deterministic () =
  let _, pk1 = Lamport.generate ~seed:"bob" in
  let _, pk2 = Lamport.generate ~seed:"bob" in
  Alcotest.(check bool) "same seed same key" true
    (Hash.equal (Lamport.public_key_digest pk1) (Lamport.public_key_digest pk2));
  let _, pk3 = Lamport.generate ~seed:"carol" in
  Alcotest.(check bool) "different seed different key" false
    (Hash.equal (Lamport.public_key_digest pk1) (Lamport.public_key_digest pk3))

let test_lamport_cross_key_rejection () =
  let sk, _ = Lamport.generate ~seed:"signer" in
  let _, other_pk = Lamport.generate ~seed:"other" in
  let s = Lamport.sign sk "msg" in
  Alcotest.(check bool) "other key rejects" false (Lamport.verify other_pk "msg" s)

let test_lamport_codec_roundtrip () =
  let sk, pk = Lamport.generate ~seed:"codec" in
  let pk' = Lamport.public_key_of_bytes (Lamport.public_key_bytes pk) in
  Alcotest.(check bool) "pk roundtrip" true
    (Hash.equal (Lamport.public_key_digest pk) (Lamport.public_key_digest pk'));
  let s = Lamport.sign sk "m" in
  let s' = Lamport.signature_of_bytes (Lamport.signature_bytes s) in
  Alcotest.(check bool) "sig roundtrip verifies" true (Lamport.verify pk' "m" s')

let test_lamport_codec_rejects () =
  Alcotest.check_raises "bad pk" (Invalid_argument "Lamport.public_key_of_bytes: bad length")
    (fun () -> ignore (Lamport.public_key_of_bytes "short"));
  Alcotest.check_raises "bad sig" (Invalid_argument "Lamport.signature_of_bytes: bad length")
    (fun () -> ignore (Lamport.signature_of_bytes "short"))

let test_lamport_tamper_signature () =
  let sk, pk = Lamport.generate ~seed:"tamper" in
  let s = Lamport.sign sk "m" in
  let bytes = Bytes.of_string (Lamport.signature_bytes s) in
  Bytes.set bytes 100 (Char.chr (Char.code (Bytes.get bytes 100) lxor 1));
  let s' = Lamport.signature_of_bytes (Bytes.to_string bytes) in
  Alcotest.(check bool) "tampered rejected" false (Lamport.verify pk "m" s')

(* --- Transfer -------------------------------------------------------------- *)

let addr seed =
  let _, pk = Lamport.generate ~seed in
  Lamport.public_key_digest pk

let test_transfer_roundtrip () =
  let sk, _ = Lamport.generate ~seed:"payer" in
  let t =
    Transfer.make ~secret:sk
      ~outputs:
        [
          { Transfer.recipient = addr "r1"; amount = 70L };
          { Transfer.recipient = addr "r2"; amount = 30L };
        ]
  in
  Alcotest.(check bool) "valid" true (Transfer.signature_valid t);
  Alcotest.(check int64) "total" 100L (Transfer.total t);
  match Transfer.decode (Transfer.encode t) with
  | None -> Alcotest.fail "decode failed"
  | Some t' ->
      Alcotest.(check bool) "sender preserved" true
        (Hash.equal (Transfer.sender_address t) (Transfer.sender_address t'));
      Alcotest.(check bool) "decoded still valid" true (Transfer.signature_valid t');
      Alcotest.(check int) "outputs" 2 (List.length t'.Transfer.outputs)

let test_transfer_decode_rejects_noise () =
  Alcotest.(check bool) "plain record" true (Transfer.decode "hello" = None);
  Alcotest.(check bool) "tx record" true (Transfer.decode "tx:1:2.0" = None);
  Alcotest.(check bool) "truncated" true (Transfer.decode "xfer:\x00\x01abc" = None)

let test_transfer_tamper_output () =
  let sk, _ = Lamport.generate ~seed:"payer2" in
  let t =
    Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "r"; amount = 10L } ]
  in
  (* Redirect the output: signature must fail. *)
  let evil = { t with Transfer.outputs = [ { Transfer.recipient = addr "thief"; amount = 10L } ] } in
  Alcotest.(check bool) "redirected output rejected" false (Transfer.signature_valid evil)

let test_transfer_validation () =
  let sk, _ = Lamport.generate ~seed:"payer3" in
  Alcotest.check_raises "empty outputs" (Invalid_argument "Transfer.make: no outputs")
    (fun () -> ignore (Transfer.make ~secret:sk ~outputs:[]));
  Alcotest.check_raises "zero amount" (Invalid_argument "Transfer.make: non-positive amount")
    (fun () ->
      ignore (Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "r"; amount = 0L } ]))

(* --- State ------------------------------------------------------------------ *)

let test_state_mint_and_balance () =
  let st = State.create () in
  State.mint st (addr "m") 50L;
  State.mint st (addr "m") 25L;
  Alcotest.(check int64) "accumulates" 75L (State.balance st (addr "m"));
  Alcotest.(check int64) "supply" 75L (State.total_supply st);
  Alcotest.(check int64) "unknown address" 0L (State.balance st (addr "nobody"))

let test_state_apply_happy () =
  let st = State.create () in
  let sk, pk = Lamport.generate ~seed:"alice-key" in
  let alice = Lamport.public_key_digest pk in
  State.mint st alice 100L;
  let t =
    Transfer.make ~secret:sk
      ~outputs:
        [
          { Transfer.recipient = addr "bob"; amount = 60L };
          { Transfer.recipient = addr "alice-change"; amount = 40L };
        ]
  in
  (match State.apply st t with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "apply failed");
  Alcotest.(check int64) "bob paid" 60L (State.balance st (addr "bob"));
  Alcotest.(check int64) "change" 40L (State.balance st (addr "alice-change"));
  Alcotest.(check int64) "alice emptied" 0L (State.balance st alice);
  Alcotest.(check bool) "alice key burned" true (State.spent st alice);
  Alcotest.(check int64) "supply conserved" 100L (State.total_supply st)

let test_state_rejects_double_spend () =
  let st = State.create () in
  let sk, pk = Lamport.generate ~seed:"ds" in
  let a = Lamport.public_key_digest pk in
  State.mint st a 10L;
  let t1 = Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "x"; amount = 10L } ] in
  Alcotest.(check bool) "first ok" true (State.apply st t1 = Ok ());
  (* Re-fund the address out of band, then try to spend with the same key. *)
  let t2 = Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "y"; amount = 10L } ] in
  Alcotest.(check bool) "key reuse rejected" true (State.apply st t2 = Error State.Key_reused)

let test_state_rejects_wrong_total () =
  let st = State.create () in
  let sk, pk = Lamport.generate ~seed:"wt" in
  State.mint st (Lamport.public_key_digest pk) 100L;
  let t = Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "x"; amount = 60L } ] in
  Alcotest.(check bool) "partial spend rejected" true (State.apply st t = Error State.Wrong_total)

let test_state_rejects_unknown_sender () =
  let st = State.create () in
  let sk, _ = Lamport.generate ~seed:"ghost" in
  let t = Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "x"; amount = 1L } ] in
  Alcotest.(check bool) "no funds" true (State.apply st t = Error State.Unknown_sender)

let test_state_rejects_bad_signature () =
  let st = State.create () in
  let sk, pk = Lamport.generate ~seed:"sig" in
  State.mint st (Lamport.public_key_digest pk) 10L;
  let t = Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "x"; amount = 10L } ] in
  let evil = { t with Transfer.outputs = [ { Transfer.recipient = addr "e"; amount = 10L } ] } in
  Alcotest.(check bool) "bad signature" true (State.apply st evil = Error State.Bad_signature)

(* --- Wallet ------------------------------------------------------------------ *)

let test_wallet_pay_with_change () =
  let st = State.create () in
  let w = Wallet.create ~seed:"wallet-1" in
  let receive = Wallet.fresh_address w in
  State.mint st receive 100L;
  Alcotest.(check int64) "sees funds" 100L (Wallet.balance w st);
  match Wallet.pay w st ~to_:(addr "merchant") ~amount:30L with
  | Error _ -> Alcotest.fail "payment should succeed"
  | Ok transfer ->
      Alcotest.(check bool) "applies" true (State.apply st transfer = Ok ());
      Alcotest.(check int64) "merchant paid" 30L (State.balance st (addr "merchant"));
      Alcotest.(check int64) "change retained in wallet" 70L (Wallet.balance w st)

let test_wallet_exact_spend_no_change () =
  let st = State.create () in
  let w = Wallet.create ~seed:"wallet-2" in
  State.mint st (Wallet.fresh_address w) 25L;
  match Wallet.pay w st ~to_:(addr "m") ~amount:25L with
  | Error _ -> Alcotest.fail "payment should succeed"
  | Ok transfer ->
      Alcotest.(check int) "single output" 1 (List.length transfer.Transfer.outputs);
      Alcotest.(check bool) "applies" true (State.apply st transfer = Ok ());
      Alcotest.(check int64) "wallet empty" 0L (Wallet.balance w st)

let test_wallet_insufficient () =
  let st = State.create () in
  let w = Wallet.create ~seed:"wallet-3" in
  State.mint st (Wallet.fresh_address w) 5L;
  (match Wallet.pay w st ~to_:(addr "m") ~amount:10L with
  | Error (Wallet.Insufficient { available }) -> Alcotest.(check int64) "reports" 5L available
  | _ -> Alcotest.fail "expected Insufficient");
  let empty = Wallet.create ~seed:"wallet-4" in
  Alcotest.(check bool) "no address" true
    (Wallet.pay empty st ~to_:(addr "m") ~amount:1L = Error Wallet.No_funded_address)

(* --- Ledger replay ------------------------------------------------------------ *)

let test_apply_ledger_end_to_end () =
  (* A tiny hand-built ledger: miner 0 earns two fruits, then a transfer in
     a third fruit moves part of it. Addresses come from per-miner wallets. *)
  let st = State.create () in
  let w0 = Wallet.create ~seed:"miner-0" in
  let a0 = Wallet.fresh_address w0 in
  let miner_address (prov : Types.provenance) =
    match prov.Types.miner with 0 -> a0 | i -> addr (Printf.sprintf "miner-%d" i)
  in
  let fruit ~miner ~record =
    {
      Types.f_header =
        {
          Types.parent = Types.genesis_hash;
          pointer = Types.genesis_hash;
          nonce = 0L;
          digest = Fruitchain_crypto.Merkle.empty_root;
          record;
        };
      f_hash = Hash.of_raw (Sha256.digest (Printf.sprintf "f-%d-%s" miner record));
      f_prov = Some { Types.miner; round = 0; honest = true };
    }
  in
  let f1 = fruit ~miner:0 ~record:"" in
  let f2 = fruit ~miner:0 ~record:"" in
  (* After two 10-coin mints, miner 0 pays 15 to a merchant. *)
  let state_preview = State.create () in
  State.mint state_preview a0 20L;
  let transfer =
    match Wallet.pay w0 state_preview ~to_:(addr "merchant") ~amount:15L with
    | Ok t -> t
    | Error _ -> Alcotest.fail "preview payment failed"
  in
  let f3 = fruit ~miner:1 ~record:(Transfer.encode transfer) in
  let applied, rejected = State.apply_ledger st ~miner_address ~reward:10L [ f1; f2; f3 ] in
  Alcotest.(check (pair int int)) "one applied, none rejected" (1, 0) (applied, rejected);
  Alcotest.(check int64) "merchant holds 15" 15L (State.balance st (addr "merchant"));
  Alcotest.(check int64) "wallet kept the change" 5L (Wallet.balance w0 st);
  Alcotest.(check int64) "miner 1 coinbase" 10L
    (State.balance st (addr "miner-1"));
  Alcotest.(check int64) "supply = 3 rewards" 30L (State.total_supply st)

let test_apply_ledger_skips_replays () =
  (* The same transfer recorded twice (e.g. two fruits carried it): second
     application must be rejected as key reuse, balances unchanged. *)
  let st = State.create () in
  let sk, pk = Lamport.generate ~seed:"replay" in
  let a = Lamport.public_key_digest pk in
  let miner_address (_ : Types.provenance) = a in
  let preview = State.create () in
  State.mint preview a 10L;
  let transfer =
    Transfer.make ~secret:sk ~outputs:[ { Transfer.recipient = addr "dst"; amount = 10L } ]
  in
  ignore preview;
  let fruit record i =
    {
      Types.f_header =
        {
          Types.parent = Types.genesis_hash;
          pointer = Types.genesis_hash;
          nonce = Int64.of_int i;
          digest = Fruitchain_crypto.Merkle.empty_root;
          record;
        };
      f_hash = Hash.of_raw (Sha256.digest (Printf.sprintf "g-%d" i));
      f_prov = Some { Types.miner = 0; round = 0; honest = true };
    }
  in
  let encoded = Transfer.encode transfer in
  let applied, rejected =
    State.apply_ledger st ~miner_address ~reward:10L [ fruit encoded 1; fruit encoded 2 ]
  in
  Alcotest.(check (pair int int)) "replay rejected" (1, 1) (applied, rejected);
  Alcotest.(check int64) "paid once" 10L (State.balance st (addr "dst"))

let () =
  Alcotest.run "currency"
    [
      ( "lamport",
        [
          Alcotest.test_case "sign/verify" `Quick test_lamport_sign_verify;
          Alcotest.test_case "deterministic keys" `Quick test_lamport_deterministic;
          Alcotest.test_case "cross-key rejection" `Quick test_lamport_cross_key_rejection;
          Alcotest.test_case "codec roundtrip" `Quick test_lamport_codec_roundtrip;
          Alcotest.test_case "codec rejects" `Quick test_lamport_codec_rejects;
          Alcotest.test_case "tampered signature" `Quick test_lamport_tamper_signature;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "roundtrip" `Quick test_transfer_roundtrip;
          Alcotest.test_case "rejects noise" `Quick test_transfer_decode_rejects_noise;
          Alcotest.test_case "tampered output" `Quick test_transfer_tamper_output;
          Alcotest.test_case "validation" `Quick test_transfer_validation;
        ] );
      ( "state",
        [
          Alcotest.test_case "mint and balance" `Quick test_state_mint_and_balance;
          Alcotest.test_case "apply happy path" `Quick test_state_apply_happy;
          Alcotest.test_case "double spend" `Quick test_state_rejects_double_spend;
          Alcotest.test_case "wrong total" `Quick test_state_rejects_wrong_total;
          Alcotest.test_case "unknown sender" `Quick test_state_rejects_unknown_sender;
          Alcotest.test_case "bad signature" `Quick test_state_rejects_bad_signature;
        ] );
      ( "wallet",
        [
          Alcotest.test_case "pay with change" `Quick test_wallet_pay_with_change;
          Alcotest.test_case "exact spend" `Quick test_wallet_exact_spend_no_change;
          Alcotest.test_case "insufficient" `Quick test_wallet_insufficient;
        ] );
      ( "ledger-replay",
        [
          Alcotest.test_case "end to end" `Quick test_apply_ledger_end_to_end;
          Alcotest.test_case "skips replays" `Quick test_apply_ledger_skips_replays;
        ] );
    ]
