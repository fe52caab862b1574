(* Edge-case unit tests for the arena Store: [last_n]/[to_list] boundary
   behavior (n <= 0, genesis head, n past the chain length — the cases the
   arena rewrite fixed and documented), the id-plane API, and a check that
   the interface keeps [Store.id] abstract. The bulk equivalence with the
   pre-arena store lives in test_differential.ml. *)

module Types = Fruitchain_chain.Types
module Store = Fruitchain_chain.Store
module Hash = Fruitchain_crypto.Hash
module Sha256 = Fruitchain_crypto.Sha256
module Merkle = Fruitchain_crypto.Merkle

let mk_block ~parent ~tag =
  {
    Types.b_header =
      { parent; pointer = parent; nonce = Int64.of_int tag; digest = Merkle.empty_root; record = "" };
    b_hash = Hash.of_raw (Sha256.digest (Printf.sprintf "store-edge-%d" tag));
    fruits = [];
    b_prov = None;
  }

(* A straight chain of [len] blocks on genesis; returns the store and the
   hashes, genesis first. *)
let straight_chain len =
  let s = Store.create () in
  let hashes = Array.make (len + 1) Types.genesis.b_hash in
  for i = 1 to len do
    let b = mk_block ~parent:hashes.(i - 1) ~tag:i in
    Store.add s b;
    hashes.(i) <- b.Types.b_hash
  done;
  (s, hashes)

let hashes_of = List.map (fun (b : Types.block) -> b.Types.b_hash)
let hash_t = Alcotest.testable Hash.pp Hash.equal

(* --- last_n / to_list edges ------------------------------------------- *)

let test_last_n_zero () =
  let s, hs = straight_chain 4 in
  Alcotest.(check (list hash_t)) "n = 0 is empty" [] (hashes_of (Store.last_n s ~head:hs.(4) 0))

let test_last_n_negative () =
  (* The pre-arena implementation looped to genesis on a negative n and
     returned the whole chain; the arena documents and returns []. *)
  let s, hs = straight_chain 4 in
  Alcotest.(check (list hash_t)) "n < 0 is empty" []
    (hashes_of (Store.last_n s ~head:hs.(4) (-3)))

let test_last_n_genesis_head () =
  let s, _ = straight_chain 2 in
  let head = Types.genesis.b_hash in
  Alcotest.(check (list hash_t)) "n = 1 at genesis" [ head ]
    (hashes_of (Store.last_n s ~head 1));
  Alcotest.(check (list hash_t)) "n > 1 at genesis stops at genesis" [ head ]
    (hashes_of (Store.last_n s ~head 5))

let test_last_n_oversized () =
  let s, hs = straight_chain 3 in
  Alcotest.(check int) "n > length returns whole chain" 4
    (List.length (Store.last_n s ~head:hs.(3) 100));
  Alcotest.(check int) "n = length + 1 includes genesis" 4
    (List.length (Store.last_n s ~head:hs.(3) 4))

let test_last_n_exact () =
  let s, hs = straight_chain 3 in
  let got = Store.last_n s ~head:hs.(3) 2 in
  Alcotest.(check (list hash_t)) "oldest-first, ends at head" [ hs.(2); hs.(3) ]
    (hashes_of got)

let test_to_list_genesis () =
  let s, _ = straight_chain 2 in
  Alcotest.(check (list hash_t)) "genesis head" [ Types.genesis.b_hash ]
    (hashes_of (Store.to_list s ~head:Types.genesis.b_hash))

(* --- id plane --------------------------------------------------------- *)

let test_add_id_idempotent () =
  let s, hs = straight_chain 1 in
  let b = Store.find_exn s hs.(1) in
  let i1 = Store.add_id s b in
  let i2 = Store.add_id s b in
  Alcotest.(check bool) "same id" true (Store.id_equal i1 i2);
  Alcotest.(check bool) "no second block" true
    (Store.id_equal i2 (Store.id s hs.(1)))

let test_add_id_orphan_rejected () =
  let s = Store.create () in
  let orphan = mk_block ~parent:(Hash.of_raw (Sha256.digest "nowhere")) ~tag:99 in
  Alcotest.check_raises "orphan" (Invalid_argument "Store.add: parent unknown") (fun () ->
      ignore (Store.add_id s orphan))

let test_genesis_parent_is_genesis () =
  let s = Store.create () in
  Alcotest.(check bool) "genesis is its own parent" true
    (Store.id_equal (Store.parent_id s Store.genesis_id) Store.genesis_id)

let test_ancestor_id_bounds () =
  let s, hs = straight_chain 3 in
  let head = Store.id s hs.(3) in
  Alcotest.(check bool) "negative height" true
    (Option.is_none (Store.ancestor_id_at_height s ~head ~height:(-1)));
  Alcotest.(check bool) "beyond head" true
    (Option.is_none (Store.ancestor_id_at_height s ~head ~height:4));
  (match Store.ancestor_id_at_height s ~head ~height:0 with
  | Some i -> Alcotest.(check bool) "height 0 is genesis" true (Store.id_equal i Store.genesis_id)
  | None -> Alcotest.fail "genesis ancestor missing");
  match Store.ancestor_id_at_height s ~head ~height:3 with
  | Some i -> Alcotest.(check bool) "own height is head" true (Store.id_equal i head)
  | None -> Alcotest.fail "head ancestor missing"

let test_common_prefix_id () =
  let s, hs = straight_chain 3 in
  let head = Store.id s hs.(3) in
  Alcotest.(check int) "same id" 3 (Store.common_prefix_height_id s head head);
  Alcotest.(check int) "vs genesis" 0 (Store.common_prefix_height_id s head Store.genesis_id)

(* --- interface abstraction -------------------------------------------- *)

let test_id_is_abstract () =
  (* The arena representation must not leak: [type id] in store.mli has no
     manifest, so callers cannot fabricate or arithmetize ids. Tests run
     from _build/default/test with the built library sources alongside. *)
  let path = Filename.concat Filename.parent_dir_name "lib/chain/store.mli" in
  if not (Sys.file_exists path) then Alcotest.skip ()
  else begin
    let ic = open_in path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let contains_manifest line =
      (* Any manifest at all ("type id = ...") would expose the
         representation. *)
      let trimmed = String.trim line in
      String.length trimmed >= 7 && String.equal (String.sub trimmed 0 7) "type id"
      && String.contains trimmed '='
    in
    let lines = String.split_on_char '\n' content in
    Alcotest.(check bool) "type id is declared" true
      (List.exists (fun l -> String.equal (String.trim l) "type id") lines);
    Alcotest.(check bool) "type id has no manifest" false
      (List.exists contains_manifest lines)
  end

let () =
  Alcotest.run "store-edges"
    [
      ( "last_n/to_list",
        [
          Alcotest.test_case "n = 0" `Quick test_last_n_zero;
          Alcotest.test_case "n < 0" `Quick test_last_n_negative;
          Alcotest.test_case "genesis head" `Quick test_last_n_genesis_head;
          Alcotest.test_case "n > length" `Quick test_last_n_oversized;
          Alcotest.test_case "exact window" `Quick test_last_n_exact;
          Alcotest.test_case "to_list at genesis" `Quick test_to_list_genesis;
        ] );
      ( "id plane",
        [
          Alcotest.test_case "add_id idempotent" `Quick test_add_id_idempotent;
          Alcotest.test_case "orphan rejected" `Quick test_add_id_orphan_rejected;
          Alcotest.test_case "genesis self-parent" `Quick test_genesis_parent_is_genesis;
          Alcotest.test_case "ancestor bounds" `Quick test_ancestor_id_bounds;
          Alcotest.test_case "common prefix ids" `Quick test_common_prefix_id;
        ] );
      ( "interface",
        [ Alcotest.test_case "id stays abstract" `Quick test_id_is_abstract ] );
    ]
