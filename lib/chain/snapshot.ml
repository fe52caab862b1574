open Types
module Hash = Fruitchain_crypto.Hash

let magic = "FRUITCHAIN\x01"

let chain_to_bytes chain =
  (match chain with
  | first :: _ when block_equal first genesis -> ()
  | _ -> invalid_arg "Snapshot.chain_to_bytes: chain must start at genesis");
  let rec check_links = function
    | a :: (b :: _ as rest) ->
        if not (Hash.equal b.b_header.parent a.b_hash) then
          invalid_arg "Snapshot.chain_to_bytes: broken links";
        check_links rest
    | [ _ ] | [] -> ()
  in
  check_links chain;
  let body = List.tl chain in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  let put_u32 n =
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff))
  in
  put_u32 (List.length body);
  List.iter
    (fun b ->
      let bytes = Codec.block_bytes b in
      put_u32 (String.length bytes);
      Buffer.add_string buf bytes)
    body;
  Buffer.contents buf

let chain_of_bytes data =
  let magic_len = String.length magic in
  if String.length data < magic_len + 4 || not (String.equal (String.sub data 0 magic_len) magic)
  then
    invalid_arg "Snapshot.chain_of_bytes: bad magic or version";
  let pos = ref magic_len in
  let u32 () =
    if !pos + 4 > String.length data then invalid_arg "Snapshot: truncated";
    let b i = Char.code data.[!pos + i] in
    let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    pos := !pos + 4;
    v
  in
  let count = u32 () in
  let blocks = ref [] in
  for _ = 1 to count do
    let len = u32 () in
    if !pos + len > String.length data then invalid_arg "Snapshot: truncated";
    let block = Codec.block_of_bytes (String.sub data !pos len) in
    pos := !pos + len;
    blocks := block :: !blocks
  done;
  if not (Int.equal !pos (String.length data)) then invalid_arg "Snapshot: trailing bytes";
  let chain = genesis :: List.rev !blocks in
  let rec check_links = function
    | a :: (b :: _ as rest) ->
        if not (Hash.equal b.b_header.parent a.b_hash) then
          invalid_arg "Snapshot.chain_of_bytes: broken links";
        check_links rest
    | [ _ ] | [] -> ()
  in
  check_links chain;
  chain

let save_chain ~path chain =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chain_to_bytes chain))

let load_chain ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> chain_of_bytes (really_input_string ic (in_channel_length ic)))
