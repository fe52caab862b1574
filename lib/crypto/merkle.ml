let empty_root = Hash.of_digest (Sha256.digest "fruitchain:merkle:empty")
let leaf_hash s = Hash.of_digest (Sha256.digest ("\x00" ^ s))

let node_hash l r =
  let pre = Bytes.create 65 in
  Bytes.set pre 0 '\x01';
  Bytes.blit_string (Hash.to_raw l) 0 pre 1 32;
  Bytes.blit_string (Hash.to_raw r) 0 pre 33 32;
  Hash.of_digest (Sha256.digest (Bytes.unsafe_to_string pre))

(* Collapse one level: pair up nodes left to right; an unpaired last node is
   promoted unchanged. *)
let rec level = function
  | [] -> []
  | [ x ] -> [ x ]
  | a :: b :: rest -> node_hash a b :: level rest

let rec reduce = function
  | [] -> empty_root
  | [ root ] -> root
  | nodes -> reduce (level nodes)

let root leaves = reduce (List.map leaf_hash leaves)

type proof = (Hash.t * [ `Left | `Right ]) list

let proof leaves index =
  let n = List.length leaves in
  if index < 0 || index >= n then invalid_arg "Merkle.proof: index out of range";
  let rec climb nodes index acc =
    match nodes with
    | [] | [ _ ] -> List.rev acc
    | _ ->
        let arr = Array.of_list nodes in
        let sibling, side =
          if Int.equal (index mod 2) 0 then
            if index + 1 < Array.length arr then (Some arr.(index + 1), `Right) else (None, `Right)
          else (Some arr.(index - 1), `Left)
        in
        let acc = match sibling with Some s -> (s, side) :: acc | None -> acc in
        climb (level nodes) (index / 2) acc
  in
  climb (List.map leaf_hash leaves) index []

let verify_proof ~root:expected ~leaf proof =
  let final =
    List.fold_left
      (fun acc (sibling, side) ->
        match side with `Left -> node_hash sibling acc | `Right -> node_hash acc sibling)
      (leaf_hash leaf) proof
  in
  Hash.equal final expected
