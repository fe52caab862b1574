open Types
module Hash = Fruitchain_crypto.Hash

type id = int

(* Arena representation: blocks live in a growable array, densely numbered
   by insertion order; parent links and heights are parallel int arrays.
   Hash→id resolution happens exactly once per block (at insertion and at
   message boundaries, where protocol messages name blocks by hash); every
   traversal after that — ancestor walks, common-prefix meets, chain
   listings — is index arithmetic on the int arrays. Genesis is id 0 and is
   its own parent, which lets ancestor walks terminate on a height test
   alone without a reserved sentinel. *)
type t = {
  mutable blocks : block array;
  mutable parents : int array;
  mutable heights : int array;
  mutable len : int;
  ids : id Hash.Tbl.t;
}

let initial_capacity = 4096

let create () =
  let ids = Hash.Tbl.create initial_capacity in
  Hash.Tbl.replace ids genesis.b_hash 0;
  {
    blocks = Array.make initial_capacity genesis;
    parents = Array.make initial_capacity 0;
    heights = Array.make initial_capacity 0;
    len = 1;
    ids;
  }

let genesis_id = 0
let id_equal = Int.equal
let find_id t h = Hash.Tbl.find_opt t.ids h

let id t h =
  match Hash.Tbl.find_opt t.ids h with Some i -> i | None -> raise Not_found

let block_at t i = t.blocks.(i)
let hash_at t i = t.blocks.(i).b_hash
let height_at t i = t.heights.(i)
let parent_id t i = t.parents.(i)

let mem t h = Hash.Tbl.mem t.ids h
let find_exn t h = t.blocks.(id t h)
let height t h = t.heights.(id t h)

let grow t =
  let cap = Array.length t.blocks in
  let ncap = 2 * cap in
  let blocks = Array.make ncap genesis in
  Array.blit t.blocks 0 blocks 0 t.len;
  t.blocks <- blocks;
  let parents = Array.make ncap 0 in
  Array.blit t.parents 0 parents 0 t.len;
  t.parents <- parents;
  let heights = Array.make ncap 0 in
  Array.blit t.heights 0 heights 0 t.len;
  t.heights <- heights

let add_id t block =
  match find_id t block.b_hash with
  | Some i -> i
  | None -> (
      match find_id t block.b_header.parent with
      | None -> invalid_arg "Store.add: parent unknown"
      | Some p ->
          if Int.equal t.len (Array.length t.blocks) then grow t;
          let i = t.len in
          t.blocks.(i) <- block;
          t.parents.(i) <- p;
          t.heights.(i) <- t.heights.(p) + 1;
          t.len <- i + 1;
          Hash.Tbl.replace t.ids block.b_hash i;
          i)

let add t block = ignore (add_id t block)

let fold_back_id t ~head ~init ~f =
  let rec go acc i =
    let acc = f acc i in
    if Int.equal i genesis_id then acc else go acc t.parents.(i)
  in
  go init head

let to_list_id t ~head =
  fold_back_id t ~head ~init:[] ~f:(fun acc i -> t.blocks.(i) :: acc)

let to_list t ~head = to_list_id t ~head:(id t head)

(* Ids of the at-most-[n] trailing blocks ending at [head], oldest first.
   The id-based core lets resolved callers (validation, extraction) stay
   total; the hash-based wrappers below resolve once and delegate. *)
let last_n_ids t ~head n =
  if n <= 0 then []
  else
    let rec go acc i remaining =
      let acc = i :: acc in
      if Int.equal i genesis_id || Int.equal remaining 1 then acc
      else go acc t.parents.(i) (remaining - 1)
    in
    go [] head n

let last_n t ~head n = List.map (fun i -> t.blocks.(i)) (last_n_ids t ~head:(id t head) n)

let ancestor_id_at_height t ~head ~height:target =
  if target < 0 || target > t.heights.(head) then None
  else begin
    (* Heights decrease by exactly 1 per parent step, so the walk always
       lands on [target] exactly. *)
    let i = ref head in
    while t.heights.(!i) > target do
      i := t.parents.(!i)
    done;
    Some !i
  end

let common_prefix_height_id t a b =
  let lift i target =
    let i = ref i in
    while t.heights.(!i) > target do
      i := t.parents.(!i)
    done;
    !i
  in
  let level = min t.heights.(a) t.heights.(b) in
  let x = ref (lift a level) and y = ref (lift b level) in
  while not (Int.equal !x !y) do
    x := t.parents.(!x);
    y := t.parents.(!y)
  done;
  t.heights.(!x)

let common_prefix_height t a b = common_prefix_height_id t (id t a) (id t b)

let hang_positions_id t ~head ~window =
  let acc = Hash.Tbl.create 64 in
  List.iter
    (fun i -> Hash.Tbl.replace acc t.blocks.(i).b_hash t.heights.(i))
    (last_n_ids t ~head window);
  acc
