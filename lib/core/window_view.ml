open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

(* The block ids of one chain by height: [ids.(k - base)] is the block at
   height [k], for [base <= k < top]. The views of one chain share it, each
   reading only the heights up to its own, so an entry is written once and
   never changed: a view whose head is the top extends the vector in place,
   and any other extension (a fork) copies what its window needs. *)
type chain = { base : int; mutable ids : Store.id array; mutable top : int }

type t = {
  store : Store.t;
  recorders : Store.id list Hash.Tbl.t; (* the cache's fruit index *)
  recency : bool;
  head : Hash.t;
  height : int;
  low : int; (* lowest height in the window *)
  chain : chain; (* holds every height from [max 0 (height - window)] up *)
  expired : Hash.t option;
}

let head t = t.head
let height t = t.height
let enforces_recency t = t.recency
let expired t = t.expired
let id_at chain k = chain.ids.(k - chain.base)

let in_window t id =
  let k = Store.height_at t.store id in
  k >= t.low && k <= t.height && Store.id_equal (id_at t.chain k) id

let is_recent t ~pointer =
  match Store.find_id t.store pointer with Some id -> in_window t id | None -> false

let rec any_in_window t = function
  | [] -> false
  | id :: rest -> in_window t id || any_in_window t rest

let is_included t ~fruit =
  match Hash.Tbl.find_opt t.recorders fruit with
  | Some ids -> any_in_window t ids
  | None -> false

(* Nothing lies below height 0: while the window reaches genesis, as a
   whole-chain view's always does, no pointer is stale and no lookup is
   needed, which keeps a whole-chain prune to a walk over the groups. *)
let stale_pointer ~store t ~pointer =
  t.low > 0
  &&
  match Store.find_id store pointer with
  | Some id -> Store.height_at store id < t.low
  | None -> false

let fold_from t from ~init ~f =
  let rec go acc k =
    if k > t.height then acc else go (f acc (Store.hash_at t.store (id_at t.chain k))) (k + 1)
  in
  go init from

let fold_window t ~init ~f = fold_from t t.low ~init ~f
let fold_newest t k ~init ~f = fold_from t (max t.low (t.height - k + 1)) ~init ~f

module Cache = struct
  type view = t

  (* How far back a view reaches: the last [n] blocks (the recency window),
     or the whole chain, for runs without the recency rule, whose F′ must
     know every fruit the chain records. *)
  type reach = Last of int | Whole_chain

  type nonrec t = {
    reach : reach;
    store : Store.t;
    recorders : Store.id list Hash.Tbl.t; (* fruit -> the blocks recording it *)
    views : view Hash.Tbl.t;
    plane : Fruit_plane.t;
  }

  (* Adds the block's fruits to the index. Idempotent: a rebuild meets
     blocks that earlier views indexed, and a block a rebuild indexed may
     later get a view of its own. *)
  let index t id =
    List.iter
      (fun (f : Types.fruit) ->
        match Hash.Tbl.find_opt t.recorders f.f_hash with
        | None -> Hash.Tbl.add t.recorders f.f_hash [ id ]
        | Some ids ->
            if not (List.exists (Store.id_equal id) ids) then
              Hash.Tbl.replace t.recorders f.f_hash (id :: ids))
      (Store.block_at t.store id).fruits

  (* The lowest height a view at [height] reads: its window, and the block
     just below it, which the view reports as expired. *)
  let base t height = match t.reach with Last window -> max 0 (height - window) | Whole_chain -> 0

  let make_view t chain ~head ~height =
    let low, expired =
      match t.reach with
      | Last window when height >= window ->
          (height - window + 1, Some (Store.hash_at t.store (id_at chain (height - window))))
      | Last _ | Whole_chain -> (0, None)
    in
    let recency = match t.reach with Last _ -> true | Whole_chain -> false in
    let store = t.store and recorders = t.recorders in
    ({ store; recorders; recency; head; height; low; chain; expired } : view)

  let push chain id =
    let i = chain.top - chain.base in
    if Int.equal i (Array.length chain.ids) then begin
      let ids = Array.make (2 * i) Store.genesis_id in
      Array.blit chain.ids 0 ids 0 i;
      chain.ids <- ids
    end;
    chain.ids.(i) <- id;
    chain.top <- chain.top + 1

  (* The view of block [id], a child of [parent]'s head. *)
  let extend t (parent : view) id =
    let height = parent.height + 1 in
    let chain =
      if Int.equal parent.chain.top height then parent.chain
      else begin
        (* Another child already extended the parent's vector: fork it,
           copying the heights the new view reads below its head. *)
        let base = base t height in
        let n = height - base in
        let ids = Array.make (n + 1) Store.genesis_id in
        Array.blit parent.chain.ids (base - parent.chain.base) ids 0 n;
        { base; ids; top = height }
      end
    in
    push chain id;
    index t id;
    make_view t chain ~head:(Store.hash_at t.store id) ~height

  (* The view of [id] from the store alone, for a windowed cache with no
     cached ancestor within the window. *)
  let rebuild t id =
    let height = Store.height_at t.store id in
    let base = base t height in
    let n = height - base + 1 in
    let ids = Array.make (n + 1) Store.genesis_id in
    let rec fill k i =
      ids.(k - base) <- i;
      if k > base then fill (k - 1) (Store.parent_id t.store i)
    in
    fill height id;
    let chain = { base; ids; top = height + 1 } in
    let view = make_view t chain ~head:(Store.hash_at t.store id) ~height in
    for k = view.low to height do
      index t (id_at chain k)
    done;
    view

  let make reach ~store =
    let genesis = Types.genesis.b_hash in
    let t =
      {
        reach;
        store;
        recorders = Hash.Tbl.create 1024;
        views = Hash.Tbl.create 1024;
        plane = Fruit_plane.create ();
      }
    in
    let chain = { base = 0; ids = Array.make 64 Store.genesis_id; top = 1 } in
    Hash.Tbl.replace t.views genesis (make_view t chain ~head:genesis ~height:0);
    t

  let create ~window ~store = make (Last window) ~store
  let whole_chain ~store = make Whole_chain ~store
  let plane t = t.plane

  let view t ~head =
    match Hash.Tbl.find_opt t.views head with
    | Some v -> v
    | None ->
        (* Walk up to the nearest cached ancestor. A windowed cache gives up
           after [window] steps and rebuilds (deep reorg or cold cache); a
           whole-chain cache always reaches one, genesis at the latest. *)
        let rec ancestors path id depth =
          match (Hash.Tbl.find_opt t.views (Store.hash_at t.store id), t.reach) with
          | Some v, _ -> `Extend (v, path)
          | None, Last window when depth > window -> `Rebuild
          | None, (Last _ | Whole_chain) ->
              ancestors (id :: path) (Store.parent_id t.store id) (depth + 1)
        in
        let memo (v : view) =
          Hash.Tbl.replace t.views v.head v;
          v
        in
        let head_id = Store.id t.store head in
        match ancestors [ head_id ] (Store.parent_id t.store head_id) 1 with
        | `Extend (base, path) ->
            List.fold_left (fun parent id -> memo (extend t parent id)) base path
        | `Rebuild -> memo (rebuild t head_id)
end
