open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

(* A slot of the cache's fruit plane, which holds the fruits, and the last
   F′: over the view of [memo_head] at [memo_height]. *)
type t = {
  plane : Fruit_plane.t;
  slot : int;
  mutable size : int;
  mutable mutations : int;
  mutable memo_head : Hash.t;
  mutable memo_height : int;
  mutable memo_mutations : int;
  mutable memo : Types.fruit list;
}

let create views =
  let plane = Window_view.Cache.plane views in
  {
    plane;
    slot = Fruit_plane.claim plane;
    size = 0;
    mutations = 0;
    memo_head = Hash.zero;
    memo_height = 0;
    memo_mutations = -1;
    memo = [];
  }

let release t = Fruit_plane.release t.plane t.slot
let size t = t.size
let mem t f = Fruit_plane.mem t.plane t.slot f

let add t f =
  Fruit_plane.add t.plane t.slot f
  && begin
       t.size <- t.size + 1;
       t.mutations <- t.mutations + 1;
       true
     end

let dropped t n =
  if n > 0 then begin
    t.size <- t.size - n;
    t.mutations <- t.mutations + 1
  end

let expire t ~view =
  match Window_view.expired view with
  | Some block -> dropped t (Fruit_plane.drop t.plane t.slot ~pointer:block)
  | None -> ()

let prune t ~store ~view =
  dropped t
    (Fruit_plane.prune t.plane t.slot ~stale:(fun pointer ->
         Window_view.stale_pointer ~store view ~pointer))

let by_hash (a : Types.fruit) (b : Types.fruit) = Hash.compare a.f_hash b.f_hash

(* Merges two lists sorted by hash; a fruit in both (dropped and buffered
   again since the memo) is kept once. *)
let merge xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
        let c = by_hash x y in
        if c < 0 then go (x :: acc) xs' ys
        else if c > 0 then go (y :: acc) xs ys'
        else go (x :: acc) xs' ys'
  in
  go [] xs ys

(* F′ is derived from the memo when the memo's head is still on the view's
   chain inside its window (warm): the memo's fruits that are still recent
   and unrecorded, plus every fruit the memo has not seen — the fresh ones
   of each group in scope, and the whole group of each block that entered
   the window since. Otherwise (cold) every group in scope is walked.
   Either way a walk leaves none of the group's fruits fresh, so the next
   warm F′ finds exactly the arrivals since this one. *)
let candidates t ~view =
  let head = Window_view.head view and recency = Window_view.enforces_recency view in
  if not (Int.equal t.memo_mutations t.mutations && Hash.equal t.memo_head head) then begin
    let warm = Window_view.is_recent view ~pointer:t.memo_head in
    let keep acc (f : Types.fruit) =
      if Window_view.is_included view ~fruit:f.f_hash then acc else f :: acc
    in
    let walk_at ~all acc pointer =
      Fruit_plane.walk t.plane t.slot ~pointer ~all ~init:acc ~f:keep
    in
    let unseen =
      if not recency then Fruit_plane.fold_held t.plane t.slot ~all:(not warm) ~init:[] ~f:keep
      else if warm then
        (* The entering groups are walked whole first, which leaves none of
           their fruits fresh, so the window fold that meets them again adds
           nothing. *)
        let entered = Window_view.height view - t.memo_height in
        Window_view.fold_window view
          ~init:(Window_view.fold_newest view entered ~init:[] ~f:(walk_at ~all:true))
          ~f:(walk_at ~all:false)
      else Window_view.fold_window view ~init:[] ~f:(walk_at ~all:true)
    in
    let still_candidate (f : Types.fruit) =
      mem t f
      && ((not recency) || Window_view.is_recent view ~pointer:f.f_header.pointer)
      && not (Window_view.is_included view ~fruit:f.f_hash)
    in
    let kept = if warm then List.filter still_candidate t.memo else [] in
    t.memo <- merge kept (List.sort by_hash unseen);
    t.memo_head <- head;
    t.memo_height <- Window_view.height view;
    t.memo_mutations <- t.mutations
  end;
  t.memo
