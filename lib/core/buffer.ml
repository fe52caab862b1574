open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

(* The fruits hanging from one block, newest first. A group only grows at
   the front, so the fruits that arrived since the last F′ walked it are
   its first [fresh]. *)
type group = { mutable fruits : Types.fruit list; mutable fresh : int }

type t = {
  enforce_recency : bool;
  groups : group Hash.Tbl.t; (* hang point -> the fruits hanging there *)
  members : unit Hash.Tbl.t; (* every retained fruit *)
  mutable mutations : int;
  (* The last F′, over the view of [memo_head] at [memo_height]. *)
  mutable memo_head : Hash.t;
  mutable memo_height : int;
  mutable memo_mutations : int;
  mutable memo : Types.fruit list;
}

let create ?(enforce_recency = true) () =
  {
    enforce_recency;
    groups = Hash.Tbl.create 64;
    members = Hash.Tbl.create 256;
    mutations = 0;
    memo_head = Hash.zero;
    memo_height = 0;
    memo_mutations = -1;
    memo = [];
  }

let size t = Hash.Tbl.length t.members
let mem t h = Hash.Tbl.mem t.members h
let touch t = t.mutations <- t.mutations + 1

let add t (f : Types.fruit) =
  if not (Hash.Tbl.mem t.members f.f_hash) then begin
    Hash.Tbl.replace t.members f.f_hash ();
    let pointer = f.f_header.pointer in
    (match Hash.Tbl.find_opt t.groups pointer with
    | Some g ->
        g.fruits <- f :: g.fruits;
        g.fresh <- g.fresh + 1
    | None -> Hash.Tbl.replace t.groups pointer { fruits = [ f ]; fresh = 1 });
    touch t
  end

let drop_group t pointer =
  match Hash.Tbl.find_opt t.groups pointer with
  | None -> ()
  | Some g ->
      List.iter (fun (f : Types.fruit) -> Hash.Tbl.remove t.members f.f_hash) g.fruits;
      Hash.Tbl.remove t.groups pointer;
      touch t

let expire t ~view =
  match Window_view.expired view with
  | Some (block, _) when t.enforce_recency -> drop_group t block
  | Some _ | None -> ()

let prune t ~store ~view =
  if t.enforce_recency then
    Hash.Tbl.fold
      (fun pointer _ stale ->
        if Window_view.stale_pointer ~store view ~pointer then pointer :: stale else stale)
      t.groups []
    |> List.iter (drop_group t)

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
   and unrecorded, plus every fruit the memo has not seen — the fresh
   prefix of each group in scope, and the whole group of each block that
   entered the window since. Otherwise (cold) every group in scope is
   walked. Either way each walked group's [fresh] drops to zero, so it
   counts arrivals since this F′. *)
let candidates t ~view =
  let head = Window_view.head view in
  if not (Int.equal t.memo_mutations t.mutations && Hash.equal t.memo_head head) then begin
    let warm = Window_view.is_recent view ~pointer:t.memo_head in
    let walk ~all acc g =
      let rec take acc n = function
        | (f : Types.fruit) :: rest when all || n > 0 ->
            let acc = if Window_view.is_included view ~fruit:f.f_hash then acc else f :: acc in
            take acc (n - 1) rest
        | _ -> acc
      in
      let acc = take acc g.fresh g.fruits in
      g.fresh <- 0;
      acc
    in
    let walk_at ~all acc pointer =
      match Hash.Tbl.find_opt t.groups pointer with Some g -> walk ~all acc g | None -> acc
    in
    let unseen =
      if not t.enforce_recency then
        Hash.Tbl.fold (fun _ g acc -> walk ~all:(not warm) acc g) t.groups []
      else if warm then
        (* The entering groups are walked whole first, which zeroes their
           [fresh], so the window fold that meets them again adds nothing. *)
        let entered = Window_view.height view - t.memo_height in
        Window_view.fold_window view
          ~init:(Window_view.fold_newest view entered ~init:[] ~f:(walk_at ~all:true))
          ~f:(walk_at ~all:false)
      else Window_view.fold_window view ~init:[] ~f:(walk_at ~all:true)
    in
    let still_candidate (f : Types.fruit) =
      mem t f.f_hash
      && ((not t.enforce_recency) || Window_view.is_recent view ~pointer:f.f_header.pointer)
      && not (Window_view.is_included view ~fruit:f.f_hash)
    in
    let kept = if warm then List.filter still_candidate t.memo else [] in
    t.memo <- merge kept (List.sort by_hash unseen);
    t.memo_head <- head;
    t.memo_height <- Window_view.height view;
    t.memo_mutations <- t.mutations
  end;
  t.memo
