open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

(* The fruits hanging from one block, newest first, and how many. A group
   only grows at the front, so the fruits that arrived since the last F′
   walked it are its first [fresh]. Membership is a scan of [fruits] until
   the group outgrows [scan_limit]; from then on [index] holds every
   fruit's hash. *)
type group = {
  mutable fruits : Types.fruit list;
  mutable count : int;
  mutable fresh : int;
  mutable index : unit Hash.Tbl.t option;
}

type t = {
  groups : group Hash.Tbl.t; (* hang point -> the fruits hanging there *)
  mutable size : int;
  mutable mutations : int;
  (* The last F′, over the view of [memo_head] at [memo_height]. *)
  mutable memo_head : Hash.t;
  mutable memo_height : int;
  mutable memo_mutations : int;
  mutable memo : Types.fruit list;
}

(* Most groups hold about p_f/p fruits and a scan beats a table there, in
   time and memory; groups past this size (q in the hundreds) get one. *)
let scan_limit = 64

let create () =
  {
    groups = Hash.Tbl.create 64;
    size = 0;
    mutations = 0;
    memo_head = Hash.zero;
    memo_height = 0;
    memo_mutations = -1;
    memo = [];
  }

let size t = t.size
let touch t = t.mutations <- t.mutations + 1

let rec scan h = function
  | [] -> false
  | (f : Types.fruit) :: rest -> Hash.equal f.f_hash h || scan h rest

let in_group g h =
  match g.index with Some index -> Hash.Tbl.mem index h | None -> scan h g.fruits

let mem t (f : Types.fruit) =
  match Hash.Tbl.find_opt t.groups f.f_header.pointer with
  | Some g -> in_group g f.f_hash
  | None -> false

let add t (f : Types.fruit) =
  let g =
    match Hash.Tbl.find_opt t.groups f.f_header.pointer with
    | Some g -> g
    | None ->
        let g = { fruits = []; count = 0; fresh = 0; index = None } in
        Hash.Tbl.replace t.groups f.f_header.pointer g;
        g
  in
  if in_group g f.f_hash then false
  else begin
    g.fruits <- f :: g.fruits;
    g.count <- g.count + 1;
    g.fresh <- g.fresh + 1;
    (match g.index with
    | Some index -> Hash.Tbl.replace index f.f_hash ()
    | None when g.count > scan_limit ->
        let index = Hash.Tbl.create (2 * g.count) in
        List.iter (fun (f : Types.fruit) -> Hash.Tbl.replace index f.f_hash ()) g.fruits;
        g.index <- Some index
    | None -> ());
    t.size <- t.size + 1;
    touch t;
    true
  end

let drop_group t pointer =
  match Hash.Tbl.find_opt t.groups pointer with
  | None -> ()
  | Some g ->
      Hash.Tbl.remove t.groups pointer;
      t.size <- t.size - g.count;
      touch t

let expire t ~view =
  match Window_view.expired view with Some (block, _) -> drop_group t block | None -> ()

let prune t ~store ~view =
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
  let head = Window_view.head view and recency = Window_view.enforces_recency view in
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
      if not recency then
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
