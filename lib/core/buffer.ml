open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

type t = {
  enforce_recency : bool;
  groups : Types.fruit list Hash.Tbl.t; (* hang point -> the fruits hanging there *)
  members : unit Hash.Tbl.t; (* every retained fruit *)
  settled : unit Hash.Tbl.t; (* recency off: recorded below the window since the last prune *)
  mutable mutations : int;
  (* The last F′, valid while the view's head and [mutations] are unchanged. *)
  mutable memo_head : Hash.t;
  mutable memo_mutations : int;
  mutable memo : Types.fruit list;
}

let create ?(enforce_recency = true) () =
  {
    enforce_recency;
    groups = Hash.Tbl.create 64;
    members = Hash.Tbl.create 256;
    settled = Hash.Tbl.create 16;
    mutations = 0;
    memo_head = Hash.zero;
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
    let group = Option.value ~default:[] (Hash.Tbl.find_opt t.groups pointer) in
    Hash.Tbl.replace t.groups pointer (f :: group);
    touch t
  end

let drop_group t pointer =
  match Hash.Tbl.find_opt t.groups pointer with
  | None -> ()
  | Some group ->
      List.iter (fun (f : Types.fruit) -> Hash.Tbl.remove t.members f.f_hash) group;
      Hash.Tbl.remove t.groups pointer;
      touch t

let expire t ~view =
  match Window_view.expired view with
  | None -> ()
  | Some (block, recorded) ->
      if t.enforce_recency then drop_group t block
      else begin
        List.iter (fun h -> if mem t h then Hash.Tbl.replace t.settled h ()) recorded;
        touch t
      end

let prune t ~store ~view =
  Hash.Tbl.reset t.settled;
  if t.enforce_recency then
    Hash.Tbl.fold
      (fun pointer _ stale ->
        if Window_view.stale_pointer ~store view ~pointer then pointer :: stale else stale)
      t.groups []
    |> List.iter (drop_group t);
  touch t

let candidates t ~view =
  let head = Window_view.head view in
  if not (Int.equal t.memo_mutations t.mutations && Hash.equal t.memo_head head) then begin
    let unrecorded acc (f : Types.fruit) =
      if Window_view.is_included view ~fruit:f.f_hash || Hash.Tbl.mem t.settled f.f_hash then acc
      else f :: acc
    in
    let fruits =
      if t.enforce_recency then
        Window_view.fold_window view ~init:[] ~f:(fun acc pointer ->
            match Hash.Tbl.find_opt t.groups pointer with
            | Some group -> List.fold_left unrecorded acc group
            | None -> acc)
      else Hash.Tbl.fold (fun _ group acc -> List.fold_left unrecorded acc group) t.groups []
    in
    t.memo <- List.sort (fun (a : Types.fruit) b -> Hash.compare a.f_hash b.f_hash) fruits;
    t.memo_head <- head;
    t.memo_mutations <- t.mutations
  end;
  t.memo
