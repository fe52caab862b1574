open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

module Hmap = Map.Make (struct
  type t = Hash.t

  let compare = Hash.compare
end)

(* Persistent FIFO of the blocks currently inside the window, oldest first:
   (block reference, its fruits' references). *)
module Span = struct
  type elt = Hash.t * Hash.t list
  type t = { front : elt list; back : elt list; length : int }

  let empty = { front = []; back = []; length = 0 }
  let push t elt = { t with back = elt :: t.back; length = t.length + 1 }

  let pop t =
    match t.front with
    | x :: front -> (x, { t with front; length = t.length - 1 })
    | [] -> (
        match List.rev t.back with
        | [] -> invalid_arg "Window_view.Span.pop: empty"
        | x :: front -> (x, { front; back = []; length = t.length - 1 }))

  let length t = t.length

  let fold t ~init ~f = List.fold_left f (List.fold_left f init t.front) t.back

  (* The newest [k] elements: the first of [back] (newest first), then, if
     [back] runs out, the last of [front] (oldest first). *)
  let fold_newest t k ~init ~f =
    let rec take acc k = function
      | x :: rest when k > 0 -> take (f acc x) (k - 1) rest
      | _ -> (acc, k)
    in
    let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l in
    let acc, left = take init k t.back in
    if left <= 0 then acc
    else
      let front_length = t.length - (k - left) in
      fst (take acc left (drop (front_length - left) t.front))
end

(* How far back a view reaches: the last [n] blocks (the recency window), or
   the whole chain, for runs without the recency rule, whose F′ must know
   every fruit the chain records. *)
type reach = Last of int | Whole_chain

type t = {
  head : Hash.t;
  height : int;
  hangs : int Hmap.t;
  included : int Hmap.t;
  span : Span.t;
  expired : Span.elt option; (* block that left the window when this view was made *)
}

let genesis =
  let h = Types.genesis.b_hash in
  {
    head = h;
    height = 0;
    hangs = Hmap.singleton h 0;
    included = Hmap.empty;
    span = Span.push Span.empty (h, []);
    expired = None;
  }

let extend_to reach view (block : Types.block) =
  if not (Hash.equal block.b_header.parent view.head) then
    invalid_arg "Window_view.extend: block does not extend the view's head";
  let height = view.height + 1 in
  let fruit_hashes = List.map (fun (f : Types.fruit) -> f.f_hash) block.fruits in
  let hangs = Hmap.add block.b_hash height view.hangs in
  let included =
    List.fold_left (fun acc fh -> Hmap.add fh height acc) view.included fruit_hashes
  in
  let span = Span.push view.span (block.b_hash, fruit_hashes) in
  (* Expire the block that fell below the window, if any. A fruit entry is
     only removed when its recorded height is the expiring one — a later
     duplicate inclusion (possible for adversarial chains) keeps the newer
     entry alive. *)
  let hangs, included, span, expired =
    match reach with
    | Last window when Span.length span > window && height - window >= 0 ->
        let expired_height = height - window in
        let ((old_hash, old_fruits) as old), span = Span.pop span in
        let hangs =
          match Hmap.find_opt old_hash hangs with
          | Some h when Int.equal h expired_height -> Hmap.remove old_hash hangs
          | _ -> hangs
        in
        let included =
          List.fold_left
            (fun acc fh ->
              match Hmap.find_opt fh acc with
              | Some h when Int.equal h expired_height -> Hmap.remove fh acc
              | _ -> acc)
            included old_fruits
        in
        (hangs, included, span, Some old)
    | Last _ | Whole_chain -> (hangs, included, span, None)
  in
  { head = block.b_hash; height; hangs; included; span; expired }

let extend ~window = extend_to (Last window)

let of_chain ~window ~store ~head =
  let blocks = Store.last_n store ~head (window + 1) in
  match blocks with
  | [] -> genesis
  | oldest :: _ ->
      let base_height = Store.height store oldest.Types.b_hash in
      let start =
        {
          head = oldest.Types.b_hash;
          height = base_height;
          hangs = Hmap.singleton oldest.Types.b_hash base_height;
          included =
            List.fold_left
              (fun acc (f : Types.fruit) -> Hmap.add f.f_hash base_height acc)
              Hmap.empty oldest.Types.fruits;
          span =
            Span.push Span.empty
              (oldest.Types.b_hash, List.map (fun (f : Types.fruit) -> f.f_hash) oldest.Types.fruits);
          expired = None;
        }
      in
      List.fold_left (fun view b -> extend ~window view b) start (List.tl blocks)

let fold_window view ~init ~f = Span.fold view.span ~init ~f:(fun acc (h, _) -> f acc h)
let fold_newest view k ~init ~f = Span.fold_newest view.span k ~init ~f:(fun acc (h, _) -> f acc h)
let is_recent view ~pointer = Hmap.mem pointer view.hangs
let is_included view ~fruit = Hmap.mem fruit view.included

let stale_pointer ~store view ~pointer =
  (* A pointer is stale when the block it names sits strictly below the
     current window — heights only grow, so it can never be in-window
     again. *)
  (not (is_recent view ~pointer))
  &&
  match Store.find store pointer with
  | None -> false
  | Some b -> Store.height store b.Types.b_hash < view.height - (Span.length view.span - 1)

module Cache = struct
  type view = t
  type nonrec t = { reach : reach; store : Store.t; views : view Hash.Tbl.t }

  let make reach ~store =
    let views = Hash.Tbl.create 1024 in
    Hash.Tbl.replace views Types.genesis.b_hash genesis;
    { reach; store; views }

  let create ~window ~store = make (Last window) ~store
  let whole_chain ~store = make Whole_chain ~store

  let view t ~head =
    match Hash.Tbl.find_opt t.views head with
    | Some v -> v
    | None ->
        (* Walk up to the nearest cached ancestor. A windowed cache gives up
           after [window] steps and rebuilds (deep reorg or cold cache); a
           whole-chain cache always reaches one, genesis at the latest. *)
        let rec ancestors acc h depth =
          match (Hash.Tbl.find_opt t.views h, t.reach) with
          | Some v, _ -> `Extend (v, acc)
          | None, Last window when depth > window -> `Rebuild window
          | None, (Last _ | Whole_chain) ->
              let block = Store.find_exn t.store h in
              if Hash.equal h Types.genesis.b_hash then `Extend (genesis, acc)
              else ancestors (block :: acc) block.Types.b_header.parent (depth + 1)
        in
        let v =
          match ancestors [] head 0 with
          | `Extend (base, blocks) ->
              List.fold_left
                (fun view b ->
                  let view = extend_to t.reach view b in
                  Hash.Tbl.replace t.views view.head view;
                  view)
                base blocks
          | `Rebuild window -> of_chain ~window ~store:t.store ~head
        in
        Hash.Tbl.replace t.views head v;
        v
end

let head t = t.head
let height t = t.height
let expired t = t.expired
