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
end

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

let extend ~window view (block : Types.block) =
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
  let expired_height = height - window in
  let hangs, included, span, expired =
    if Span.length span > window && expired_height >= 0 then begin
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
    end
    else (hangs, included, span, None)
  in
  { head = block.b_hash; height; hangs; included; span; expired }

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
  type nonrec t = { window : int; store : Store.t; views : view Hash.Tbl.t }

  let create ~window ~store =
    let views = Hash.Tbl.create 1024 in
    Hash.Tbl.replace views Types.genesis.b_hash genesis;
    { window; store; views }

  let view t ~head =
    match Hash.Tbl.find_opt t.views head with
    | Some v -> v
    | None ->
        (* Walk up to the nearest cached ancestor; give up after [window]
           steps and rebuild (deep reorg or cold cache). *)
        let rec ancestors acc h depth =
          match Hash.Tbl.find_opt t.views h with
          | Some v -> Some (v, acc)
          | None when depth > t.window -> None
          | None ->
              let block = Store.find_exn t.store h in
              if Hash.equal h Types.genesis.b_hash then Some (genesis, acc)
              else ancestors (block :: acc) block.Types.b_header.parent (depth + 1)
        in
        let v =
          match ancestors [] head 0 with
          | Some (base, blocks) ->
              List.fold_left
                (fun view b ->
                  let view = extend ~window:t.window view b in
                  Hash.Tbl.replace t.views view.head view;
                  view)
                base blocks
          | None -> of_chain ~window:t.window ~store:t.store ~head
        in
        Hash.Tbl.replace t.views head v;
        v
end

let head t = t.head
let height t = t.height
let expired t = t.expired
