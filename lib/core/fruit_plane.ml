open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

(* Entries are keyed by the fruit itself, compared by pointer and hash, so
   a lookup allocates no key. *)
module Fruit_tbl = Hashtbl.Make (struct
  type t = Types.fruit

  let equal (a : t) (b : t) =
    Hash.equal a.f_hash b.f_hash && Hash.equal a.f_header.pointer b.f_header.pointer

  let hash (f : t) = Hash.hash f.f_hash
end)

(* The fruits hanging from one block, newest first. [counts.(2s)] is how
   many of them slot [s] holds and [counts.(2s + 1)] how many of those are
   fresh; [holders] counts the slots holding any. *)
type group = {
  pointer : Hash.t;
  mutable members : entry list;
  mutable counts : int array;
  mutable holders : int;
}

(* Two bits per slot, four slots a byte: held (1) and fresh (2). Fresh
   implies held. *)
and entry = { fruit : Types.fruit; group : group; mutable bits : Bytes.t }

type t = {
  entries : entry Fruit_tbl.t;
  groups : group Hash.Tbl.t;
  mutable slots : int; (* slots ever claimed *)
  mutable free : int list;
}

let held = 1
let fresh = 2

let create () =
  { entries = Fruit_tbl.create 1024; groups = Hash.Tbl.create 64; slots = 0; free = [] }

let claim t =
  match t.free with
  | s :: rest ->
      t.free <- rest;
      s
  | [] ->
      t.slots <- t.slots + 1;
      t.slots - 1

(* Bits and counts are sized for the slots claimed when they were made; a
   later slot reads zeros there until its first write grows them. *)
let shift s = (s land 3) lsl 1

let bits e s =
  let i = s lsr 2 in
  if i < Bytes.length e.bits then (Char.code (Bytes.get e.bits i) lsr shift s) land 3 else 0

let set_bits t e s v =
  let i = s lsr 2 in
  if i >= Bytes.length e.bits then begin
    let grown = Bytes.make ((t.slots + 3) / 4) '\000' in
    Bytes.blit e.bits 0 grown 0 (Bytes.length e.bits);
    e.bits <- grown
  end;
  let others = Char.code (Bytes.get e.bits i) land lnot (3 lsl shift s) in
  Bytes.set e.bits i (Char.unsafe_chr (others lor (v lsl shift s)))

let has e s bit = not (Int.equal (bits e s land bit) 0)
let count g k = if k < Array.length g.counts then g.counts.(k) else 0

let set_count t g k v =
  if k >= Array.length g.counts then begin
    let grown = Array.make (2 * t.slots) 0 in
    Array.blit g.counts 0 grown 0 (Array.length g.counts);
    g.counts <- grown
  end;
  g.counts.(k) <- v

let hold t e s =
  let g = e.group in
  set_bits t e s (held lor fresh);
  let n = count g (2 * s) in
  if Int.equal n 0 then g.holders <- g.holders + 1;
  set_count t g (2 * s) (n + 1);
  set_count t g ((2 * s) + 1) (count g ((2 * s) + 1) + 1)

let add t s (f : Types.fruit) =
  match Fruit_tbl.find_opt t.entries f with
  | Some e ->
      if has e s held then false
      else begin
        hold t e s;
        true
      end
  | None ->
      let pointer = f.f_header.pointer in
      let g =
        match Hash.Tbl.find_opt t.groups pointer with
        | Some g -> g
        | None ->
            let g = { pointer; members = []; counts = Array.make (2 * t.slots) 0; holders = 0 } in
            Hash.Tbl.add t.groups pointer g;
            g
      in
      let e = { fruit = f; group = g; bits = Bytes.make ((t.slots + 3) / 4) '\000' } in
      Fruit_tbl.add t.entries f e;
      g.members <- e :: g.members;
      hold t e s;
      true

let mem t s f =
  match Fruit_tbl.find_opt t.entries f with Some e -> has e s held | None -> false

(* The slot lets go of [g]; the last holder takes the group and its
   entries out of the plane instead of clearing its bits. *)
let drop_group t s g =
  let n = count g (2 * s) in
  if n > 0 then begin
    g.counts.(2 * s) <- 0;
    g.counts.((2 * s) + 1) <- 0;
    g.holders <- g.holders - 1;
    if Int.equal g.holders 0 then begin
      Hash.Tbl.remove t.groups g.pointer;
      List.iter (fun e -> Fruit_tbl.remove t.entries e.fruit) g.members
    end
    else List.iter (fun e -> if has e s held then set_bits t e s 0) g.members
  end;
  n

let drop t s ~pointer =
  match Hash.Tbl.find_opt t.groups pointer with Some g -> drop_group t s g | None -> 0

let prune t s ~stale =
  Hash.Tbl.fold
    (fun pointer g acc -> if count g (2 * s) > 0 && stale pointer then g :: acc else acc)
    t.groups []
  |> List.fold_left (fun n g -> n + drop_group t s g) 0

let release t s =
  ignore (prune t s ~stale:(fun _ -> true) : int);
  t.free <- s :: t.free

(* Stops once it has met as many of the slot's fruits as it looks for: all
   it holds, or the fresh ones. *)
let walk_group t s g ~all ~init ~f =
  let wanted = count g ((2 * s) + if all then 0 else 1) in
  if Int.equal wanted 0 then init
  else begin
    g.counts.((2 * s) + 1) <- 0;
    let rec go acc left = function
      | e :: rest when left > 0 ->
          if has e s fresh then begin
            set_bits t e s held;
            go (f acc e.fruit) (left - 1) rest
          end
          else if all && has e s held then go (f acc e.fruit) (left - 1) rest
          else go acc left rest
      | _ -> acc
    in
    go init wanted g.members
  end

let walk t s ~pointer ~all ~init ~f =
  match Hash.Tbl.find_opt t.groups pointer with
  | Some g -> walk_group t s g ~all ~init ~f
  | None -> init

let fold_held t s ~all ~init ~f =
  Hash.Tbl.fold (fun _ g acc -> walk_group t s g ~all ~init:acc ~f) t.groups init
