open Types
module Hash = Fruitchain_crypto.Hash

(* Writer ------------------------------------------------------------- *)

let put_u32 buf n =
  (* Defensive guard: every caller passes a [String.length]/[List.length]
     result, which is non-negative by construction, so this raise is
     unreachable from the validation entry points.
     fruitlint: allow R10 *)
  if n < 0 then invalid_arg "Codec.put_u32: negative";
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let put_hash buf h = Buffer.add_string buf (Hash.to_raw h)

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let add_header buf h =
  put_hash buf h.parent;
  put_hash buf h.pointer;
  Buffer.add_int64_be buf h.nonce;
  put_hash buf h.digest;
  put_string buf h.record

let header_bytes h =
  let buf = Buffer.create 128 in
  add_header buf h;
  Buffer.contents buf

let fruit_bytes f =
  let buf = Buffer.create 160 in
  add_header buf f.f_header;
  put_hash buf f.f_hash;
  Buffer.contents buf

let block_bytes b =
  let buf = Buffer.create 512 in
  add_header buf b.b_header;
  put_hash buf b.b_hash;
  put_u32 buf (List.length b.fruits);
  List.iter
    (fun f ->
      add_header buf f.f_header;
      put_hash buf f.f_hash)
    b.fruits;
  Buffer.contents buf

(* Reader ------------------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then invalid_arg "Codec: truncated input"

let get_u32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  v

let get_u64 r =
  need r 8;
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !acc

let get_hash r =
  need r 32;
  let h = Hash.of_raw (String.sub r.data r.pos 32) in
  r.pos <- r.pos + 32;
  h

let get_string r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_header r =
  let parent = get_hash r in
  let pointer = get_hash r in
  let nonce = get_u64 r in
  let digest = get_hash r in
  let record = get_string r in
  { parent; pointer; nonce; digest; record }

let get_fruit r =
  let f_header = get_header r in
  let f_hash = get_hash r in
  { f_header; f_hash; f_prov = None }

let finished r =
  if not (Int.equal r.pos (String.length r.data)) then invalid_arg "Codec: trailing bytes"

let block_of_bytes s =
  let r = { data = s; pos = 0 } in
  let b_header = get_header r in
  let b_hash = get_hash r in
  let count = get_u32 r in
  let fruits = List.init count (fun _ -> get_fruit r) in
  finished r;
  { b_header; b_hash; fruits; b_prov = None }

let fruit_wire_size f = String.length (fruit_bytes f)
let block_wire_size b = String.length (block_bytes b)
