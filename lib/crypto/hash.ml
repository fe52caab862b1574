type t = string

let of_raw s =
  if not (Int.equal (String.length s) 32) then invalid_arg "Hash.of_raw: expected 32 bytes";
  s

(* Total constructor for SHA-256 output: [Sha256.digest] always
   produces exactly 32 bytes, so re-validating the length would only put a
   raise path under every validation entry point (R10). Boundary input
   (hex strings, decoded messages) must keep going through [of_raw]. *)
let of_digest s = s
let to_raw t = t
let zero = String.make 32 '\000'
let equal = String.equal
let compare = String.compare
let to_hex = Fruitchain_util.Hex.encode
let pp fmt t = Format.fprintf fmt "%s…" (String.sub (to_hex t) 0 8)

(* Big-endian 64-bit views via the stdlib primitives: a single bounds check
   and one load, instead of eight boxed byte reads — these run on every
   difficulty check and every [hash] of a Hashtbl lookup. *)
let prefix64 t = String.get_int64_be t 0
let suffix64 t = String.get_int64_be t 24

(* Digests are already uniform, so the leading bytes are a perfectly good
   table hash; unlike [Hashtbl.hash] this is stable across OCaml versions
   and immune to polymorphic-hash traversal limits. *)
let hash t = Int64.to_int (prefix64 t) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let threshold p =
  if p <= 0.0 then 0L
  else if p >= 1.0 then -1L (* all ones: every view passes *)
  else begin
    (* p * 2^64 computed via p * 2^63 * 2 to stay within the signed range,
       then reassembled as the unsigned bit pattern. *)
    let scaled = p *. 9.2233720368547758e18 (* 2^63 *) in
    let hi = Int64.of_float scaled in
    Int64.shift_left hi 1
  end

let of_views ~block_view ~fruit_view ~filler:(f1, f2) =
  let buf = Bytes.create 32 in
  Bytes.set_int64_be buf 0 block_view;
  Bytes.set_int64_be buf 8 f1;
  Bytes.set_int64_be buf 16 f2;
  Bytes.set_int64_be buf 24 fruit_view;
  Bytes.unsafe_to_string buf
