(* SHA-256 per FIPS 180-4. The block function is C (sha256_stubs.c); this
   module does buffering and padding. The chaining state is a 32-byte
   [Bytes.t] holding H0..H7 big-endian, so the final state is the digest. *)

(* [compress state data pos] absorbs the 64-byte block of [data] at [pos].
   It reads those bytes unchecked: every call site below proves them in
   bounds. *)
external compress : Bytes.t -> Bytes.t -> int -> unit = "fruitchain_sha256_compress"
[@@noalloc]

(* H0..H7 of FIPS 180-4 §5.3.3, big-endian. *)
let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type ctx = {
  h : Bytes.t; (* chaining state *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed *)
}

let init () = { h = Bytes.of_string iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let update_bytes ctx data ~pos ~len =
  (* Bounds guard for the public ~pos/~len API; [update] passes
     [0, length] and cannot trip it. *)
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    (* fruitlint: allow R10 *)
    invalid_arg "Sha256.update_bytes: out of bounds";
  ctx.total <- ctx.total + len;
  let offset = ref pos and remaining = ref len in
  (* Fill a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit data !offset ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    offset := !offset + take;
    remaining := !remaining - take;
    if Int.equal ctx.buf_len 64 then begin
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while !remaining >= 64 do
    compress ctx.h data !offset;
    offset := !offset + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !offset ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Absorb the last [rem] (< 64) message bytes, [src] at [pos], and the
   padding of a [total]-byte message: 0x80, zeros, the 64-bit big-endian bit
   length — one block if [rem] leaves room for the 9 padding bytes, else
   two. *)
let finish h src pos rem total =
  let n = if rem < 56 then 64 else 128 in
  let tail = Bytes.make n '\000' in
  Bytes.blit src pos tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytes.set_int64_be tail (n - 8) (Int64.mul (Int64.of_int total) 8L);
  compress h tail 0;
  if Int.equal n 128 then compress h tail 64

let finalize ctx =
  finish ctx.h ctx.buf 0 ctx.buf_len ctx.total;
  Bytes.to_string ctx.h

let digest s =
  let data = Bytes.unsafe_of_string s in
  let len = String.length s in
  let whole = len land lnot 63 in
  let h = Bytes.of_string iv in
  let pos = ref 0 in
  while !pos < whole do
    compress h data !pos;
    pos := !pos + 64
  done;
  finish h data whole (len - whole) len;
  Bytes.unsafe_to_string h

let hmac ~key msg =
  let block = 64 in
  let key = if String.length key > block then digest key else key in
  let pad c =
    let out = Bytes.make block c in
    String.iteri (fun i k -> Bytes.set out i (Char.chr (Char.code k lxor Char.code c))) key;
    out
  in
  let ipad = pad '\x36' and opad = pad '\x5c' in
  let inner = digest (Bytes.to_string ipad ^ msg) in
  digest (Bytes.to_string opad ^ inner)
