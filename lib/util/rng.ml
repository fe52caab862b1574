(* xoshiro256++ with its state in one 40-byte buffer: the four state words
   s0-s3 at offsets 0, 8, 16 and 24 and the most recent draw at 32, each a
   native-endian 64-bit word. A step reads the words through the
   compiler's unchecked 64-bit bytes intrinsics into unboxed [Int64]
   locals, runs the published algorithm on them and writes them back, so a
   draw allocates nothing and runs no write barrier. (Boxed [Int64] record
   fields allocate every result and run the barrier on every store; the
   stdlib's bounds-checked accessors re-read the block length on each
   access.)

   R11 keeps [external] declarations in lib/crypto/sha256.ml because the
   effect rules cannot see into C. The two below are allowed by name: each
   is a compiler intrinsic that names no C symbol and compiles to one load
   or store, so it hides no effect, and its offsets are constants inside a
   buffer whose length the abstract [t] fixes at 40 (only [of_seed] makes
   one). *)

type t = Bytes.t

(* A compiler intrinsic: no C symbol, no hidden effect; constant offsets
   inside the 40 bytes of a [t]. fruitlint: allow R11 *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* A compiler intrinsic: no C symbol, no hidden effect; constant offsets
   inside the 40 bytes of a [t]. fruitlint: allow R11 *)
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let last = 32

(* splitmix64: used only to expand a 64-bit seed into the 256-bit xoshiro
   state, and to derive split-off seeds — cold paths. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9e3779b97f4a7c15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let of_seed seed =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  (* xoshiro must not be seeded with the all-zero state; splitmix64 output is
     zero for at most one of the four draws, so this is already impossible,
     but we keep the guard as a cheap invariant. *)
  let s0, s1, s2, s3 =
    if Int64.(equal (logor (logor s0 s1) (logor s2 s3)) 0L) then (1L, 2L, 3L, 4L)
    else (s0, s1, s2, s3)
  in
  let g = Bytes.create 40 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  set64 g last 0L;
  g

(* One generator step: the drawn value rotl(s0 + s3, 23) + s0 goes to the
   last-draw word, then the state advances. *)
let draw g =
  let open Int64 in
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let sum = add s0 s3 in
  set64 g last (add (logor (shift_left sum 23) (shift_right_logical sum 41)) s0);
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set64 g 8 (logxor s1 s2);
  set64 g 0 (logxor s0 s3);
  set64 g 16 (logxor s2 (shift_left s1 17));
  set64 g 24 (logor (shift_left s3 45) (shift_right_logical s3 19))

let out_hi g = Int64.to_int (Int64.shift_right_logical (get64 g last) 32)
let out_lo g = Int64.to_int (get64 g last) land 0xffffffff
let last_bits64 g = get64 g last

let bits64 g =
  draw g;
  get64 g last

let split g = of_seed (bits64 g)

let derive master ~index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  let open Int64 in
  let mix z =
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)
  in
  (* [index |-> master + (index+1)*odd] is injective mod 2^64 and the
     splitmix64 finalizer is a bijection, so for a fixed master all derived
     seeds are pairwise distinct; two finalizer rounds decorrelate seeds of
     adjacent indices. Purity (no generator state) is what makes the
     derivation independent of unit execution order. *)
  mix (mix (add master (mul (of_int (index + 1)) 0x9e3779b97f4a7c15L)))

(* Top 53 bits of a fresh draw, a uniform dyadic rational in [0, 1):
   Int64.to_float is exact below 2^53. Inlined, so that a caller compares
   or scales the result unboxed. *)
let[@inline] float g =
  draw g;
  Int64.to_float (Int64.shift_right_logical (get64 g last) 11) *. 0x1p-53

(* Plain remainder of the top 63 bits of a fresh draw: for the bounds used
   here (≤ 2^32) the modulo bias is below 2^-31 of the bucket probability,
   negligible for simulation purposes. 63 bits do not fit a native int, so
   this stays on (unboxed) Int64. *)
let[@inline] rem63 g bound =
  draw g;
  Int64.rem (Int64.shift_right_logical (get64 g last) 1) bound

let int64_range g bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Rng.int64_range: bound must be positive";
  rem63 g bound

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (rem63 g (Int64.of_int bound))

let bernoulli g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float g < p
