(* xoshiro256++ with its state in one 88-byte buffer: the four state words
   s0-s3 at offsets 0, 8, 16 and 24, the most recent draw at 32, and six
   slots at 40-80 that a k-step draw fills with its outputs, each a
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
   or store, so it hides no effect, and every offset it is given lies
   inside a buffer whose length the abstract [t] fixes at 88 (only
   [of_seed] makes one): a constant below 40, or the offset of a slot whose
   index is checked against [slots] first. *)

type t = Bytes.t

(* A compiler intrinsic: no C symbol, no hidden effect; constant offsets,
   or checked slot offsets, inside the 88 bytes of a [t]. fruitlint: allow R11 *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* A compiler intrinsic: no C symbol, no hidden effect; constant offsets,
   or checked slot offsets, inside the 88 bytes of a [t]. fruitlint: allow R11 *)
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let last = 32
let slots = 6
let[@inline] slot j = 40 + (8 * j)

let[@inline] check_slot j =
  if j < 0 || j >= slots then invalid_arg "Rng: slot index out of range"

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
  (* The state, the last draw and the slots, the last two zeroed. *)
  let g = Bytes.make (slot slots) '\000' in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
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

let last_bits64 g = get64 g last

(* [k] steps with the state in locals, output [j] to slot [j]: the loop
   over [Int64] refs keeps the state unboxed, and one pass reads and
   writes the state words once instead of [k] times. *)
let draws g k =
  if k < 0 || k > slots then invalid_arg "Rng.draws: count out of range";
  let open Int64 in
  let s0 = ref (get64 g 0) and s1 = ref (get64 g 8) in
  let s2 = ref (get64 g 16) and s3 = ref (get64 g 24) in
  for j = 0 to k - 1 do
    let a = !s0 and b = !s1 in
    let sum = add a !s3 in
    set64 g (slot j) (add (logor (shift_left sum 23) (shift_right_logical sum 41)) a);
    let c = logxor !s2 a and d = logxor !s3 b in
    s1 := logxor b c;
    s0 := logxor a d;
    s2 := logxor c (shift_left b 17);
    s3 := logor (shift_left d 45) (shift_right_logical d 19)
  done;
  set64 g 0 !s0;
  set64 g 8 !s1;
  set64 g 16 !s2;
  set64 g 24 !s3;
  if k > 0 then set64 g last (get64 g (slot (k - 1)))

let draw_to g j =
  check_slot j;
  draw g;
  set64 g (slot j) (get64 g last)

let slot_bits64 g j =
  check_slot j;
  get64 g (slot j)

(* The top 53 bits of a word as a uniform dyadic rational in [0, 1). They
   fit a native int, whose conversion is one instruction, where
   [Int64.to_float] is a call into C; both are exact below 2^53. *)
let[@inline] unit_float w =
  float_of_int (Int64.to_int (Int64.shift_right_logical w 11)) *. 0x1p-53

(* [float]'s test on a slot's word, compared unboxed. Inlined, so that
   the oracle's two tests per attempt make no call. *)
let[@inline] slot_below g j p =
  check_slot j;
  unit_float (get64 g (slot j)) < p

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

(* Top 53 bits of a fresh draw. Inlined, so that a caller compares or
   scales the result unboxed. *)
let[@inline] float g =
  draw g;
  unit_float (get64 g last)

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
