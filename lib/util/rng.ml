(* xoshiro256++ with the four 64-bit state words stored as 32-bit halves in
   native-int fields. Without flambda every Int64 operation allocates its
   boxed result and every mutable Int64 field store runs the write barrier —
   on a state update of ~10 operations and 4 stores per draw, that was the
   single largest cost of the simulation hot path. Split into immediate ints,
   a draw allocates nothing. The split arithmetic below is bit-exact: each
   half is kept masked to 32 bits, and no intermediate exceeds 2^56, far
   inside the 63-bit native range. *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* The most recent draw, as (hi, lo) halves. Scratch output slots: a
     returned tuple would allocate on every draw, and the draw-heavy oracle
     path is exactly the place that cannot afford it. *)
  mutable out_hi : int;
  mutable out_lo : int;
}

let mask32 = 0xffffffff

let hi64 x = Int64.to_int (Int64.shift_right_logical x 32)
let lo64 x = Int64.to_int (Int64.logand x 0xffffffffL)

(* splitmix64: used only to expand a 64-bit seed into the 256-bit xoshiro
   state, and to derive split-off seeds — cold paths, kept on Int64. *)
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
  {
    s0h = hi64 s0;
    s0l = lo64 s0;
    s1h = hi64 s1;
    s1l = lo64 s1;
    s2h = hi64 s2;
    s2l = lo64 s2;
    s3h = hi64 s3;
    s3l = lo64 s3;
    out_hi = 0;
    out_lo = 0;
  }

(* One generator step. The drawn value is rotl(s0 + s3, 23) + s0, left in
   [out_hi]/[out_lo] so that callers can consume it without boxing. *)
let draw g =
  (* result = rotl64(s0 + s3, 23) + s0 *)
  let sl = g.s0l + g.s3l in
  let al = sl land mask32 in
  let ah = (g.s0h + g.s3h + (sl lsr 32)) land mask32 in
  (* rotl 23 *)
  let rh = ((ah lsl 23) lor (al lsr 9)) land mask32 in
  let rl = ((al lsl 23) lor (ah lsr 9)) land mask32 in
  let sl = rl + g.s0l in
  g.out_lo <- sl land mask32;
  g.out_hi <- (rh + g.s0h + (sl lsr 32)) land mask32;
  (* t = s1 << 17 *)
  let th = ((g.s1h lsl 17) lor (g.s1l lsr 15)) land mask32 in
  let tl = (g.s1l lsl 17) land mask32 in
  g.s2h <- g.s2h lxor g.s0h;
  g.s2l <- g.s2l lxor g.s0l;
  g.s3h <- g.s3h lxor g.s1h;
  g.s3l <- g.s3l lxor g.s1l;
  g.s1h <- g.s1h lxor g.s2h;
  g.s1l <- g.s1l lxor g.s2l;
  g.s0h <- g.s0h lxor g.s3h;
  g.s0l <- g.s0l lxor g.s3l;
  g.s2h <- g.s2h lxor th;
  g.s2l <- g.s2l lxor tl;
  (* s3 = rotl64(s3, 45) = swap halves, then rotl 13 *)
  let h = g.s3h and l = g.s3l in
  g.s3h <- ((l lsl 13) lor (h lsr 19)) land mask32;
  g.s3l <- ((h lsl 13) lor (l lsr 19)) land mask32

let out_hi g = g.out_hi
let out_lo g = g.out_lo

let last_bits64 g =
  Int64.logor (Int64.shift_left (Int64.of_int g.out_hi) 32) (Int64.of_int g.out_lo)

let bits64 g =
  draw g;
  last_bits64 g

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

let copy g =
  {
    s0h = g.s0h;
    s0l = g.s0l;
    s1h = g.s1h;
    s1l = g.s1l;
    s2h = g.s2h;
    s2l = g.s2l;
    s3h = g.s3h;
    s3l = g.s3l;
    out_hi = g.out_hi;
    out_lo = g.out_lo;
  }

let float g =
  (* Top 53 bits give a uniform dyadic rational in [0, 1). 32 + 21 = 53
     bits fit a native int, and float_of_int is exact below 2^53. *)
  draw g;
  let bits = (g.out_hi lsl 21) lor (g.out_lo lsr 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let int64_range g bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Rng.int64_range: bound must be positive";
  (* Plain remainder of 63 uniform bits: for the bounds used here (≤ 2^32)
     the modulo bias is below 2^-31 of the bucket probability, negligible for
     simulation purposes. The 63-bit draw does not fit a (62-bit-magnitude)
     native int, so this stays on Int64. *)
  let r = Int64.shift_right_logical (bits64 g) 1 in
  Int64.rem r bound

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (int64_range g (Int64.of_int bound))

let bernoulli g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float g < p
