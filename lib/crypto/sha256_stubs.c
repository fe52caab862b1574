/* The SHA-256 block functions (FIPS 180-4 §6.2.2) behind Sha256.compress.

   One call absorbs one 64-byte block into the chaining state. The state is
   a 32-byte OCaml [bytes] holding H0..H7 big-endian, so the final state is
   the digest itself. There are two block functions computing the same
   compression: the portable C one, which runs on any host, and one on the
   x86 SHA extensions (sha256rnds2/msg1/msg2), compiled only for x86-64
   under GCC or clang and enabled per function, so no global CPU flag is
   needed. Sha256 asks the CPUID probe below once, at module
   initialisation, and uses the extensions exactly when it says yes; no
   flag or setting can force either path. Elsewhere the probe says no and
   the accelerated entry point is never reached.

   Each block function reads exactly 64 bytes of [data] at [pos]; the OCaml
   caller guarantees they exist. None keeps static mutable state or
   allocates, so any number of domains may hash concurrently. Padding and
   buffering stay in OCaml. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8)
         | (uint32_t)p[3];
}

static inline void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

value fruitchain_sha256_compress(value v_state, value v_data, value v_pos)
{
  unsigned char *state = Bytes_val(v_state);
  const unsigned char *block = Bytes_val(v_data) + Long_val(v_pos);
  uint32_t w[64];
  uint32_t a, b, c, d, e, f, g, h;
  int t;

  for (t = 0; t < 16; t++) w[t] = load_be32(block + 4 * t);
  for (t = 16; t < 64; t++) {
    uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
    uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }

  a = load_be32(state);
  b = load_be32(state + 4);
  c = load_be32(state + 8);
  d = load_be32(state + 12);
  e = load_be32(state + 16);
  f = load_be32(state + 20);
  g = load_be32(state + 24);
  h = load_be32(state + 28);

  for (t = 0; t < 64; t++) {
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) + ((e & f) ^ (~e & g)) + K[t]
                  + w[t];
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  store_be32(state, load_be32(state) + a);
  store_be32(state + 4, load_be32(state + 4) + b);
  store_be32(state + 8, load_be32(state + 8) + c);
  store_be32(state + 12, load_be32(state + 12) + d);
  store_be32(state + 16, load_be32(state + 16) + e);
  store_be32(state + 20, load_be32(state + 20) + f);
  store_be32(state + 24, load_be32(state + 24) + g);
  store_be32(state + 28, load_be32(state + 28) + h);
  return Val_unit;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

/* Rounds 4g..4g+3. [cur] holds W[4g..4g+3] and [prev] W[4g-4..4g-1].
   Alongside the rounds the schedule runs ahead: groups 3-14 finish [next]
   (sha256msg2) as W[4g+4..4g+7], and groups 1-12 start [prev]
   (sha256msg1) toward W[4g+12..4g+15]. [g] is a literal, so both range
   checks fold away. The ABEF/CDGH register layout is the one sha256rnds2
   requires. */
#define GROUP(g, prev, cur, next)                                                 \
  do {                                                                           \
    __m128i wk = _mm_add_epi32(cur, _mm_loadu_si128((const __m128i *)&K[4 * (g)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                                \
    if ((g) >= 3 && (g) <= 14) {                                                 \
      next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));                 \
      next = _mm_sha256msg2_epu32(next, cur);                                    \
    }                                                                            \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));       \
    if ((g) >= 1 && (g) <= 12) prev = _mm_sha256msg1_epu32(prev, cur);          \
  } while (0)

__attribute__((target("sha,sse4.1,ssse3")))
value fruitchain_sha256_compress_sha_ext(value v_state, value v_data, value v_pos)
{
  unsigned char *state = Bytes_val(v_state);
  const unsigned char *block = Bytes_val(v_data) + Long_val(v_pos);
  /* Reverses the bytes of each 32-bit lane: big-endian words to native. */
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef, cdgh, abef0, cdgh0, lo, hi, w0, w1, w2, w3;

  lo = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)state), bswap); /* DCBA */
  hi = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(state + 16)), bswap); /* HGFE */
  lo = _mm_shuffle_epi32(lo, 0xb1);           /* CDAB */
  hi = _mm_shuffle_epi32(hi, 0x1b);           /* EFGH */
  abef = _mm_alignr_epi8(lo, hi, 8);          /* ABEF */
  cdgh = _mm_blend_epi16(hi, lo, 0xf0);       /* CDGH */
  abef0 = abef;
  cdgh0 = cdgh;

  w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)block), bswap);
  w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 16)), bswap);
  w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 32)), bswap);
  w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 48)), bswap);

  GROUP(0, w3, w0, w1);
  GROUP(1, w0, w1, w2);
  GROUP(2, w1, w2, w3);
  GROUP(3, w2, w3, w0);
  GROUP(4, w3, w0, w1);
  GROUP(5, w0, w1, w2);
  GROUP(6, w1, w2, w3);
  GROUP(7, w2, w3, w0);
  GROUP(8, w3, w0, w1);
  GROUP(9, w0, w1, w2);
  GROUP(10, w1, w2, w3);
  GROUP(11, w2, w3, w0);
  GROUP(12, w3, w0, w1);
  GROUP(13, w0, w1, w2);
  GROUP(14, w1, w2, w3);
  GROUP(15, w2, w3, w0);

  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  lo = _mm_shuffle_epi32(abef, 0x1b);         /* FEBA */
  hi = _mm_shuffle_epi32(cdgh, 0xb1);         /* DCHG */
  abef = _mm_blend_epi16(lo, hi, 0xf0);       /* DCBA */
  cdgh = _mm_alignr_epi8(hi, lo, 8);          /* HGFE */
  _mm_storeu_si128((__m128i *)state, _mm_shuffle_epi8(abef, bswap));
  _mm_storeu_si128((__m128i *)(state + 16), _mm_shuffle_epi8(cdgh, bswap));
  return Val_unit;
}

/* SHA (leaf 7, subleaf 0, EBX bit 29), SSSE3 (leaf 1, ECX bit 9) and
   SSE4.1 (leaf 1, ECX bit 19): everything the function above executes. */
value fruitchain_sha256_sha_ext_available(value v_unit)
{
  unsigned int eax, ebx, ecx, edx;
  (void)v_unit;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return Val_false;
  if (!(ecx & (1u << 9)) || !(ecx & (1u << 19))) return Val_false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return Val_false;
  return Val_bool(ebx & (1u << 29));
}

#else

/* No SHA extensions to use: the probe says so, and Sha256 never calls the
   accelerated entry point, which falls back to the portable function. */
value fruitchain_sha256_compress_sha_ext(value v_state, value v_data, value v_pos)
{
  return fruitchain_sha256_compress(v_state, v_data, v_pos);
}

value fruitchain_sha256_sha_ext_available(value v_unit)
{
  (void)v_unit;
  return Val_false;
}

#endif
