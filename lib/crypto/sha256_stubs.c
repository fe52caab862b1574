/* The SHA-256 block function (FIPS 180-4 §6.2.2) behind Sha256.compress.

   One call absorbs one 64-byte block into the chaining state. The state is
   a 32-byte OCaml [bytes] holding H0..H7 big-endian, so the final state is
   the digest itself. The function reads exactly 64 bytes of [data] at
   [pos]; the OCaml caller guarantees they exist. It keeps no static
   mutable state and does not allocate, so any number of domains may hash
   concurrently. Padding and buffering stay in OCaml. */

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
