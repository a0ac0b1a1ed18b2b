/* SHA-256 compression (FIPS 180-4, section 6.2.2) for Sha256.compress.

   Two implementations of one function.  The portable loop is plain C:
   the block is read big-endian byte by byte, so the result does not
   depend on the host's byte order.  On x86-64 built with GCC or Clang
   there is also a version with the SHA extensions (SHA-NI), chosen once,
   from CPUID, the first time [sbft_sha256_compress] runs; every other
   CPU takes the portable loop.  Both give the same state for every
   input, and [sbft_sha256_compress_portable] exposes the portable loop
   so the tests compare the two on any host.

   The eight state words live in an OCaml [int array] as immediates, so
   they are read and written through [Field] without [caml_modify], and
   the stubs never allocate ([@@noalloc]). */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t k[64] = {
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

/* [s]: the state a..h, updated in place; [p]: the 64-byte block. */
static void compress_portable(uint32_t s[8], const unsigned char *p)
{
  uint32_t w[64];
  int i;

  for (i = 0; i < 16; i++, p += 4)
    w[i] = ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
  for (i = 16; i < 64; i++) {
    uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  for (i = 0; i < 64; i++) {
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                + ((e & f) ^ (~e & g)) + k[i] + w[i];
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                + ((a & b) ^ (a & c) ^ (b & c));
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>

/* Four rounds on the schedule words [m] = W[4i..4i+3].  [sha256rnds2]
   does two rounds on the state split as (ABEF, CDGH), taking W+K from
   the low half of its third operand. */
#define RNDS4(m, i)                                                        \
  do {                                                                     \
    __m128i wk_ = _mm_add_epi32(                                           \
        (m), _mm_loadu_si128((const __m128i *)(k + 4 * (i))));             \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk_);                         \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk_, 0x0E)); \
  } while (0)

/* [m0] <- the next four schedule words, from the sixteen in m0..m3. */
#define SCHED(m0, m1, m2, m3)                                          \
  (m0) = _mm_sha256msg2_epu32(                                         \
      _mm_add_epi32(_mm_sha256msg1_epu32((m0), (m1)),                  \
                    _mm_alignr_epi8((m3), (m2), 4)),                   \
      (m3))

__attribute__((target("sha,sse4.1")))
static void compress_shani(uint32_t s[8], const unsigned char *p)
{
  /* Big-endian words: reverse the bytes of each 32-bit lane. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)s);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)(s + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef0 = abef, cdgh0 = cdgh;
  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
  int i;

  for (i = 0; i < 12; i += 4) {
    RNDS4(m0, i);     SCHED(m0, m1, m2, m3);
    RNDS4(m1, i + 1); SCHED(m1, m2, m3, m0);
    RNDS4(m2, i + 2); SCHED(m2, m3, m0, m1);
    RNDS4(m3, i + 3); SCHED(m3, m0, m1, m2);
  }
  RNDS4(m0, 12);
  RNDS4(m1, 13);
  RNDS4(m2, 14);
  RNDS4(m3, 15);

  abef = _mm_add_epi32(abef, abef0);
  cdgh = _mm_add_epi32(cdgh, cdgh0);
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)s, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)(s + 4), _mm_alignr_epi8(dchg, feba, 8));
}

/* SHA (leaf 7 EBX bit 29), plus the SSSE3 and SSE4.1 shuffles and
   blends (leaf 1 ECX bits 9 and 19) that compress_shani also uses. */
static int cpu_has_sha(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  if (!(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return 0;
  return (ebx >> 29) & 1;
}

static void compress_dispatch(uint32_t s[8], const unsigned char *p);
static void (*compress)(uint32_t s[8], const unsigned char *p) = compress_dispatch;

/* The first call settles [compress] for the life of the process. */
static void compress_dispatch(uint32_t s[8], const unsigned char *p)
{
  compress = cpu_has_sha() ? compress_shani : compress_portable;
  compress(s, p);
}
#else
#define compress compress_portable
#endif

/* [state]: 8 words in the low 32 bits of OCaml ints, updated in place.
   [block], [off]: the 64 bytes at [off]; the caller keeps them in range. */
static void compress_value(void (*f)(uint32_t *, const unsigned char *),
                           value state, value block, value off)
{
  uint32_t s[8];
  int i;

  for (i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(state, i));
  f(s, Bytes_val(block) + Long_val(off));
  for (i = 0; i < 8; i++) Field(state, i) = Val_long((intnat)s[i]);
}

value sbft_sha256_compress(value state, value block, value off)
{
  compress_value(compress, state, block, off);
  return Val_unit;
}

value sbft_sha256_compress_portable(value state, value block, value off)
{
  compress_value(compress_portable, state, block, off);
  return Val_unit;
}
