#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#define FTR_CRC32_FOLD 1
// The folding kernel's instruction set; the rest of the program is built
// without it and calls the kernel only after CPUID says it is there.
#define FTR_CLMUL [[gnu::target("pclmul,sse4.1")]]
#endif

namespace ftr {

namespace {

constexpr std::array<std::array<std::uint32_t, 256>, 8> slice8_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  // t[k][i] is the CRC of byte i followed by k zero bytes; XORing the eight
  // tables over eight consecutive input bytes advances the register by all
  // eight at once.
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = slice8_tables();

/// Endian-safe little-endian 32-bit load (compiles to a plain load on LE).
FTR_HOT inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advances the (inverted) CRC register `c` over n bytes by slicing-by-8.
FTR_HOT std::uint32_t slice8(std::uint32_t c, const unsigned char* p, std::size_t n) {
  const auto& t = kTables;
  while (n >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef FTR_CRC32_FOLD

/// Shortest input the folding path takes: one block for each of its four
/// 128-bit lanes.
constexpr std::size_t kFoldMin = 64;

// Folding constants (Gopal et al., appendix), for P(x) = 0x104C11DB7 in the
// bit-reflected domain: each k is x^e mod P(x) reflected over 32 bits and
// shifted left by one.  A lane moves d bits down the stream as
// lo64 * (x^(d+32) mod P) + hi64 * (x^(d-32) mod P).
constexpr long long kFold512Lo = 0x154442bd4;  // e = 4*128 + 32
constexpr long long kFold512Hi = 0x1c6e41596;  // e = 4*128 - 32
constexpr long long kFold128Lo = 0x1751997d0;  // e = 128 + 32
constexpr long long kFold128Hi = 0x0ccaa009e;  // e = 128 - 32
constexpr long long kFold64 = 0x163cd6124;     // e = 64
// Barrett reduction: P(x) and floor(x^64 / P(x)), each reflected over 33 bits.
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

FTR_CLMUL inline __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves lane `x` down the stream by the distance `k` encodes and adds
/// the lane found there.
FTR_CLMUL inline __m128i fold_lane(__m128i x, __m128i k, __m128i there) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      there);
}

/// Advances the (inverted) CRC register `c` over n bytes by carry-less
/// multiplication; n >= kFoldMin and a multiple of 16.
FTR_CLMUL FTR_HOT std::uint32_t fold(std::uint32_t c, const unsigned char* p, std::size_t n) {
  // The register enters as the first 32 bits of the stream.
  __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold_lane(x0, k512, load128(p));
    x1 = fold_lane(x1, k512, load128(p + 16));
    x2 = fold_lane(x2, k512, load128(p + 32));
    x3 = fold_lane(x3, k512, load128(p + 48));
  }
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  x0 = fold_lane(x0, k128, x1);
  x0 = fold_lane(x0, k128, x2);
  x0 = fold_lane(x0, k128, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold_lane(x0, k128, load128(p));

  // 128 bits -> 64: fold the low 64 bits onto the high half (x^96), then
  // the low 32 bits of what is left onto the rest (x^64).
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k128, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                                          _mm_set_epi64x(0, kFold64), 0x00));
  // Barrett: q = floor(R / P) from the low 32 bits times mu, R - q * P.
  const __m128i pmu = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

/// CPUID reports PCLMULQDQ and SSE4.1; read once per process.
bool fold_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();  // the first crc32 may run from a static initializer
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#endif  // FTR_CRC32_FOLD

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef FTR_CRC32_FOLD
  if (n >= kFoldMin && fold_supported()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = fold(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return slice8(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_portable(const void* data, std::size_t n, std::uint32_t seed) {
  return slice8(seed ^ 0xFFFFFFFFu, static_cast<const unsigned char*>(data), n) ^ 0xFFFFFFFFu;
}

}  // namespace ftr
