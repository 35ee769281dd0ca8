#include "nidc/util/crc32.h"

#include <array>
#include <cstring>

#include "nidc/util/cpuid.h"

#if defined(__GNUC__) && defined(__x86_64__)
#include <nmmintrin.h>
#define NIDC_HAVE_CRC32_SSE42 1
#endif

namespace nidc {

namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

constexpr uint32_t kMaskDelta = 0xA282EAD8u;

#ifdef NIDC_HAVE_CRC32_SSE42
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C: one
// byte at a time up to 8-byte alignment, then 8 bytes per step.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(std::string_view data,
                                                       uint32_t seed) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc = ~seed;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc),
                       static_cast<unsigned char>(*p));
    ++p;
    --n;
  }
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc),
                       static_cast<unsigned char>(*p));
  }
  return ~static_cast<uint32_t>(crc);
}
#endif

}  // namespace

uint32_t Crc32cTable(std::string_view data, uint32_t seed) {
  const auto& table = Table();
  uint32_t crc = ~seed;
  for (unsigned char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ c) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32c(std::string_view data, uint32_t seed) {
#ifdef NIDC_HAVE_CRC32_SSE42
  static const bool hardware = CpuSupportsSse42();
  if (hardware) return Crc32cSse42(data, seed);
#endif
  return Crc32cTable(data, seed);
}

uint32_t MaskCrc32c(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t UnmaskCrc32c(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace nidc
