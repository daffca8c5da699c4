#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace maxrs {
namespace crc32c_internal {
namespace {

// Byte-at-a-time lookup table for the reflected Castagnoli polynomial.
constexpr uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

}  // namespace

uint32_t PortableExtend(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 on its own; only reached after the CPU check.
__attribute__((target("sse4.2"))) uint32_t HardwareExtend(uint32_t crc,
                                                           const void* data,
                                                           size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc64 = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool HardwareAvailable() {
  __builtin_cpu_init();  // may run before libgcc's own constructor
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t HardwareExtend(uint32_t crc, const void* data, size_t n) {
  return PortableExtend(crc, data, n);
}

bool HardwareAvailable() { return false; }

#endif

}  // namespace crc32c_internal

namespace {

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

// Chosen during this file's dynamic initialization, so no other file's
// static initializer may compute a CRC.
const ExtendFn kExtend = crc32c_internal::HardwareAvailable()
                             ? crc32c_internal::HardwareExtend
                             : crc32c_internal::PortableExtend;

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return kExtend(crc, data, n);
}

}  // namespace maxrs
