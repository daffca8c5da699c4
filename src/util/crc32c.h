// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the checksum guarding every
// data block in the record framing (io/record_io.h). On x86-64 hosts with
// SSE4.2 it runs on the `crc32` instruction, eight bytes at a time; the
// choice is made once at static initialization from the CPU's feature bits,
// so the binary carries no global -msse4.2 and stays portable. Everywhere
// else a byte-at-a-time table computes the same values. The standard check
// value is Crc32c("123456789", 9) == 0xE3069283.
#ifndef MAXRS_UTIL_CRC32C_H_
#define MAXRS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace maxrs {

/// Extends `crc` (a previous Crc32c result, or 0 for a fresh computation)
/// over `n` bytes at `data`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// CRC32C of a single buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

/// Both implementations behind Crc32cExtend, exposed so tests can check
/// that they agree. Not for production callers: use Crc32cExtend.
namespace crc32c_internal {

/// The table-driven implementation; runs on any host.
uint32_t PortableExtend(uint32_t crc, const void* data, size_t n);

/// The SSE4.2 implementation. Call only when HardwareAvailable().
uint32_t HardwareExtend(uint32_t crc, const void* data, size_t n);

/// Whether this host can run HardwareExtend (x86-64 with SSE4.2).
bool HardwareAvailable();

}  // namespace crc32c_internal
}  // namespace maxrs

#endif  // MAXRS_UTIL_CRC32C_H_
