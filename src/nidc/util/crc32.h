// CRC-32C (Castagnoli) checksums, used to frame write-ahead-log records so
// torn or corrupted tails are detected on recovery. Uses the SSE4.2 crc32
// instruction when the running CPU has it (util/cpuid), else a byte-table
// loop; the polynomial matches iSCSI/ext4/LevelDB (0x1EDC6F41).

#ifndef NIDC_UTIL_CRC32_H_
#define NIDC_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace nidc {

/// CRC-32C of `data`, continuing from `seed` (pass the previous return
/// value to checksum data in chunks; 0 starts a fresh checksum).
uint32_t Crc32c(std::string_view data, uint32_t seed = 0);

/// The portable byte-table implementation: Crc32c's fallback, and the
/// reference its hardware path is tested against.
uint32_t Crc32cTable(std::string_view data, uint32_t seed = 0);

/// Masks a CRC so that storing a CRC inside CRC-protected data does not
/// degrade it into a weak checksum of itself (same scheme as LevelDB).
uint32_t MaskCrc32c(uint32_t crc);
uint32_t UnmaskCrc32c(uint32_t masked);

}  // namespace nidc

#endif  // NIDC_UTIL_CRC32_H_
