// Runtime CPU feature detection for the SIMD kernel dispatch
// (core/kernels) and the hardware CRC-32C (util/crc32). Wraps the
// compiler's cpuid machinery so the kernels and their tests share one
// answer about what the *running* machine supports — compile-time ISA
// flags only say what the binary contains.

#ifndef NIDC_UTIL_CPUID_H_
#define NIDC_UTIL_CPUID_H_

namespace nidc {

/// True when the running CPU supports the AVX-512 foundation set
/// (AVX512F), which covers every 512-bit instruction the kernel emits:
/// masked arithmetic and gather/scatter on zmm.
bool CpuSupportsAvx512();

/// True when the running CPU supports SSE4.2, whose crc32 instruction
/// computes CRC-32C (util/crc32).
bool CpuSupportsSse42();

}  // namespace nidc

#endif  // NIDC_UTIL_CPUID_H_
