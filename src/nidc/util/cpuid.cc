#include "nidc/util/cpuid.h"

namespace nidc {

// __builtin_cpu_supports executes CPUID once at startup (libgcc caches the
// result), so these are cheap enough to call on any path. Non-x86 targets
// (or compilers without the builtin) report no SIMD support and the
// dispatcher falls back to the scalar kernels.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))

bool CpuSupportsAvx512() { return __builtin_cpu_supports("avx512f"); }

bool CpuSupportsSse42() { return __builtin_cpu_supports("sse4.2"); }

#else

bool CpuSupportsAvx512() { return false; }
bool CpuSupportsSse42() { return false; }

#endif

}  // namespace nidc
