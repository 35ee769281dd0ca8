// Host fingerprint recorded with every benchmark result, so a number can
// be read against the machine and build that produced it.

#ifndef NIDC_BENCH_E2E_FINGERPRINT_H_
#define NIDC_BENCH_E2E_FINGERPRINT_H_

#include <cstddef>
#include <string>

namespace nidc::e2e {

struct Fingerprint {
  size_t nproc = 0;
  /// kernels::Active().name — the dispatched scoring kernel.
  std::string kernel;
  /// The WAL fsync policy the service runs with.
  std::string wal_sync;
  /// fsync latency of the benchmark's own directory.
  size_t fsync_n = 0;
  double fsync_p50_ms = 0.0;
  double fsync_p99_ms = 0.0;
  std::string build_type;
  /// `git describe` at configure time ("unknown" outside a git checkout).
  std::string git;
};

/// Probes the host; the fsync probe appends and syncs 1000 times to a
/// probe file in `dir` through the same Env the WAL uses.
Fingerprint ProbeHost(const std::string& dir, const std::string& wal_sync);

/// One JSON object.
std::string FingerprintJson(const Fingerprint& fingerprint);

/// One human-readable line.
std::string FingerprintLine(const Fingerprint& fingerprint);

}  // namespace nidc::e2e

#endif  // NIDC_BENCH_E2E_FINGERPRINT_H_
