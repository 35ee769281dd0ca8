#include "fingerprint.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "nidc/core/kernels/kernels.h"
#include "nidc/obs/json_util.h"
#include "nidc/util/env.h"
#include "stats.h"

namespace nidc::e2e {

Fingerprint ProbeHost(const std::string& dir, const std::string& wal_sync) {
  Fingerprint fp;
  fp.nproc = std::max(1u, std::thread::hardware_concurrency());
  fp.kernel = kernels::Active().name;
  fp.wal_sync = wal_sync;
  fp.build_type = NIDC_BUILD_TYPE;
  fp.git = NIDC_GIT_DESCRIBE;

  Env* env = Env::Default();
  const std::string path = dir + "/fsync_probe";
  Result<std::unique_ptr<WritableFile>> file = env->NewWritableFile(path);
  if (file.ok()) {
    std::vector<double> ms;
    const std::string record(128, 'x');
    for (int i = 0; i < 1000; ++i) {
      if (!(*file)->Append(record).ok()) break;
      const auto start = std::chrono::steady_clock::now();
      if (!(*file)->Sync().ok()) break;
      ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    }
    (*file)->Close();
    env->RemoveFile(path);
    fp.fsync_n = ms.size();
    fp.fsync_p50_ms = Quantile(ms, 0.5);
    fp.fsync_p99_ms = Quantile(ms, 0.99);
  }
  return fp;
}

std::string FingerprintJson(const Fingerprint& fp) {
  obs::JsonObjectBuilder builder;
  builder.Add("nproc", static_cast<uint64_t>(fp.nproc));
  builder.Add("kernel", fp.kernel);
  builder.Add("wal_sync", fp.wal_sync);
  builder.Add("fsync_n", static_cast<uint64_t>(fp.fsync_n));
  builder.Add("fsync_p50_ms", fp.fsync_p50_ms);
  builder.Add("fsync_p99_ms", fp.fsync_p99_ms);
  builder.Add("build_type", fp.build_type);
  builder.Add("git", fp.git);
  return builder.Render();
}

std::string FingerprintLine(const Fingerprint& fp) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host nproc=%zu kernel=%s wal_sync=%s fsync_p50_ms=%.4f "
                "fsync_p99_ms=%.4f n=%zu build=%s git=%s",
                fp.nproc, fp.kernel.c_str(), fp.wal_sync.c_str(),
                fp.fsync_p50_ms, fp.fsync_p99_ms, fp.fsync_n,
                fp.build_type.c_str(), fp.git.c_str());
  return buf;
}

}  // namespace nidc::e2e
