// perfbench, the benchmark program:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
// Prints one information line (seed, host, every end-to-end metric of the
// workload with its sample count) and, last, the result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// whose metrics are the gated end-to-end set (--trace 0) or the per-layer
// set (--trace 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "simd/dispatch.h"
#include "workloads.h"

namespace {

/// The attribution block bench/json_out.h writes into BENCH_*.json.
std::string CpuJson() {
  namespace simd = li::simd;
  const simd::CpuFeatures cpu = simd::DetectCpu();
  auto b = [](bool v) { return v ? "true" : "false"; };
  std::string s = "{\"avx2\": ";
  s += b(cpu.avx2);
  s += ", \"fma\": ";
  s += b(cpu.fma);
  s += ", \"avx512f\": ";
  s += b(cpu.avx512f);
  s += ", \"avx512dq\": ";
  s += b(cpu.avx512dq);
  s += ", \"active_level\": \"";
  s += simd::LevelName(simd::ActiveLevel());
  s += "\", \"detected_level\": \"";
  s += simd::LevelName(simd::DetectedLevel());
  s += "\", \"forced\": ";
  s += b(simd::IsForced());
  s += "}";
  return s;
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--work-dir") {
      opt.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0)) {
    return Usage();
  }

  perfbench::Outcome out;
  if (!perfbench::RunWorkload(opt, &out)) return 1;

  printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
         "\"trace\": %d, \"clients\": %d, \"nproc\": %u, \"cpu_features\": %s, "
         "\"failed_frac\": %.9g, \"metrics\": %s}}\n",
         opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
         opt.seconds, opt.trace ? 1 : 0, perfbench::kClients,
         std::thread::hardware_concurrency(), CpuJson().c_str(),
         out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
         out.extra.Json(true).c_str());
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
         out.failed == 0 ? "true" : "false",
         static_cast<unsigned long long>(out.attempted),
         static_cast<unsigned long long>(out.failed),
         (opt.trace ? out.layer : out.e2e).Json(false).c_str());
  return 0;
}
