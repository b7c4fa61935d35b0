// The four perfbench workloads and the traced ladder run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "harness.h"
#include "rmi/rmi.h"
#include "wal/file_backend.h"

namespace perfbench {

/// Closed-loop client threads: each waits for its call to return. The
/// host has 4 cores: one is left to the library's merge, rebuild and
/// rebalance workers and one to the rest of the machine, so a busy
/// neighbour does not take a core from a client. With three clients the
/// write workloads' throughput followed the host's load rather than the
/// program (see README.md).
inline constexpr int kClients = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space for WAL, snapshots and span files
};

struct Outcome {
  MetricSet e2e;    // gated end-to-end metrics (printed with --trace 0)
  MetricSet extra;  // workload-specific end-to-end metrics, with samples
  MetricSet layer;  // per-layer metrics (printed with --trace 1)
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

using Sharded = li::concurrent::ShardedIndex<
    li::concurrent::ConcurrentWritableIndex<li::rmi::LinearRmi>>;

/// The sharded stack's configuration, shared by the end-to-end run and
/// the ladder: 4 shards, ~100 keys per leaf model (the last-mile window,
/// not model speed, is what a lookup pays for).
inline Sharded::Config ShardedConfig(size_t n) {
  Sharded::Config cfg;
  cfg.num_shards = 4;
  cfg.inner.base.num_leaf_models = std::max<size_t>(64, n / cfg.num_shards / 100);
  return cfg;
}

/// WAL file backend that writes and syncs through the default one,
/// counting both.
class CountingBackend : public li::wal::FileBackend {
 public:
  li::Status Write(int fd, const void* data, size_t n) override {
    bytes.fetch_add(n, std::memory_order_relaxed);
    writes.fetch_add(1, std::memory_order_relaxed);
    return li::wal::DefaultFileBackend()->Write(fd, data, n);
  }
  li::Status Sync(int fd) override {
    syncs.fetch_add(1, std::memory_order_relaxed);
    return li::wal::DefaultFileBackend()->Sync(fd);
  }
  std::atomic<uint64_t> bytes{0}, writes{0}, syncs{0};
};

/// Runs one workload; false (with a message on stderr) when it could not
/// be set up. Check failures are counted in `out`, never hidden.
bool RunWorkload(const Options& opt, Outcome* out);

// ---- traced ladder (ladder.cc) ----

/// Keys and write streams one workload hands to the ladder. Range keys
/// are the sorted build keys; point keys feed the hash and Bloom rungs.
struct LadderInput {
  std::vector<uint64_t> keys;  // sorted, strictly increasing
  // Share of each op class in the workload's own mix (sums to 1).
  double p_lookup = 1, p_batch = 0, p_range = 0, p_insert = 0, p_erase = 0;
  std::vector<uint64_t> insert_pool;  // absent from `keys`, in insert order
  std::vector<uint64_t> absent;       // lookup keys that are never present
  double p_absent = 0;                // share of lookups drawn from `absent`
  // Point side: strings for the existence rungs, 64-bit map keys.
  std::vector<std::string> point_keys, point_absent, point_pool;
  std::vector<uint64_t> point_hash, point_absent_hash, point_pool_hash;
  double p_put = 0;  // share of PUTs in the point sample
};

/// Replays a fixed sample of requests against every rung, one rung at a
/// time, writes the span file into opt.work_dir and fills out->layer
/// from it.
void RunLadder(const LadderInput& in, const Options& opt, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
