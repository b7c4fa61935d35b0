// Shared pieces of the perfbench program: the cycle clock, percentiles,
// the metric sink, the rank oracle and the span log. Everything here is
// small and deterministic so selftest.cc can check it in isolation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

// ---- clock ----

/// Raw timestamp: the TSC on x86-64 (a steady_clock read costs ~35 ns on
/// virtualized hosts, comparable to the calls being timed), steady_clock
/// nanoseconds elsewhere. Convert with TicksToNs.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Ticks per nanosecond, calibrated once against steady_clock.
double TicksPerNs();

inline double TicksToNs(uint64_t ticks) {
  return static_cast<double>(ticks) / TicksPerNs();
}

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- percentiles ----

/// Nearest-rank percentile (q in (0, 1]): the smallest sample with at
/// least q of the samples at or below it. Reorders `v`; 0 when empty.
template <typename T>
double Percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

template <typename T>
double Median(std::vector<T> v) {
  return Percentile(v, 0.5);
}

// ---- metrics ----

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sampled statistic
};

/// Ordered name -> metric map, printed as one JSON object.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    m_[name] = Metric{value, unit, samples};
  }
  bool Has(const std::string& name) const { return m_.count(name) != 0; }
  const std::map<std::string, Metric>& all() const { return m_; }
  /// {"name": {"value": v, "unit": u[, "samples": n]}, ...}
  std::string Json(bool with_samples) const;

 private:
  std::map<std::string, Metric> m_;
};

// ---- rank oracle ----

/// Fenwick tree of per-key liveness changes, indexed by a key's position
/// in the sorted universe of every key a run can touch. One writer (the
/// owning client) and any number of racing readers: the cells are relaxed
/// atomics, so a reader sees each cell either before or after a change.
class Fenwick {
 public:
  explicit Fenwick(size_t n) : t_(n + 1) {}
  void Add(size_t i, int32_t d) {
    for (size_t x = i + 1; x < t_.size(); x += x & (~x + 1)) {
      t_[x].store(t_[x].load(std::memory_order_relaxed) + d,
                  std::memory_order_relaxed);
    }
  }
  /// Sum of changes at positions [0, i).
  int64_t Prefix(size_t i) const {
    int64_t s = 0;
    for (size_t x = std::min(i, t_.size() - 1); x > 0; x -= x & (~x + 1)) {
      s += t_[x].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::vector<std::atomic<int32_t>> t_;
};

/// A lower_bound rank is correct when it lies within `slack` of the
/// oracle's rank. Slack is 0 with one client; with concurrent writers it
/// covers the writes that may have landed between the call and the
/// oracle read (see workloads.cc).
inline bool RankOk(uint64_t got, int64_t expect, int64_t slack) {
  const int64_t d = static_cast<int64_t>(got) - expect;
  return d >= -slack && d <= slack;
}

/// Checks one range query [lo, hi): the filter may not call a non-empty
/// range empty, and when the scan ran, the keys it returned below `hi`
/// must equal the oracle's (the first `limit` keys of the range).
inline bool RangeOk(bool filter_maybe, bool scanned,
                    std::span<const uint64_t> got,
                    std::span<const uint64_t> expect, uint64_t hi) {
  if (!filter_maybe) return expect.empty();
  if (!scanned) return false;
  size_t in_range = 0;
  while (in_range < got.size() && got[in_range] < hi) ++in_range;
  if (in_range != expect.size()) return false;
  return std::equal(expect.begin(), expect.end(), got.begin());
}

/// Acknowledged writes the recovered index no longer holds.
template <typename Contains>
size_t LostAcks(std::span<const uint64_t> acked, Contains&& contains) {
  size_t lost = 0;
  for (const uint64_t k : acked) lost += contains(k) ? 0 : 1;
  return lost;
}

// ---- spans ----

/// One timed call. `parent` is the id of the enclosing span (0 = root);
/// ids are 1-based positions in the log.
struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;
  uint64_t req = 0;
  uint64_t start = 0;  // ticks
  uint64_t end = 0;
};

/// In-memory span recorder. Spans are appended while a rung runs and
/// written out once, when the traced run ends.
class SpanLog {
 public:
  uint32_t NameId(const std::string& name);
  const std::string& Name(uint32_t id) const { return names_[id]; }
  /// Opens a span and returns its id; close it with End.
  uint32_t Begin(uint32_t name, uint64_t req, uint32_t parent = 0) {
    spans_.push_back(Span{name, parent, req, Ticks(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) { spans_[id - 1].end = Ticks(); }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

  /// TSV: id, parent, req, name, start_ns, end_ns (ns since the first span).
  bool Write(const std::string& path) const;
  static bool Read(const std::string& path, SpanLog* out);

  /// Duration of `s` in ns.
  double DurNs(const Span& s) const;

 private:
  double ns_rate_ = 0.0;  // timestamp units per ns; 0 = live TSC ticks
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<Span> spans_;
};

/// Per-request durations (ns) of every span named `name`, keyed by req.
std::map<uint64_t, double> DurationsByReq(const SpanLog& log,
                                          const std::string& name);

/// Per-request rung self time: duration of `upper` minus duration of
/// `lower` for every request that has both. Returns the differences.
std::vector<double> RungSelfNs(const SpanLog& log, const std::string& upper,
                               const std::string& lower);

// ---- misc ----

/// SplitMix64: seeds independent per-thread and per-purpose streams.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small fast PRNG for on-the-fly op generation.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(Mix(seed) | 1) {}
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

/// Recursively removes `path` (file or directory); missing is fine.
void RemoveTree(const std::string& path);
/// Regular files directly inside `dir`: name -> size in bytes.
std::map<std::string, uint64_t> DirFiles(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
