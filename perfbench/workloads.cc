// The four end-to-end workloads. Each one generates its keys from the
// seed, sets the serving stack up several times (setup_s is the median),
// drives it with kClients closed-loop clients for the timed window, checks
// every answer against an oracle, and reports metrics. With --trace 1 it
// sets up once, runs the same window for the library's own counters, and
// then hands its keys to the traced ladder (ladder.cc).
//
// Oracles. Reads are checked against ranks known from generation: a key
// at position i of the sorted key array has rank i. Under concurrent
// writes the rank of a key is the count of live keys below it, so each
// client keeps a Fenwick tree of its own liveness changes over the sorted
// universe of every key the run can touch, and only the owning client
// writes a key. A lookup is correct when it lands within a slack of the
// oracle rank: 2 per other client (a write that returned but is not yet
// in its Fenwick tree, or the sharded size prefix catching one in flight)
// plus the writes that completed while the check ran. With one client
// the slack is 0.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "concurrent/concurrent_point_index.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/rebuildable_existence.h"
#include "concurrent/sharded_index.h"
#include "data/datasets.h"
#include "data/strings.h"
#include "hash/cuckoo_map.h"
#include "lif/measure.h"
#include "rangefilter/learned_range_filter.h"
#include "rmi/rmi.h"
#include "wal/wal.h"

namespace perfbench {
namespace {

using li::Status;
using PointMap = li::concurrent::ConcurrentPointIndex<
    li::hash::CuckooMap<li::hash::Record>>;
using Existence = li::concurrent::RebuildableExistence<li::bloom::BloomFilter>;
using Clock = std::chrono::steady_clock;

constexpr size_t kBatch = 64;
constexpr size_t kScanLimit = 100;

// ---- closed loop ----

/// Positions in a client's sample vectors where a time slice began.
struct Mark {
  size_t lookup = 0, write = 0, batch = 0, range = 0;
  uint64_t ops = 0;
};

struct ClientStats {
  uint64_t ops = 0, failed = 0;
  std::vector<uint32_t> lookup, write, batch, range;  // ticks per call
  std::vector<uint64_t> checkpoint;
  uint64_t empty_ranges = 0, empty_scanned = 0;  // range-filter false positives
  uint64_t absent_gets = 0, absent_found = 0;    // Bloom false positives
  std::vector<uint64_t> acked;                   // acknowledged inserts
  std::vector<Mark> marks;                       // one per slice started
  void MarkSlice() {
    marks.push_back(Mark{lookup.size(), write.size(), batch.size(), range.size(), ops});
  }
};

inline uint32_t Lat(uint64_t t0, uint64_t t1) {
  const uint64_t d = t1 - t0;
  return d > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(d);
}

/// The timed window, cut into kSlices equal slices. Metrics are medians
/// over slices, so a disturbance that lasts part of a run, from outside
/// the program or a checkpoint stalling the writers, moves them less than
/// a whole-window figure.
constexpr int kSlices = 40;

/// Untimed load before the window, so the window starts in the stack's
/// steady state (warm caches, the write log and deltas past their first
/// fill) rather than measuring the step into it.
constexpr double kWarmupSeconds = 1.0;

class Window {
 public:
  /// Called by a client before each op: false once the window is over.
  bool Running(ClientStats& s) const {
    const int cur = slice_.load(std::memory_order_relaxed);
    while (static_cast<int>(s.marks.size()) <= cur && cur < kSlices) s.MarkSlice();
    return cur < kSlices;
  }

  /// Starts kClients threads on one flag, runs the warm-up and then the
  /// slices, stops and joins them. Ops of the warm-up are checked and
  /// counted as attempted but fall in no slice. Returns each slice's
  /// duration in seconds.
  template <typename Fn>
  std::vector<double> Run(double seconds, std::vector<ClientStats>* stats,
                          Fn&& client) {
    stats->assign(kClients, ClientStats{});
    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        ClientStats& cs = (*stats)[c];
        client(c, cs);
        while (cs.marks.size() <= kSlices) cs.MarkSlice();  // closes the last slice
      });
    }
    while (ready.load() < kClients) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    const auto t0 = Clock::now();
    slice_.store(0, std::memory_order_relaxed);
    std::vector<double> bounds = {0.0};
    for (int k = 1; k <= kSlices; ++k) {
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds * k / kSlices)));
      bounds.push_back(SecondsSince(t0));
      slice_.store(k, std::memory_order_relaxed);
    }
    for (auto& t : threads) t.join();
    std::vector<double> dur;
    for (int k = 0; k < kSlices; ++k) dur.push_back(bounds[k + 1] - bounds[k]);
    return dur;
  }

 private:
  std::atomic<int> slice_{-1};  // -1 during the warm-up
};

/// Samples of `field` that fall in slice k, over all clients.
std::vector<uint32_t> SliceOf(const std::vector<ClientStats>& st,
                              std::vector<uint32_t> ClientStats::*field,
                              size_t Mark::*pos, int k) {
  std::vector<uint32_t> out;
  for (const auto& s : st) {
    if (static_cast<int>(s.marks.size()) <= k + 1) continue;
    const auto& v = s.*field;
    out.insert(out.end(), v.begin() + (s.marks[k].*pos), v.begin() + (s.marks[k + 1].*pos));
  }
  return out;
}

/// Sets <name>_p50_ns<suffix> and <name>_p99_ns<suffix> (per call, / `per`):
/// the median over slices of each slice's percentile. Samples = all calls.
void Latency(MetricSet* m, const std::string& name, const std::vector<ClientStats>& st,
             std::vector<uint32_t> ClientStats::*field, size_t Mark::*pos,
             double per = 1.0, const std::string& suffix = "") {
  std::vector<double> p50, p99;
  uint64_t n = 0;
  for (int k = 0; k < kSlices; ++k) {
    std::vector<uint32_t> v = SliceOf(st, field, pos, k);
    if (v.empty()) continue;
    n += v.size();
    p50.push_back(TicksToNs(static_cast<uint64_t>(Percentile(v, 0.50))) / per);
    p99.push_back(TicksToNs(static_cast<uint64_t>(Percentile(v, 0.99))) / per);
  }
  if (n == 0) return;
  m->Set(name + "_p50_ns" + suffix, Median(p50), "ns", n);
  m->Set(name + "_p99_ns" + suffix, Median(p99), "ns", n);
}

/// Common end-to-end metrics plus the tallies; `extra` also gets them.
/// `bytes_per_key` is taken right after set-up: measured after the window
/// it would fall as throughput rose, since more inserted keys share the
/// same models.
void Report(Outcome* out, const std::vector<ClientStats>& st,
            const std::vector<double>& slice_s, double setup_s, uint64_t reps,
            double bytes_per_key) {
  uint64_t ops = 0, failed = 0;
  for (const auto& s : st) {
    ops += s.ops;
    failed += s.failed;
  }
  out->attempted += ops;
  out->failed += failed;
  std::vector<double> tput;
  for (int k = 0; k < kSlices; ++k) {
    uint64_t n = 0;
    for (const auto& s : st) {
      if (static_cast<int>(s.marks.size()) > k + 1) n += s.marks[k + 1].ops - s.marks[k].ops;
    }
    tput.push_back(static_cast<double>(n) / slice_s[k]);
  }
  MetricSet& e = out->e2e;
  e.Set("setup_s", setup_s, "s", reps);
  e.Set("throughput_ops_s", Median(tput), "ops/s", ops);
  Latency(&e, "lookup", st, &ClientStats::lookup, &Mark::lookup);
  e.Set("index_bytes_per_key", bytes_per_key, "B");
  for (const auto& [name, m] : e.all()) {
    out->extra.Set(name, m.value, m.unit, m.samples);
  }
  Latency(&out->extra, "write", st, &ClientStats::write, &Mark::write);
}

/// Runs `build` `reps` times and returns the median build time. `clear`
/// drops the previous build's result first, outside the timed span.
template <typename Clear, typename Build>
double TimedSetup(int reps, Clear&& clear, Build&& build) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    clear();
    const auto t0 = Clock::now();
    build();
    t.push_back(SecondsSince(t0));
  }
  return Median(t);
}

// ---- data ----

/// The paper's §3.7 lognormal keys (li::data::GenLognormal). Large sets
/// are generated as four independently seeded quarters in parallel and
/// merged, then made strictly increasing the same way the library does.
std::vector<uint64_t> LognormalKeys(size_t n, uint64_t seed) {
  if (n < (size_t{8} << 20)) return li::data::GenLognormal(n, Mix(seed));
  constexpr size_t kParts = 4;
  std::vector<std::vector<uint64_t>> part(kParts);
  {
    std::vector<std::thread> th;
    for (size_t i = 0; i < kParts; ++i) {
      th.emplace_back([&, i] {
        part[i] = li::data::GenLognormal(n / kParts + (i < n % kParts ? 1 : 0),
                                         Mix(seed * kParts + i));
      });
    }
    for (auto& t : th) t.join();
  }
  std::vector<uint64_t> a(part[0].size() + part[1].size());
  std::vector<uint64_t> b(part[2].size() + part[3].size());
  {
    std::thread t([&] {
      std::merge(part[0].begin(), part[0].end(), part[1].begin(),
                 part[1].end(), a.begin());
    });
    std::merge(part[2].begin(), part[2].end(), part[3].begin(), part[3].end(),
               b.begin());
    t.join();
  }
  part.clear();
  std::vector<uint64_t> keys(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), keys.begin());
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] <= keys[i - 1]) keys[i] = keys[i - 1] + 1;
  }
  return keys;
}

/// Every key a write workload can touch, sorted, with each key's rank in
/// the build set.
struct Universe {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> init_rank;  // # build keys < keys[u]
  std::vector<uint8_t> in_base;
};

Universe MakeUniverse(const std::vector<uint64_t>& base,
                      const std::vector<uint64_t>& pool_sorted) {
  Universe u;
  u.keys.resize(base.size() + pool_sorted.size());
  std::merge(base.begin(), base.end(), pool_sorted.begin(), pool_sorted.end(),
             u.keys.begin());
  u.init_rank.resize(u.keys.size());
  u.in_base.resize(u.keys.size());
  size_t b = 0;
  for (size_t i = 0; i < u.keys.size(); ++i) {
    u.init_rank[i] = static_cast<uint32_t>(b);
    if (b < base.size() && base[b] == u.keys[i]) {
      u.in_base[i] = 1;
      ++b;
    }
  }
  return u;
}

/// Keys strictly inside gaps of `keys` (never present), in random order.
std::vector<uint64_t> GapKeys(const std::vector<uint64_t>& keys, size_t n,
                              uint64_t seed) {
  Rng r(seed);
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> out;
  while (out.size() < n) {
    size_t i = r.Below(keys.size() - 1);
    while (keys[i + 1] - keys[i] < 2) i = (i + 1) % (keys.size() - 1);
    const uint64_t k = keys[i] + 1 + r.Below(keys[i + 1] - keys[i] - 1);
    if (seen.insert(k).second) out.push_back(k);
  }
  return out;
}

/// Point-side ladder inputs for the range workloads: a sample of the
/// build keys as map keys and decimal strings, gap keys as absent ones.
void RangePointSide(const std::vector<uint64_t>& keys, uint64_t seed,
                    LadderInput* in) {
  constexpr size_t kPointKeys = 100'000;
  Rng r(seed);
  std::set<uint64_t> pick;
  while (pick.size() < std::min(kPointKeys, keys.size())) {
    pick.insert(keys[r.Below(keys.size())]);
  }
  for (const uint64_t k : pick) {
    in->point_hash.push_back(k);
    in->point_keys.push_back(std::to_string(k));
  }
  const std::vector<uint64_t> gaps = GapKeys(keys, 2 * kPointKeys, seed + 1);
  for (size_t i = 0; i < gaps.size(); ++i) {
    auto& hs = i % 2 ? in->point_pool_hash : in->point_absent_hash;
    auto& ss = i % 2 ? in->point_pool : in->point_absent;
    hs.push_back(gaps[i]);
    ss.push_back(std::to_string(gaps[i]));
  }
}

// ---- shared stack pieces ----

/// The library counters of the multi-client window start at their idle
/// values; each workload overwrites those of the layers it runs.
void IdleCounters(Outcome* out) {
  MetricSet& m = out->layer;
  for (const char* n :
       {"concurrent.writable.freezes", "concurrent.writable.merges",
        "concurrent.writable.versions_unreclaimed", "concurrent.sharded.splits",
        "concurrent.sharded.coalesces", "wal.appends", "wal.syncs",
        "concurrent.point.rebuilds", "concurrent.existence.rebuilds"}) {
    m.Set(n, 0, "count");
  }
  m.Set("concurrent.writable.contention_rate", 0, "fraction");
  m.Set("concurrent.writable.merge_drain_s", 0, "s");
  m.Set("concurrent.sharded.imbalance", 1, "ratio");
}

/// Library counters of a sharded stack after the window, as per-layer
/// metrics (the ladder cannot see them: it runs one client).
void ShardedCounters(const Sharded& idx, double drain_s, Outcome* out) {
  IdleCounters(out);
  const li::index::ConcurrentIndexStats s = idx.ConcurrentStats();
  MetricSet& m = out->layer;
  m.Set("concurrent.writable.freezes", static_cast<double>(s.freezes), "count");
  m.Set("concurrent.writable.merges", static_cast<double>(s.merges), "count");
  m.Set("concurrent.writable.contention_rate", s.WriterContentionRate(), "fraction");
  m.Set("concurrent.writable.versions_unreclaimed",
        static_cast<double>(s.states_retired - s.states_reclaimed), "count");
  m.Set("concurrent.writable.merge_drain_s", drain_s, "s");
  m.Set("concurrent.sharded.splits", static_cast<double>(s.shard_splits), "count");
  m.Set("concurrent.sharded.coalesces", static_cast<double>(s.shard_coalesces), "count");
  m.Set("concurrent.sharded.imbalance", s.shard_imbalance, "ratio");
}

/// Lookup of universe position u with the Fenwick bracket check.
template <typename Index>
bool CheckedLookup(const Index& idx, const Universe& U,
                   const std::vector<std::unique_ptr<Fenwick>>& fen,
                   const std::atomic<uint64_t>& writes_done, size_t u,
                   ClientStats& s) {
  const uint64_t w0 = writes_done.load(std::memory_order_acquire);
  const uint64_t t0 = Ticks();
  const size_t got = idx.Lookup(U.keys[u]);
  const uint64_t t1 = Ticks();
  s.lookup.push_back(Lat(t0, t1));
  int64_t expect = U.init_rank[u];
  for (const auto& f : fen) expect += f->Prefix(u);
  const uint64_t w1 = writes_done.load(std::memory_order_acquire);
  const int64_t slack = 2 * (static_cast<int64_t>(fen.size()) - 1) +
                        static_cast<int64_t>(w1 - w0);
  return RankOk(got, expect, slack);
}

/// Quiesced exact check of a sharded stack against the universe oracle:
/// ranks at up to `samples` positions, `scans` Scan results and size().
/// Returns {attempted, failed}.
std::pair<uint64_t, uint64_t> QuiescedCheck(
    const Sharded& idx, const Universe& U,
    const std::vector<std::unique_ptr<Fenwick>>& fen, uint64_t seed,
    size_t samples, size_t scans) {
  uint64_t attempted = 0, failed = 0;
  std::vector<uint8_t> live(U.keys.size());
  size_t live_n = 0;
  for (size_t u = 0; u < U.keys.size(); ++u) {
    int64_t d = 0;  // net change at u, from the Fenwick prefixes
    for (const auto& f : fen) d += f->Prefix(u + 1) - f->Prefix(u);
    live[u] = static_cast<uint8_t>(U.in_base[u] + d);
    live_n += live[u];
  }
  const size_t stride = std::max<size_t>(1, U.keys.size() / samples);
  int64_t rank = 0;
  for (size_t u = 0; u < U.keys.size(); ++u) {
    if (u % stride == 0) {
      ++attempted;
      failed += idx.Lookup(U.keys[u]) == static_cast<uint64_t>(rank) ? 0 : 1;
    }
    rank += live[u];
  }
  ++attempted;
  failed += idx.size() == live_n ? 0 : 1;
  Rng r(seed);
  for (size_t i = 0; i < scans; ++i) {
    const size_t u0 = r.Below(U.keys.size());
    std::vector<uint64_t> expect;
    for (size_t u = u0; u < U.keys.size() && expect.size() < kScanLimit; ++u) {
      if (live[u]) expect.push_back(U.keys[u]);
    }
    ++attempted;
    failed += idx.Scan(U.keys[u0], kScanLimit) == expect ? 0 : 1;
  }
  return {attempted, failed};
}

// ---- read_large ----

bool ReadLarge(const Options& opt, Outcome* out) {
  constexpr size_t kKeys = size_t{64} << 20;
  std::vector<uint64_t> keys = LognormalKeys(kKeys, opt.seed);
  const size_t n = keys.size();
  std::unique_ptr<Sharded> idx;
  std::unique_ptr<li::rangefilter::LearnedRangeFilter> filter;
  bool ok = true;
  const int reps = opt.trace ? 1 : 3;
  const double setup_s = TimedSetup(reps, [&] {
    idx.reset();
    filter.reset();
  }, [&] {
    idx = std::make_unique<Sharded>();
    filter = std::make_unique<li::rangefilter::LearnedRangeFilter>();
    ok = ok && idx->Build(keys, ShardedConfig(n)).ok() &&
         filter->Build(keys).ok();
  });
  if (!ok) {
    fprintf(stderr, "read_large: build failed\n");
    return false;
  }
  const double bytes_per_key =
      static_cast<double>(idx->SizeBytes() + filter->SizeBytes()) / static_cast<double>(n);

  std::vector<ClientStats> st;
  Window win;
  const std::vector<double> slices = win.Run(opt.seconds, &st, [&](int c, ClientStats& s) {
    Rng r(Mix(opt.seed * 131 + c + 1));
    std::vector<uint64_t> bk(kBatch);
    std::vector<size_t> bpos(kBatch), bout(kBatch);
    while (win.Running(s)) {
      const double x = r.Unit();
      bool good;
      if (x < 0.8) {
        const size_t i = r.Below(n);
        const uint64_t t0 = Ticks();
        const size_t got = idx->Lookup(keys[i]);
        s.lookup.push_back(Lat(t0, Ticks()));
        good = got == i;
      } else if (x < 0.9) {
        for (size_t j = 0; j < kBatch; ++j) {
          bpos[j] = r.Below(n);
          bk[j] = keys[bpos[j]];
        }
        const uint64_t t0 = Ticks();
        idx->LookupBatch(bk, bout);
        s.batch.push_back(Lat(t0, Ticks()));
        good = std::equal(bpos.begin(), bpos.end(), bout.begin());
      } else {
        // Half guaranteed-empty gaps, half ranges over 1..200 keys.
        size_t i = r.Below(n - 1), j;
        uint64_t lo, hi;
        const bool empty = r.Next() & 1;
        if (empty) {
          while (keys[i + 1] - keys[i] < 2) i = (i + 1) % (n - 1);
          lo = keys[i] + 1;
          hi = keys[i + 1];
          j = i + 1;  // expect nothing: keys[i+1] >= hi
          i = j;
        } else {
          j = std::min(n, i + 1 + r.Below(200));
          lo = keys[i];
          hi = keys[j - 1] + 1;
        }
        const uint64_t t0 = Ticks();
        const bool maybe = filter->MightContainRange(lo, hi);
        std::vector<uint64_t> got;
        if (maybe) got = idx->Scan(lo, kScanLimit);
        s.range.push_back(Lat(t0, Ticks()));
        const std::span<const uint64_t> expect(keys.data() + i,
                                               std::min(j - i, kScanLimit));
        good = RangeOk(maybe, maybe, got, expect, hi);
        if (empty) {
          ++s.empty_ranges;
          s.empty_scanned += maybe ? 1 : 0;
        }
      }
      ++s.ops;
      s.failed += good ? 0 : 1;
    }
  });
  const auto d0 = Clock::now();
  idx->WaitForRebalances();
  idx->WaitForMerges();
  const double drain_s = SecondsSince(d0);
  Report(out, st, slices, setup_s, reps, bytes_per_key);
  Latency(&out->extra, "batch", st, &ClientStats::batch, &Mark::batch, kBatch, "_per_key");
  Latency(&out->extra, "range", st, &ClientStats::range, &Mark::range);
  uint64_t er = 0, es = 0;
  for (const auto& s : st) {
    er += s.empty_ranges;
    es += s.empty_scanned;
  }
  out->extra.Set("rangefilter_fpr", er ? static_cast<double>(es) / er : 0,
                 "fraction", er);
  if (!opt.trace) return true;

  ShardedCounters(*idx, drain_s, out);
  idx.reset();
  filter.reset();
  LadderInput in;
  in.p_lookup = 0.8;
  in.p_batch = 0.1;
  in.p_range = 0.1;
  in.insert_pool = GapKeys(keys, 4096, Mix(opt.seed + 7));
  RangePointSide(keys, Mix(opt.seed + 8), &in);
  in.keys = std::move(keys);
  RunLadder(in, opt, out);
  return true;
}

// ---- mixed_small ----

bool MixedSmall(const Options& opt, Outcome* out) {
  constexpr size_t kBase = 1 << 20;
  constexpr size_t kPool = 3 << 20;  // held-out keys, same CDF as the base
  const std::vector<uint64_t> all = LognormalKeys(kBase + kPool, opt.seed);
  std::vector<uint64_t> base, pool;
  {
    Rng r(Mix(opt.seed + 1));
    for (const uint64_t k : all) {
      (r.Below(all.size()) < kBase ? base : pool).push_back(k);
    }
  }
  const Universe U = MakeUniverse(base, pool);
  std::vector<std::unique_ptr<Fenwick>> fen;
  for (int c = 0; c < kClients; ++c) {
    fen.push_back(std::make_unique<Fenwick>(U.keys.size()));
  }
  std::unique_ptr<Sharded> idx;
  bool ok = true;
  const int reps = opt.trace ? 1 : 31;
  const double setup_s = TimedSetup(reps, [&] { idx.reset(); }, [&] {
    idx = std::make_unique<Sharded>();
    ok = ok && idx->Build(base, ShardedConfig(base.size())).ok();
  });
  if (!ok) {
    fprintf(stderr, "mixed_small: build failed\n");
    return false;
  }
  const double bytes_per_key =
      static_cast<double>(idx->SizeBytes()) / static_cast<double>(base.size());

  std::atomic<uint64_t> writes_done{0};
  std::vector<ClientStats> st;
  Window win;
  const std::vector<double> slices = win.Run(opt.seconds, &st, [&](int c, ClientStats& s) {
    Rng r(Mix(opt.seed * 131 + c + 1));
    Fenwick& mine = *fen[c];
    std::vector<uint32_t> live, absent;  // universe positions this client owns
    for (size_t u = c; u < U.keys.size(); u += kClients) {
      (U.in_base[u] ? live : absent).push_back(static_cast<uint32_t>(u));
    }
    while (win.Running(s)) {
      const double x = r.Unit();
      bool good;
      if (x >= 0.85 && x < 0.95 && !absent.empty()) {
        const size_t j = r.Below(absent.size());
        const uint32_t u = absent[j];
        absent[j] = absent.back();
        absent.pop_back();
        const uint64_t t0 = Ticks();
        good = idx->Insert(U.keys[u]);
        s.write.push_back(Lat(t0, Ticks()));
        mine.Add(u, +1);
        live.push_back(u);
        writes_done.fetch_add(1, std::memory_order_release);
      } else if (x >= 0.95 && !live.empty()) {
        const size_t j = r.Below(live.size());
        const uint32_t u = live[j];
        live[j] = live.back();
        live.pop_back();
        const uint64_t t0 = Ticks();
        good = idx->Erase(U.keys[u]);
        s.write.push_back(Lat(t0, Ticks()));
        mine.Add(u, -1);
        absent.push_back(u);
        writes_done.fetch_add(1, std::memory_order_release);
      } else {
        good = CheckedLookup(*idx, U, fen, writes_done, r.Below(U.keys.size()), s);
      }
      ++s.ops;
      s.failed += good ? 0 : 1;
    }
  });
  const auto d0 = Clock::now();
  idx->WaitForRebalances();
  idx->WaitForMerges();
  const double drain_s = SecondsSince(d0);
  Report(out, st, slices, setup_s, reps, bytes_per_key);
  const auto [att, fail] = QuiescedCheck(*idx, U, fen, Mix(opt.seed + 3), 1 << 18, 256);
  out->attempted += att;
  out->failed += fail;
  if (!opt.trace) return true;

  ShardedCounters(*idx, drain_s, out);
  idx.reset();
  LadderInput in;
  in.p_lookup = 0.85;
  in.p_insert = 0.10;
  in.p_erase = 0.05;
  in.insert_pool = pool;
  {
    // Held-out keys in random order, so inserts follow the build CDF.
    Rng r(Mix(opt.seed + 9));
    for (size_t i = in.insert_pool.size(); i > 1; --i) {
      std::swap(in.insert_pool[i - 1], in.insert_pool[r.Below(i)]);
    }
  }
  RangePointSide(base, Mix(opt.seed + 8), &in);
  in.keys = std::move(base);
  RunLadder(in, opt, out);
  return true;
}

// ---- ingest_durable ----

bool IngestDurable(const Options& opt, Outcome* out) {
  constexpr size_t kBase = 4 << 20;
  constexpr size_t kPool = 3 << 20;  // zipf-skewed inserts, more than a window uses
  constexpr uint64_t kCheckpointEvery = 1 << 19;  // acknowledged inserts
  const std::vector<uint64_t> base = LognormalKeys(kBase, opt.seed);
  li::lif::InsertSkew skew;
  skew.kind = li::lif::InsertSkew::Kind::kZipf;
  skew.zipf_s = 1.1;
  const std::vector<uint64_t> pool =
      li::lif::MakeSkewedReadWriteWorkload(base, kPool, 1.0, 0, Mix(opt.seed + 2), skew)
          .inserts;
  std::vector<uint64_t> pool_sorted = pool;
  std::sort(pool_sorted.begin(), pool_sorted.end());
  const Universe U = MakeUniverse(base, pool_sorted);
  // Each client inserts its share of the pool in the generated order.
  std::vector<std::vector<uint32_t>> own(kClients);
  for (size_t i = 0; i < pool.size(); ++i) {
    own[i % kClients].push_back(static_cast<uint32_t>(
        std::lower_bound(U.keys.begin(), U.keys.end(), pool[i]) - U.keys.begin()));
  }
  std::vector<std::unique_ptr<Fenwick>> fen;
  for (int c = 0; c < kClients; ++c) {
    fen.push_back(std::make_unique<Fenwick>(U.keys.size()));
  }

  const std::string dir = opt.work_dir + "/ingest_durable";
  CountingBackend backend;
  li::wal::DurabilityConfig dcfg;
  dcfg.path = dir;
  dcfg.fsync_every_n = 0;  // per-record fsync measures the disk, not the program
  dcfg.backend = &backend;
  Sharded::Config cfg = ShardedConfig(base.size());
  cfg.rebalance.enabled = true;
  // The zipf-hot gaps at the dense low end of lognormal keys have no room,
  // so most of the stream lands past the largest key and the last shard
  // grows; at 1.5x the mean mass it splits within one window.
  cfg.rebalance.max_imbalance = 1.5;
  std::unique_ptr<Sharded> idx;
  bool ok = true;
  const int reps = opt.trace ? 1 : 11;
  const double setup_s = TimedSetup(reps, [&] {
    idx.reset();
    RemoveTree(dir);
  }, [&] {
    idx = std::make_unique<Sharded>();
    ok = ok && idx->Build(base, cfg).ok() && idx->EnableDurability(dcfg).ok();
  });
  if (!ok) {
    fprintf(stderr, "ingest_durable: build or EnableDurability failed\n");
    RemoveTree(dir);
    return false;
  }
  const double bytes_per_key =
      static_cast<double>(idx->SizeBytes()) / static_cast<double>(base.size());

  // Snapshot bytes: a checkpoint rewrites every shard file and the
  // MANIFEST; a split writes the new shards' files once.
  std::mutex snap_mu;
  std::set<std::string> seen;
  uint64_t snap_bytes = 0;
  auto account = [&](bool checkpoint) {
    std::lock_guard<std::mutex> lk(snap_mu);
    for (const auto& [name, size] : DirFiles(dir)) {
      if (name.size() < 5 || (name.substr(name.size() - 5) != ".snap" && name != "MANIFEST")) continue;
      if (seen.insert(name).second) snap_bytes += size;
      if (checkpoint) snap_bytes += size;
    }
  };
  account(false);
  snap_bytes = 0;
  const uint64_t wal_bytes0 = backend.bytes.load(), wal_writes0 = backend.writes.load(),
                 wal_syncs0 = backend.syncs.load();

  std::atomic<uint64_t> writes_done{0}, inserted{0};
  std::vector<ClientStats> st;
  Window win;
  const std::vector<double> slices = win.Run(opt.seconds, &st, [&](int c, ClientStats& s) {
    Rng r(Mix(opt.seed * 131 + c + 1));
    Fenwick& mine = *fen[c];
    size_t next = 0;
    while (win.Running(s)) {
      bool good;
      if (r.Unit() < 0.5 && next < own[c].size()) {
        const uint32_t u = own[c][next++];
        const uint64_t t0 = Ticks();
        good = idx->Insert(U.keys[u]);
        s.write.push_back(Lat(t0, Ticks()));
        mine.Add(u, +1);
        if (good) s.acked.push_back(U.keys[u]);
        writes_done.fetch_add(1, std::memory_order_release);
        if ((inserted.fetch_add(1) + 1) % kCheckpointEvery == 0) {
          ++s.ops;
          s.failed += good ? 0 : 1;
          const uint64_t c0 = Ticks();
          good = idx->Checkpoint().ok();
          s.checkpoint.push_back(Ticks() - c0);
          account(true);
        }
      } else {
        good = CheckedLookup(*idx, U, fen, writes_done, r.Below(U.keys.size()), s);
      }
      ++s.ops;
      s.failed += good ? 0 : 1;
    }
  });
  const auto d0 = Clock::now();
  idx->WaitForRebalances();
  idx->WaitForMerges();
  const double drain_s = SecondsSince(d0);
  account(false);
  uint64_t acked_n = 0;
  for (const auto& s : st) acked_n += s.acked.size();
  Report(out, st, slices, setup_s, reps, bytes_per_key);
  const uint64_t wal_bytes = backend.bytes.load() - wal_bytes0;
  out->extra.Set("write_amp",
                 static_cast<double>(wal_bytes + snap_bytes) /
                     (8.0 * static_cast<double>(std::max<uint64_t>(acked_n, 1))),
                 "ratio");
  std::vector<uint64_t> ck;
  for (const auto& s : st) ck.insert(ck.end(), s.checkpoint.begin(), s.checkpoint.end());
  out->extra.Set("checkpoint_p50_s", TicksToNs(static_cast<uint64_t>(Median(ck))) * 1e-9, "s",
                 ck.size());
  if (opt.trace) {
    ShardedCounters(*idx, drain_s, out);
    out->layer.Set("wal.appends", static_cast<double>(backend.writes.load() - wal_writes0), "count");
    out->layer.Set("wal.syncs", static_cast<double>(backend.syncs.load() - wal_syncs0), "count");
  }

  // Drop the index (its logs hold every acknowledged write) and recover.
  idx.reset();
  std::vector<double> rec_t;
  std::unique_ptr<Sharded> rec;
  for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
    rec.reset();
    const auto r0 = Clock::now();
    auto res = Sharded::RecoverDurable(dcfg);
    if (!res.ok()) {
      fprintf(stderr, "ingest_durable: RecoverDurable: %s\n", res.status().ToString().c_str());
      ++out->failed;
      break;
    }
    rec = std::make_unique<Sharded>(std::move(res.value()));
    rec_t.push_back(SecondsSince(r0));
  }
  if (rec != nullptr) {
    out->extra.Set("recover_s", Median(rec_t), "s", rec_t.size());
    for (const auto& s : st) {
      out->failed += LostAcks(s.acked, [&](uint64_t k) { return rec->Contains(k); });
    }
    rec->WaitForRebalances();
    const auto [att, fail] = QuiescedCheck(*rec, U, fen, Mix(opt.seed + 3), 1 << 18, 256);
    out->attempted += att;
    out->failed += fail;
  }
  rec.reset();
  RemoveTree(dir);
  if (!opt.trace) return true;

  LadderInput in;
  in.p_lookup = 0.5;
  in.p_insert = 0.5;
  in.insert_pool = pool;
  RangePointSide(base, Mix(opt.seed + 8), &in);
  in.keys = base;
  RunLadder(in, opt, out);
  return true;
}

// ---- point_filter ----

bool PointFilter(const Options& opt, Outcome* out) {
  constexpr size_t kUrls = 1 << 20;
  li::data::UrlCorpus corpus = li::data::GenUrls(kUrls, 2 << 20, Mix(opt.seed));
  std::vector<std::string>& keys = corpus.keys;  // sorted, unique
  // Negatives (random + whitelisted URLs) minus corpus keys, shuffled and
  // split into GET-absent keys and each client's PUT pool.
  std::vector<std::string> neg = std::move(corpus.random_negatives);
  neg.insert(neg.end(), std::make_move_iterator(corpus.whitelisted.begin()),
             std::make_move_iterator(corpus.whitelisted.end()));
  std::sort(neg.begin(), neg.end());
  neg.erase(std::unique(neg.begin(), neg.end()), neg.end());
  {
    std::vector<std::string> d;
    std::set_difference(neg.begin(), neg.end(), keys.begin(), keys.end(),
                        std::back_inserter(d));
    neg = std::move(d);
  }
  auto hash = [](const std::string& s) { return li::MurmurHash64(s.data(), s.size()); };
  std::vector<uint64_t> key_hash(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) key_hash[i] = hash(keys[i]);
  {
    // Drop negatives whose 64-bit hash collides with a corpus key's.
    std::unordered_set<uint64_t> kh(key_hash.begin(), key_hash.end());
    std::erase_if(neg, [&](const std::string& s) { return kh.count(hash(s)) != 0; });
    Rng r(Mix(opt.seed + 1));
    for (size_t i = neg.size(); i > 1; --i) std::swap(neg[i - 1], neg[r.Below(i)]);
  }
  const size_t n_absent = std::min(neg.size() / 2, kUrls);
  const std::vector<std::string> absent(neg.begin(), neg.begin() + n_absent);
  std::vector<std::vector<std::string>> own(kClients);
  for (size_t i = n_absent; i < neg.size(); ++i) own[i % kClients].push_back(neg[i]);
  std::vector<li::hash::Record> recs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) recs[i] = {key_hash[i], i + 1, 0};

  std::unique_ptr<Existence> ex;
  std::unique_ptr<PointMap> map;
  bool ok = true;
  const int reps = opt.trace ? 1 : 7;
  const double setup_s = TimedSetup(reps, [&] {
    ex.reset();
    map.reset();
  }, [&] {
    ex = std::make_unique<Existence>();
    map = std::make_unique<PointMap>();
    Existence::Config ecfg;
    ecfg.rebuild = li::concurrent::PlainBloomRebuilder(0.01);
    PointMap::Config mcfg;
    mcfg.base.load_factor = 0.95;
    mcfg.base.careful = true;
    ok = ok && ex->Build(keys, ecfg).ok() && map->Build(recs, mcfg).ok();
  });
  if (!ok) {
    fprintf(stderr, "point_filter: build failed\n");
    return false;
  }
  const double bytes_per_key = static_cast<double>(ex->SizeBytes() + map->SizeBytes()) /
                               static_cast<double>(keys.size());

  constexpr uint64_t kPutPayload = uint64_t{1} << 40;
  std::vector<ClientStats> st;
  std::vector<size_t> puts(kClients, 0);
  Window win;
  const std::vector<double> slices = win.Run(opt.seconds, &st, [&](int c, ClientStats& s) {
    Rng r(Mix(opt.seed * 131 + c + 1));
    size_t& next = puts[c];
    li::hash::Record rec;
    while (win.Running(s)) {
      bool good;
      if (r.Unit() < 0.1 && next < own[c].size()) {
        const std::string& url = own[c][next];
        const uint64_t t0 = Ticks();
        const bool a = ex->Insert(url);
        const bool b = map->Insert({hash(url), kPutPayload + next, 0});
        s.write.push_back(Lat(t0, Ticks()));
        ++next;
        good = a && b;
      } else if (r.Next() & 1) {
        const size_t i = r.Below(keys.size());
        const uint64_t t0 = Ticks();
        const bool m = ex->MightContain(keys[i]);
        const bool f = m && map->Find(key_hash[i], &rec);
        s.lookup.push_back(Lat(t0, Ticks()));
        good = f && rec.payload == i + 1;
      } else {
        const std::string& url = absent[r.Below(absent.size())];
        const uint64_t t0 = Ticks();
        const bool m = ex->MightContain(url);
        const bool f = m && map->Find(hash(url), &rec);
        s.lookup.push_back(Lat(t0, Ticks()));
        ++s.absent_gets;
        s.absent_found += m ? 1 : 0;
        good = !f;
      }
      ++s.ops;
      s.failed += good ? 0 : 1;
    }
  });
  const auto d0 = Clock::now();
  ex->WaitForRebuilds();
  map->WaitForRebuilds();
  const double drain_s = SecondsSince(d0);
  Report(out, st, slices, setup_s, reps, bytes_per_key);
  uint64_t ag = 0, af = 0;
  for (const auto& s : st) {
    ag += s.absent_gets;
    af += s.absent_found;
  }
  out->extra.Set("bloom_fpr", ag ? static_cast<double>(af) / ag : 0, "fraction", ag);
  // Every acknowledged PUT must be readable once the rebuilds drain.
  for (int c = 0; c < kClients; ++c) {
    for (size_t j = 0; j < puts[c]; ++j) {
      li::hash::Record rec;
      const std::string& url = own[c][j];
      ++out->attempted;
      out->failed += ex->MightContain(url) && map->Find(hash(url), &rec) &&
                             rec.payload == kPutPayload + j
                         ? 0
                         : 1;
    }
  }
  if (!opt.trace) return true;

  const li::index::ConcurrentIndexStats ms = map->ConcurrentStats();
  const li::index::ConcurrentIndexStats es = ex->ConcurrentStats();
  IdleCounters(out);
  out->layer.Set("concurrent.point.rebuilds", static_cast<double>(ms.merges), "count");
  out->layer.Set("concurrent.existence.rebuilds", static_cast<double>(es.merges), "count");
  out->layer.Set("concurrent.writable.merge_drain_s", drain_s, "s");
  ex.reset();
  map.reset();

  LadderInput in;
  in.p_lookup = 0.9;
  in.p_insert = 0.1;
  in.p_absent = 0.5;
  in.keys = key_hash;
  std::sort(in.keys.begin(), in.keys.end());
  for (const std::string& s : absent) in.absent.push_back(hash(s));
  for (int c = 0; c < kClients; ++c) {
    for (const std::string& s : own[c]) in.insert_pool.push_back(hash(s));
  }
  in.point_keys = keys;
  in.point_hash = key_hash;
  in.point_absent = absent;
  in.point_absent_hash = in.absent;
  for (int c = 0; c < kClients; ++c) {
    in.point_pool.insert(in.point_pool.end(), own[c].begin(), own[c].end());
  }
  in.point_pool_hash = in.insert_pool;
  in.p_put = 0.1;
  RunLadder(in, opt, out);
  return true;
}

}  // namespace

bool RunWorkload(const Options& opt, Outcome* out) {
  if (opt.workload == "read_large") return ReadLarge(opt, out);
  if (opt.workload == "mixed_small") return MixedSmall(opt, out);
  if (opt.workload == "ingest_durable") return IngestDurable(opt, out);
  if (opt.workload == "point_filter") return PointFilter(opt, out);
  fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return false;
}

}  // namespace perfbench
