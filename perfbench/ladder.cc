// The traced ladder: one client replays a fixed sample of a workload's
// requests against standalone rungs, built one at a time over the same
// keys and fed the same writes:
//
//   search.binary -> rmi.predict -> search.last_mile -> rmi.lookup
//   -> dynamic -> concurrent.writable (1 shard) -> concurrent.sharded
//   (4 shards) -> wal (durability on), with btree beside them as the
//   paper's baseline; and, for the point classes, bloom -> concurrent.existence
//   and hash -> concurrent.point.
//
// Every rung call is one span (name "<rung>/<op>", request id = position
// in the sample). A layer's self time is its rung's span minus the span of
// the rung below for the same request. Composite requests get real child
// spans: a range is rangefilter/probe + <rung>/scan, a GET is an existence
// probe + a map find, a PUT an existence insert + a map insert. The delta
// merge, each shard's snapshot open and log replay, the whole-index
// recovery and the checkpoint are spans of their own. Spans stay
// in memory, are written to <work_dir>/spans-<workload>.tsv when the
// ladder ends, and the per-layer metrics are computed from that file.
//
// A class of request that the workload's own mix lacks (batches or ranges
// on the write workloads, writes on read_large) is replayed from a small
// fixed probe, so that every layer reports on every workload; probes never
// run in the end-to-end window. Read probes go first, before any write, so
// the range filter (built over the build keys) stays exact; write probes
// go last.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "btree/readonly_btree.h"
#include "concurrent/concurrent_point_index.h"
#include "concurrent/concurrent_writable_index.h"
#include "concurrent/rebuildable_existence.h"
#include "concurrent/sharded_index.h"
#include "dynamic/delta_range_index.h"
#include "hash/cuckoo_map.h"
#include "rangefilter/learned_range_filter.h"
#include "rmi/rmi.h"
#include "search/search.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using li::Status;
using Rmi = li::rmi::LinearRmi;
using Inner = li::concurrent::ConcurrentWritableIndex<Rmi>;
using Delta = li::dynamic::DeltaRangeIndex<Rmi>;
using PointMap = li::concurrent::ConcurrentPointIndex<
    li::hash::CuckooMap<li::hash::Record>>;
using Existence = li::concurrent::RebuildableExistence<li::bloom::BloomFilter>;
using Clock = std::chrono::steady_clock;

constexpr size_t kReqs = 20'000;   // the workload's own requests
constexpr size_t kProbes = 1'000;  // per probed class
constexpr size_t kBatch = 64;
constexpr size_t kScanLimit = 100;
constexpr size_t kKeysPerLeaf = 100;
constexpr uint64_t kPointReq = 1'000'000;  // request ids of the point sample
constexpr uint64_t kMaintReq = 2'000'000;  // merge, recovery, checkpoint, open

enum class Op : uint8_t { kLookup, kBatch, kRange, kInsert, kErase };

struct Req {
  Op op = Op::kLookup;
  uint64_t key = 0;
  uint64_t hi = 0;             // range: [key, hi)
  int64_t expect = 0;          // lookup: rank over the live keys
  int64_t expect_static = 0;   // lookup: rank over the build keys
  uint32_t first = 0;          // batch / range: offset into the side arrays
  uint32_t count = 0;          // range: expected keys
  bool empty = false;          // range: a guaranteed-empty gap
};

struct Sample {
  std::vector<Req> reqs;
  std::vector<uint64_t> bkeys;
  std::vector<int64_t> bexpect, bexpect_static;
  std::vector<uint64_t> rexpect;
  std::vector<uint64_t> inserted, erased;
};

/// Counts answers that disagree with the oracle.
struct Tally {
  uint64_t attempted = 0, failed = 0;
  void Check(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

Sample MakeSample(const LadderInput& in, uint64_t seed) {
  const std::vector<uint64_t>& K = in.keys;
  const size_t n = K.size();
  Rng r(seed);
  std::vector<Op> ops;
  if (in.p_batch == 0) ops.insert(ops.end(), kProbes, Op::kBatch);
  if (in.p_range == 0) ops.insert(ops.end(), kProbes, Op::kRange);
  for (size_t i = 0; i < kReqs; ++i) {
    double x = r.Unit();
    Op op = Op::kErase;
    for (const auto& [p, o] : {std::pair{in.p_lookup, Op::kLookup},
                               {in.p_batch, Op::kBatch},
                               {in.p_range, Op::kRange},
                               {in.p_insert, Op::kInsert}}) {
      if (x < p) {
        op = o;
        break;
      }
      x -= p;
    }
    ops.push_back(op);
  }
  if (in.p_insert == 0 && in.p_erase == 0) ops.insert(ops.end(), kProbes, Op::kInsert);

  // Choose the write keys up front: inserts take the pool in order, erases
  // distinct build keys. Rank changes are tracked over their sorted union.
  Sample s;
  std::vector<uint64_t> written;
  size_t pool_next = 0;
  for (const Op op : ops) {
    if (op == Op::kInsert && pool_next < in.insert_pool.size()) {
      written.push_back(in.insert_pool[pool_next++]);
    } else if (op == Op::kErase) {
      written.push_back(K[r.Below(n)]);
    }
  }
  std::vector<uint64_t> wsorted = written;
  std::sort(wsorted.begin(), wsorted.end());
  wsorted.erase(std::unique(wsorted.begin(), wsorted.end()), wsorted.end());
  Fenwick delta(wsorted.size());
  std::vector<int8_t> live(wsorted.size());
  for (size_t i = 0; i < wsorted.size(); ++i) {
    live[i] = std::binary_search(K.begin(), K.end(), wsorted[i]) ? 1 : 0;
  }
  auto wpos = [&](uint64_t k) {
    return static_cast<size_t>(std::lower_bound(wsorted.begin(), wsorted.end(), k) -
                               wsorted.begin());
  };
  auto static_rank = [&](uint64_t k) {
    return static_cast<int64_t>(std::lower_bound(K.begin(), K.end(), k) - K.begin());
  };
  auto lookup_key = [&] {
    if (!in.absent.empty() && r.Unit() < in.p_absent) return in.absent[r.Below(in.absent.size())];
    return K[r.Below(n)];
  };

  size_t w = 0;
  for (const Op op : ops) {
    Req q;
    q.op = op;
    switch (op) {
      case Op::kLookup:
        q.key = lookup_key();
        q.expect_static = static_rank(q.key);
        q.expect = q.expect_static + delta.Prefix(wpos(q.key));
        break;
      case Op::kBatch:
        q.first = static_cast<uint32_t>(s.bkeys.size());
        for (size_t j = 0; j < kBatch; ++j) {
          const uint64_t k = lookup_key();
          s.bkeys.push_back(k);
          s.bexpect_static.push_back(static_rank(k));
          s.bexpect.push_back(s.bexpect_static.back() + delta.Prefix(wpos(k)));
        }
        break;
      case Op::kRange: {
        // Half guaranteed-empty gaps, half ranges over 1..200 keys; ranges
        // only run before any write, so the build keys are the oracle.
        size_t i = r.Below(n - 1), j;
        q.empty = r.Next() & 1;
        if (q.empty) {
          while (K[i + 1] - K[i] < 2) i = (i + 1) % (n - 1);
          q.key = K[i] + 1;
          q.hi = K[i + 1];
          i = j = i + 1;
        } else {
          j = std::min(n, i + 1 + r.Below(200));
          q.key = K[i];
          q.hi = K[j - 1] + 1;
        }
        q.first = static_cast<uint32_t>(s.rexpect.size());
        q.count = static_cast<uint32_t>(std::min(j - i, kScanLimit));
        s.rexpect.insert(s.rexpect.end(), K.begin() + i, K.begin() + i + q.count);
        break;
      }
      case Op::kInsert:
      case Op::kErase: {
        if (w >= written.size()) {  // insert pool ran out: read instead
          q.op = Op::kLookup;
          q.key = lookup_key();
          q.expect_static = static_rank(q.key);
          q.expect = q.expect_static + delta.Prefix(wpos(q.key));
          break;
        }
        q.key = written[w++];
        const size_t p = wpos(q.key);
        // A repeated erase of an already-erased key reads instead.
        const bool want_live = op == Op::kInsert;
        if (live[p] == (want_live ? 1 : 0)) {
          q.op = Op::kLookup;
          q.expect_static = static_rank(q.key);
          q.expect = q.expect_static + delta.Prefix(p);
          break;
        }
        live[p] = want_live ? 1 : 0;
        delta.Add(p, want_live ? +1 : -1);
        (want_live ? s.inserted : s.erased).push_back(q.key);
        break;
      }
    }
    s.reqs.push_back(q);
  }
  // An erased key inserted later (or the reverse) ends in its last state.
  std::vector<uint64_t> ins, era;
  for (size_t i = 0; i < wsorted.size(); ++i) {
    const bool base = std::binary_search(K.begin(), K.end(), wsorted[i]);
    if (live[i] && !base) ins.push_back(wsorted[i]);
    if (!live[i] && base) era.push_back(wsorted[i]);
  }
  s.inserted = std::move(ins);
  s.erased = std::move(era);
  return s;
}

/// Span-name ids of one rung's ops.
struct RungNames {
  uint32_t lookup, batch, range, scan, write, probe;
  RungNames(SpanLog& log, const std::string& rung)
      : lookup(log.NameId(rung + "/lookup")),
        batch(log.NameId(rung + "/batch")),
        range(log.NameId(rung + "/range")),
        scan(log.NameId(rung + "/scan")),
        write(log.NameId(rung + "/write")),
        probe(log.NameId("rangefilter/probe")) {}
};

/// Replays every request on a writable rung (reads against the live
/// oracle, ranges through the filter, writes must report a change).
template <typename Index>
void ReplayWritable(const std::string& rung, Index& idx, const Sample& s,
                    const li::rangefilter::LearnedRangeFilter& filter,
                    SpanLog& log, Tally& t) {
  const RungNames nm(log, rung);
  std::vector<size_t> bout(kBatch);
  for (size_t i = 0; i < s.reqs.size(); ++i) {
    const Req& q = s.reqs[i];
    switch (q.op) {
      case Op::kLookup: {
        const uint32_t id = log.Begin(nm.lookup, i);
        const size_t got = idx.Lookup(q.key);
        log.End(id);
        t.Check(static_cast<int64_t>(got) == q.expect);
        break;
      }
      case Op::kBatch: {
        const std::span<const uint64_t> keys(s.bkeys.data() + q.first, kBatch);
        const uint32_t id = log.Begin(nm.batch, i);
        li::index::LookupBatch(idx, keys, std::span<size_t>(bout));
        log.End(id);
        t.Check(std::equal(bout.begin(), bout.end(), s.bexpect.begin() + q.first,
                           [](size_t a, int64_t b) { return static_cast<int64_t>(a) == b; }));
        break;
      }
      case Op::kRange: {
        const uint32_t p = log.Begin(nm.range, i);
        const uint32_t c = log.Begin(nm.probe, i, p);
        const bool maybe = filter.MightContainRange(q.key, q.hi);
        log.End(c);
        std::vector<uint64_t> got;
        if (maybe) {
          const uint32_t c2 = log.Begin(nm.scan, i, p);
          got = idx.Scan(q.key, kScanLimit);
          log.End(c2);
        }
        log.End(p);
        t.Check(RangeOk(maybe, maybe, got,
                        std::span<const uint64_t>(s.rexpect.data() + q.first, q.count), q.hi));
        break;
      }
      case Op::kInsert:
      case Op::kErase: {
        const uint32_t id = log.Begin(nm.write, i);
        const bool changed = q.op == Op::kInsert ? idx.Insert(q.key) : idx.Erase(q.key);
        log.End(id);
        t.Check(changed);
        break;
      }
    }
  }
}

/// Lookups on a static rung, against the build-key oracle.
template <typename LookupFn>
void ReplayStatic(SpanLog& log, const std::string& rung, const Sample& s, Tally& t,
                  LookupFn&& lookup) {
  const uint32_t nl = log.NameId(rung + "/lookup");
  for (size_t i = 0; i < s.reqs.size(); ++i) {
    const Req& q = s.reqs[i];
    if (q.op != Op::kLookup) continue;
    const uint32_t id = log.Begin(nl, i);
    const size_t got = lookup(q.key);
    log.End(id);
    t.Check(static_cast<int64_t>(got) == q.expect_static);
  }
}

/// Keeps results of timed-only loops observable.
volatile size_t g_sink = 0;

std::vector<double> Durations(const SpanLog& log, const std::string& name) {
  std::vector<double> out;
  for (const auto& [req, d] : DurationsByReq(log, name)) out.push_back(d);
  return out;
}

}  // namespace

void RunLadder(const LadderInput& in, const Options& opt, Outcome* out) {
  const std::vector<uint64_t>& K = in.keys;
  const size_t n = K.size();
  const Sample s = MakeSample(in, Mix(opt.seed + 101));
  MetricSet& m = out->layer;
  SpanLog log;
  log.Reserve(16 * (s.reqs.size() + kProbes) + 64);
  Tally t;
  size_t writes = 0;
  for (const Req& q : s.reqs) writes += q.op == Op::kInsert || q.op == Op::kErase;

  li::rangefilter::LearnedRangeFilter filter;
  if (!filter.Build(K).ok()) t.Check(false);
  {
    uint64_t empty = 0, maybe = 0;
    for (const Req& q : s.reqs) {
      if (q.op == Op::kRange && q.empty) {
        ++empty;
        maybe += filter.MightContainRange(q.key, q.hi) ? 1 : 0;
      }
    }
    m.Set("rangefilter.fpr", empty ? static_cast<double>(maybe) / empty : 0, "fraction", empty);
    m.Set("rangefilter.bits_per_key", 8.0 * filter.SizeBytes() / n, "bits");
  }

  // ---- static rungs over the build keys ----
  ReplayStatic(log, "search.binary", s, t, [&](uint64_t k) {
    return static_cast<size_t>(std::lower_bound(K.begin(), K.end(), k) - K.begin());
  });
  {
    li::rmi::RmiConfig rcfg;
    rcfg.num_leaf_models = std::max<size_t>(64, n / kKeysPerLeaf);
    Rmi rmi;
    const auto b0 = Clock::now();
    t.Check(rmi.Build(K, rcfg).ok());
    m.Set("rmi.build_s", SecondsSince(b0), "s");
    m.Set("rmi.bytes_per_key", static_cast<double>(rmi.SizeBytes()) / n, "B");
    std::vector<uint64_t> widths;
    const uint32_t np = log.NameId("rmi.predict/lookup");
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      if (s.reqs[i].op != Op::kLookup) continue;
      const uint32_t id = log.Begin(np, i);
      const li::index::Approx a = rmi.ApproxPos(s.reqs[i].key);
      log.End(id);
      widths.push_back(a.Width());
    }
    m.Set("rmi.window_p50_keys", Percentile(widths, 0.5), "keys", widths.size());
    m.Set("rmi.window_p99_keys", Percentile(widths, 0.99), "keys", widths.size());
    // The last mile alone: the same window and step Lookup uses.
    const uint32_t nm = log.NameId("search.last_mile/lookup");
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      const Req& q = s.reqs[i];
      if (q.op != Op::kLookup) continue;
      const Rmi::Prediction p = rmi.Predict(q.key);
      const uint32_t id = log.Begin(nm, i);
      const size_t got = li::search::FindInWindow(
          rcfg.strategy, K.data(), n, q.key, li::index::Approx{p.pos, p.lo, p.hi},
          static_cast<size_t>(p.std_err) + 1);
      log.End(id);
      t.Check(static_cast<int64_t>(got) == q.expect_static);
    }
    ReplayStatic(log, "rmi.lookup", s, t, [&](uint64_t k) { return rmi.Lookup(k); });
    const uint32_t nb = log.NameId("rmi.lookup/batch");
    std::vector<size_t> bout(kBatch);
    for (size_t i = 0; i < s.reqs.size(); ++i) {
      const Req& q = s.reqs[i];
      if (q.op != Op::kBatch) continue;
      const uint32_t id = log.Begin(nb, i);
      rmi.LookupBatch(std::span<const uint64_t>(s.bkeys.data() + q.first, kBatch), bout);
      log.End(id);
      t.Check(std::equal(bout.begin(), bout.end(), s.bexpect_static.begin() + q.first,
                         [](size_t a, int64_t b) { return static_cast<int64_t>(a) == b; }));
    }
  }
  {
    li::btree::ReadOnlyBTree bt;
    t.Check(bt.Build(K, li::btree::ReadOnlyBTreeConfig{}).ok());
    m.Set("btree.bytes_per_key", static_cast<double>(bt.SizeBytes()) / n, "B");
    ReplayStatic(log, "btree", s, t, [&](uint64_t k) { return bt.Lookup(k); });
  }

  // ---- writable rungs, each fed the same writes ----
  {
    Delta d;
    Delta::Config cfg;
    cfg.base.num_leaf_models = std::max<size_t>(64, n / kKeysPerLeaf);
    t.Check(d.Build(K, cfg).ok());
    ReplayWritable("dynamic", d, s, filter, log, t);
    const uint32_t id = log.Begin(log.NameId("dynamic/merge"), kMaintReq);
    t.Check(d.Merge().ok());
    log.End(id);
  }
  {
    Inner cw;
    Inner::Config cfg;
    cfg.base.num_leaf_models = std::max<size_t>(64, n / kKeysPerLeaf);
    t.Check(cw.Build(K, cfg).ok());
    ReplayWritable("concurrent.writable", cw, s, filter, log, t);
  }
  const Sharded::Config scfg = ShardedConfig(n);
  {
    Sharded sh;
    t.Check(sh.Build(K, scfg).ok());
    ReplayWritable("concurrent.sharded", sh, s, filter, log, t);
    // Tracing overhead: the same lookups with and without span recording,
    // alternated; the median difference per lookup.
    std::vector<uint64_t> keys;
    for (const Req& q : s.reqs) {
      if (q.op == Op::kLookup) keys.push_back(q.key);
    }
    SpanLog scratch;
    scratch.Reserve(keys.size());
    const uint32_t nid = scratch.NameId("x");
    std::vector<double> diff;
    size_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const uint64_t a0 = Ticks();
      for (const uint64_t k : keys) sink += sh.Lookup(k);
      const uint64_t a1 = Ticks();
      for (size_t i = 0; i < keys.size(); ++i) {
        const uint32_t id = scratch.Begin(nid, i);
        sink += sh.Lookup(keys[i]);
        scratch.End(id);
      }
      const uint64_t a2 = Ticks();
      diff.push_back((TicksToNs(a2 - a1) - TicksToNs(a1 - a0)) / keys.size());
      scratch = SpanLog();
      scratch.Reserve(keys.size());
      scratch.NameId("x");
    }
    g_sink = sink;
    m.Set("trace.overhead_ns_per_op", Median(diff), "ns", keys.size());
  }
  {
    const std::string dir = opt.work_dir + "/ladder_wal";
    RemoveTree(dir);
    CountingBackend backend;
    li::wal::DurabilityConfig dcfg;
    dcfg.path = dir;
    dcfg.fsync_every_n = 0;
    dcfg.backend = &backend;
    {
      Sharded sh;
      t.Check(sh.Build(K, scfg).ok() && sh.EnableDurability(dcfg).ok());
      const uint64_t b0 = backend.bytes.load();
      ReplayWritable("wal", sh, s, filter, log, t);
      m.Set("wal.bytes_per_write",
            static_cast<double>(backend.bytes.load() - b0) / std::max<size_t>(writes, 1), "B");
    }
    // Restart shard by shard through the public pieces RecoverDurable
    // uses: open each shard snapshot, then replay its log tail.
    const uint32_t nopen = log.NameId("snapshot/open"), nrep = log.NameId("wal/replay");
    for (const auto& [name, size] : DirFiles(dir)) {
      if (!name.ends_with(".snap")) continue;
      const std::string stem = dir + "/" + name.substr(0, name.size() - 5);
      uint32_t id = log.Begin(nopen, kMaintReq);
      auto shard = Inner::OpenSnapshot(stem + ".snap");
      log.End(id);
      t.Check(shard.ok());
      if (!shard.ok()) continue;
      li::wal::DurabilityConfig shard_cfg;
      shard_cfg.path = stem + ".wal";
      shard_cfg.fsync_every_n = 0;
      id = log.Begin(nrep, kMaintReq);
      t.Check(shard.value().RecoverFromWal(shard_cfg).ok());
      log.End(id);
    }
    // The whole-index restart, then a checkpoint of the recovered index.
    uint32_t id = log.Begin(log.NameId("wal/recover"), kMaintReq);
    auto rec = Sharded::RecoverDurable(dcfg);
    log.End(id);
    t.Check(rec.ok());
    if (rec.ok()) {
      Sharded& r = rec.value();
      t.Check(LostAcks(s.inserted, [&](uint64_t k) { return r.Contains(k); }) == 0);
      t.Check(LostAcks(s.erased, [&](uint64_t k) { return !r.Contains(k); }) == 0);
      id = log.Begin(log.NameId("snapshot/checkpoint"), kMaintReq);
      t.Check(r.Checkpoint().ok());
      log.End(id);
      uint64_t snap_bytes = 0;
      for (const auto& [name, size] : DirFiles(dir)) {
        if (name.ends_with(".snap")) snap_bytes += size;
      }
      m.Set("snapshot.bytes_per_key", static_cast<double>(snap_bytes) / r.size(), "B");
    }
    RemoveTree(dir);
  }

  // ---- point rungs ----
  {
    Rng r(Mix(opt.seed + 202));
    struct PReq {
      bool put;
      bool present;
      uint32_t i;
    };
    std::vector<PReq> preq;
    size_t pool_next = 0;
    for (size_t i = 0; i < kReqs; ++i) {
      if (r.Unit() < in.p_put && pool_next < in.point_pool.size()) {
        preq.push_back({true, false, static_cast<uint32_t>(pool_next++)});
      } else if (r.Next() & 1) {
        preq.push_back({false, true, static_cast<uint32_t>(r.Below(in.point_keys.size()))});
      } else {
        preq.push_back({false, false, static_cast<uint32_t>(r.Below(in.point_absent.size()))});
      }
    }
    for (size_t i = 0; in.p_put == 0 && i < kProbes && pool_next < in.point_pool.size(); ++i) {
      preq.push_back({true, false, static_cast<uint32_t>(pool_next++)});
    }
    auto str = [&](const PReq& q) -> const std::string& {
      return q.put ? in.point_pool[q.i] : q.present ? in.point_keys[q.i] : in.point_absent[q.i];
    };
    auto hsh = [&](const PReq& q) {
      return q.put ? in.point_pool_hash[q.i]
                   : q.present ? in.point_hash[q.i] : in.point_absent_hash[q.i];
    };
    std::vector<li::hash::Record> recs(in.point_keys.size());
    for (size_t i = 0; i < recs.size(); ++i) recs[i] = {in.point_hash[i], i + 1, 0};
    {
      li::bloom::BloomFilter bf;
      t.Check(bf.Init(in.point_keys.size(), 0.01).ok());
      for (const std::string& k : in.point_keys) bf.Add(std::string_view(k));
      const uint32_t nb = log.NameId("bloom/probe");
      uint64_t absent = 0, fp = 0;
      for (size_t i = 0; i < preq.size(); ++i) {
        if (preq[i].put) continue;
        const uint32_t id = log.Begin(nb, kPointReq + i);
        const bool maybe = bf.MightContain(std::string_view(str(preq[i])));
        log.End(id);
        if (preq[i].present) {
          t.Check(maybe);
        } else {
          ++absent;
          fp += maybe ? 1 : 0;
        }
      }
      m.Set("bloom.fpr", absent ? static_cast<double>(fp) / absent : 0, "fraction", absent);
    }
    li::hash::CuckooMapConfig ccfg;
    ccfg.load_factor = 0.95;
    ccfg.careful = true;
    {
      li::hash::CuckooMap<li::hash::Record> map;
      t.Check(map.Build(recs, ccfg).ok());
      const uint32_t nf = log.NameId("hash/find");
      for (size_t i = 0; i < preq.size(); ++i) {
        if (preq[i].put) continue;
        const uint32_t id = log.Begin(nf, kPointReq + i);
        const li::hash::Record* rec = map.Find(hsh(preq[i]));
        log.End(id);
        t.Check(preq[i].present ? rec != nullptr && rec->payload == preq[i].i + 1
                                : rec == nullptr);
      }
    }
    {
      Existence ex;
      Existence::Config ecfg;
      ecfg.rebuild = li::concurrent::PlainBloomRebuilder(0.01);
      PointMap map;
      PointMap::Config mcfg;
      mcfg.base = ccfg;
      t.Check(ex.Build(in.point_keys, ecfg).ok() && map.Build(recs, mcfg).ok());
      const uint32_t ng = log.NameId("point/get"), np = log.NameId("point/put"),
                     nep = log.NameId("concurrent.existence/probe"),
                     nei = log.NameId("concurrent.existence/insert"),
                     nmf = log.NameId("concurrent.point/find"),
                     nmi = log.NameId("concurrent.point/insert");
      constexpr uint64_t kPutPayload = uint64_t{1} << 40;
      for (size_t i = 0; i < preq.size(); ++i) {
        const PReq& q = preq[i];
        const uint64_t req = kPointReq + i;
        if (q.put) {
          const uint32_t p = log.Begin(np, req);
          const uint32_t c = log.Begin(nei, req, p);
          const bool a = ex.Insert(str(q));
          log.End(c);
          const uint32_t c2 = log.Begin(nmi, req, p);
          const bool b = map.Insert({hsh(q), kPutPayload + q.i, 0});
          log.End(c2);
          log.End(p);
          t.Check(a && b);
          continue;
        }
        li::hash::Record rec;
        const uint32_t p = log.Begin(ng, req);
        const uint32_t c = log.Begin(nep, req, p);
        const bool maybe = ex.MightContain(str(q));
        log.End(c);
        bool found = false;
        if (maybe) {
          const uint32_t c2 = log.Begin(nmf, req, p);
          found = map.Find(hsh(q), &rec);
          log.End(c2);
        }
        log.End(p);
        t.Check(q.present ? found && rec.payload == q.i + 1 : !found);
      }
    }
  }

  // ---- spans out, metrics from the file ----
  const std::string path = opt.work_dir + "/spans-" + opt.workload + ".tsv";
  SpanLog back;
  if (!log.Write(path) || !SpanLog::Read(path, &back)) {
    fprintf(stderr, "ladder: cannot write or read back %s\n", path.c_str());
    t.Check(false);
    back = std::move(log);
  }
  auto med = [&](const std::string& name) { return Median(Durations(back, name)); };
  auto self = [&](const std::string& up, const std::string& lo) {
    return Median(RungSelfNs(back, up, lo));
  };
  m.Set("search.binary_ns", med("search.binary/lookup"), "ns");
  m.Set("rmi.predict_ns", med("rmi.predict/lookup"), "ns");
  m.Set("search.last_mile_ns", med("search.last_mile/lookup"), "ns");
  m.Set("rmi.lookup_ns", med("rmi.lookup/lookup"), "ns");
  m.Set("rmi.batch_ns_per_key", med("rmi.lookup/batch") / kBatch, "ns");
  m.Set("btree.lookup_ns", med("btree/lookup"), "ns");
  m.Set("rangefilter.probe_ns", med("rangefilter/probe"), "ns");
  m.Set("dynamic.lookup_self_ns", self("dynamic/lookup", "rmi.lookup/lookup"), "ns");
  m.Set("dynamic.write_ns", med("dynamic/write"), "ns");
  m.Set("concurrent.writable.lookup_self_ns",
        self("concurrent.writable/lookup", "dynamic/lookup"), "ns");
  m.Set("concurrent.writable.write_self_ns",
        self("concurrent.writable/write", "dynamic/write"), "ns");
  m.Set("concurrent.sharded.lookup_self_ns",
        self("concurrent.sharded/lookup", "concurrent.writable/lookup"), "ns");
  m.Set("concurrent.sharded.batch_self_ns_per_key",
        self("concurrent.sharded/batch", "concurrent.writable/batch") / kBatch, "ns");
  m.Set("wal.append_self_ns", self("wal/write", "concurrent.sharded/write"), "ns");
  auto total_s = [&](const std::string& name) {
    const std::map<uint64_t, double> d = DurationsByReq(back, name);
    return d.empty() ? 0.0 : d.begin()->second * 1e-9;
  };
  m.Set("dynamic.merge_s", total_s("dynamic/merge"), "s");
  m.Set("snapshot.checkpoint_s", total_s("snapshot/checkpoint"), "s");
  m.Set("snapshot.open_s", total_s("snapshot/open"), "s");
  m.Set("wal.replay_ns_per_record", total_s("wal/replay") * 1e9 / std::max<size_t>(writes, 1),
        "ns", writes);
  m.Set("hash.find_ns", med("hash/find"), "ns");
  m.Set("concurrent.point.find_self_ns", self("concurrent.point/find", "hash/find"), "ns");
  m.Set("concurrent.point.insert_ns", med("concurrent.point/insert"), "ns");
  m.Set("bloom.probe_ns", med("bloom/probe"), "ns");
  m.Set("concurrent.existence.probe_self_ns",
        self("concurrent.existence/probe", "bloom/probe"), "ns");
  out->attempted += t.attempted;
  out->failed += t.failed;
}

}  // namespace perfbench
