// Self-tests for the perfbench harness: the percentile helper, the oracle
// checks and the span self-time arithmetic. Run with
//   python3 perfbench/run.py --selftest
// or directly as `perfbench_selftest <scratch dir>`. Exits non-zero when a
// check fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "concurrent/concurrent_writable_index.h"
#include "concurrent/sharded_index.h"
#include "harness.h"
#include "rmi/rmi.h"
#include "wal/wal.h"

namespace pb = perfbench;

namespace {

int g_failed = 0;
std::string g_dir = ".";  // scratch space for the WAL and span files

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "FAIL: %s\n", what);
    ++g_failed;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-6; }

void TestPercentile() {
  pb::Rng r(7);
  for (size_t n : {1, 2, 3, 10, 99, 100, 101, 1000, 4097}) {
    std::vector<uint32_t> v(n);
    for (auto& x : v) x = static_cast<uint32_t>(r.Below(1000));
    std::vector<uint32_t> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      // Nearest rank: the ceil(q * n)-th smallest sample.
      const size_t rank = std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n)));
      std::vector<uint32_t> copy = v;
      Expect(pb::Percentile(copy, q) == sorted[rank - 1], "percentile matches sorted reference");
    }
  }
  std::vector<double> empty;
  Expect(pb::Percentile(empty, 0.5) == 0.0, "percentile of nothing is 0");
}

void TestRankOracle() {
  // A real index, a correct rank and a deliberately wrong one.
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 10000; ++i) keys.push_back(i * 7 + 3);
  li::rmi::LinearRmi rmi;
  li::rmi::RmiConfig cfg;
  cfg.num_leaf_models = 64;
  Expect(rmi.Build(keys, cfg).ok(), "rmi builds");
  const size_t got = rmi.Lookup(keys[1234]);
  Expect(pb::RankOk(got, 1234, 0), "correct rank accepted");
  Expect(!pb::RankOk(got + 1, 1234, 0), "wrong rank caught with no slack");
  Expect(!pb::RankOk(got + 3, 1234, 2), "wrong rank caught beyond the slack");
  Expect(pb::RankOk(got + 2, 1234, 2), "rank within the slack accepted");

  // Fenwick prefix sums against a plain array.
  pb::Fenwick f(100);
  std::vector<int> plain(100);
  for (int i = 0; i < 300; ++i) {
    const size_t p = static_cast<size_t>(i * 37 % 100);
    const int d = (i % 3) ? 1 : -1;
    f.Add(p, d);
    plain[p] += d;
  }
  int64_t s = 0;
  bool same = true;
  for (size_t i = 0; i <= 100; ++i) {
    same &= f.Prefix(i) == s;
    if (i < 100) s += plain[i];
  }
  Expect(same, "fenwick prefix sums match");
}

void TestRangeOracle() {
  const std::vector<uint64_t> expect = {10, 11, 12};
  const std::vector<uint64_t> scan = {10, 11, 12, 40, 41};
  Expect(pb::RangeOk(true, true, scan, expect, 13), "correct range accepted");
  Expect(!pb::RangeOk(false, false, {}, expect, 13), "false 'empty' caught");
  Expect(pb::RangeOk(false, false, {}, {}, 13), "true 'empty' accepted");
  Expect(pb::RangeOk(true, true, scan, {}, 10), "filter false positive accepted");
  const std::vector<uint64_t> short_scan = {10, 12, 40};
  Expect(!pb::RangeOk(true, true, short_scan, expect, 13), "missing key in scan caught");
  Expect(!pb::RangeOk(true, false, {}, expect, 13), "skipped scan caught");
}

void TestLostAck() {
  using Sharded = li::concurrent::ShardedIndex<
      li::concurrent::ConcurrentWritableIndex<li::rmi::LinearRmi>>;
  const std::string dir = g_dir + "/selftest_wal";
  pb::RemoveTree(dir);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 20000; ++i) keys.push_back(i * 10);
  li::wal::DurabilityConfig dcfg;
  dcfg.path = dir;
  dcfg.fsync_every_n = 0;
  Sharded::Config cfg;
  cfg.num_shards = 2;
  cfg.inner.base.num_leaf_models = 64;
  std::vector<uint64_t> acked;
  {
    Sharded idx;
    Expect(idx.Build(keys, cfg).ok() && idx.EnableDurability(dcfg).ok(), "durable build");
    for (uint64_t i = 0; i < 500; ++i) {
      if (idx.Insert(i * 10 + 5)) acked.push_back(i * 10 + 5);
    }
    // Deliberately lose one acknowledged write before the restart.
    idx.Erase(acked[123]);
  }
  auto rec = Sharded::RecoverDurable(dcfg);
  Expect(rec.ok(), "recovers");
  if (rec.ok()) {
    const size_t lost =
        pb::LostAcks(acked, [&](uint64_t k) { return rec.value().Contains(k); });
    Expect(lost == 1, "the lost acknowledged write is caught");
  }
  pb::RemoveTree(dir);
}

void TestSelfTime() {
  // Hand-built span file (times in ns): two rungs answering the same
  // requests, ranges with filter-probe and scan children.
  //   req 0: upper/range [0,100) > probe [10,30), upper/scan [40,90)
  //          lower/range [200,260) > probe [205,215), lower/scan [220,250)
  //   req 1: upper/lookup [300,340), lower/lookup [400,425)
  //   req 2: upper/lookup [500,530) only
  const std::string path = g_dir + "/selftest_spans.tsv";
  {
    std::ofstream f(path);
    f << "1\t0\t0\tupper/range\t0\t100\n"
         "2\t1\t0\trangefilter/probe\t10\t30\n"
         "3\t1\t0\tupper/scan\t40\t90\n"
         "4\t0\t0\tlower/range\t200\t260\n"
         "5\t4\t0\trangefilter/probe\t205\t215\n"
         "6\t4\t0\tlower/scan\t220\t250\n"
         "7\t0\t1\tupper/lookup\t300\t340\n"
         "8\t0\t1\tlower/lookup\t400\t425\n"
         "9\t0\t2\tupper/lookup\t500\t530\n";
  }
  pb::SpanLog log;
  Expect(pb::SpanLog::Read(path, &log) && log.spans().size() == 9, "span file reads back");
  std::filesystem::remove(path);
  auto one = [](const std::vector<double>& v, double want) {
    return v.size() == 1 && Near(v[0], want);
  };
  Expect(one(pb::RungSelfNs(log, "upper/range", "lower/range"), 100 - 60),
         "range self time is the upper rung minus the lower");
  Expect(one(pb::RungSelfNs(log, "upper/scan", "lower/scan"), 50 - 30),
         "child spans pair by request too");
  Expect(one(pb::RungSelfNs(log, "upper/lookup", "lower/lookup"), 40 - 25),
         "a request without a lower span is left out");
  const auto probe = pb::DurationsByReq(log, "rangefilter/probe");
  Expect(probe.size() == 1 && Near(probe.at(0), 20 + 10), "durations add up per request");

  // A file whose parent ids point forward is rejected.
  {
    std::ofstream f(path);
    f << "1\t2\t0\ta\t0\t1\n";
  }
  Expect(!pb::SpanLog::Read(path, &log), "malformed span file rejected");

  // Round trip: what Write emits, Read parses back.
  pb::SpanLog live;
  const uint32_t a = live.NameId("a");
  const uint32_t id = live.Begin(a, 5);
  live.End(id);
  Expect(live.Write(path), "span file writes");
  pb::SpanLog back;
  Expect(pb::SpanLog::Read(path, &back) && back.spans().size() == 1 &&
             back.spans()[0].req == 5 && back.Name(back.spans()[0].name) == "a",
         "written spans read back");
  std::filesystem::remove(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) g_dir = argv[1];
  TestPercentile();
  TestRankOracle();
  TestRangeOracle();
  TestLostAck();
  TestSelfTime();
  if (g_failed != 0) {
    fprintf(stderr, "%d check(s) failed\n", g_failed);
    return 1;
  }
  printf("perfbench selftest: all checks passed\n");
  return 0;
}
