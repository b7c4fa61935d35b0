// RebuildableExistence<Base> — online-insertable existence filtering over
// any static index::ExistenceIndex (plain Bloom, learned Bloom,
// model-hash), behind the library-wide index::ConcurrentExistenceIndex
// contract.
//
// A static filter cannot admit new keys (a learned Bloom in particular
// must re-calibrate its threshold), so inserts land in an *exact* side
// set layered over the published filter. The version lifecycle and the
// background worker are the shared ones of versioned.h and
// background_worker.h. What this wrapper supplies:
//   * versions { filter (covers `corpus`), corpus (sorted keys the filter
//     was built over; the rebuild input), pending (sorted keys handed to
//     an in-flight rebuild, still answered exactly), frozen side set
//     (sorted inserted keys), write log };
//   * the read fold: log -> frozen -> pending -> filter. Every side
//     structure is exact, so the §5 no-false-negative guarantee extends to
//     inserted keys the moment Insert returns. The log is columnar: a
//     64-bit hash tag per insert, probed with one find_last_eq_u64 kernel
//     call (simd/dispatch.h), and the string itself, compared only on a
//     tag match so answers stay exact;
//   * the rebuild body: the rotation moves frozen -> pending; the build
//     runs the caller-supplied `Rebuilder` over corpus ∪ pending (for a
//     learned filter this is where the threshold re-calibrates and the
//     overflow Bloom re-forms); the publish installs {filter', corpus',
//     pending = ∅}, keeping whatever the side set gained during the
//     build. On failure pending folds back into frozen and the old filter
//     keeps serving (exactness is never at risk — only memory growth),
//     surfacing through last_rebuild_status();
//   * the trigger: the side set outgrowing `staleness` (side/corpus
//     ratio).
//
// The Rebuilder is a plain std::function so the LIF synthesizer can hand
// in closures owning a classifier (the OwnedLearnedBloom pattern);
// PlainBloomRebuilder covers the no-model case.

#ifndef LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_
#define LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"
#include "concurrent/background_worker.h"
#include "concurrent/versioned.h"
#include "index/concurrent_existence_index.h"
#include "index/concurrent_writable_index.h"
#include "index/existence_index.h"

namespace li::concurrent {

template <index::ExistenceIndex Base>
class RebuildableExistence {
 public:
  using base_type = Base;
  /// Builds `*out` over exactly `keys` (sorted, unique). Must leave the
  /// result with no false negatives over `keys`; called off-lock on the
  /// background worker, so it may train models, calibrate thresholds,
  /// allocate freely.
  using Rebuilder =
      std::function<Status(std::span<const std::string> keys, Base* out)>;

  struct Config {
    Rebuilder rebuild{};  // required: Build fails without one
    /// Side-set fraction of the corpus that triggers a background
    /// rebuild; 0 disables the automatic trigger (RequestRebuild still
    /// works).
    double staleness = 0.05;
    /// Floor before the ratio trigger arms (tiny corpora would otherwise
    /// rebuild on every insert).
    size_t min_side_keys = 256;
    /// Write-log capacity per version.
    size_t log_cap = 1024;
  };
  using config_type = Config;

  RebuildableExistence() = default;
  RebuildableExistence(RebuildableExistence&&) noexcept = default;
  RebuildableExistence& operator=(RebuildableExistence&&) noexcept = default;

  /// Builds the initial filter over `keys` (any order, duplicates
  /// dropped) via config.rebuild and starts the background worker. An
  /// empty span is allowed: the filter starts over the empty set. Not
  /// thread-safe against other methods (build-then-share). On failure
  /// the handle reverts to never-built: MightContain false, Insert
  /// dropped.
  Status Build(std::span<const std::string> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  bool MightContain(std::string_view key) const {
    return impl_ != nullptr && impl_->MightContain(key);
  }
  size_t num_keys() const { return impl_ ? impl_->num_keys() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }
  double MeasuredFpr(std::span<const std::string> non_keys) const {
    return index::MeasureFprOver(*this, non_keys);
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }

  // ---- writes: safe from any thread, serialized internally ----

  /// Exact-membership insert: true iff the key was not already present
  /// (corpus or side set — exact, not filter-positive). Once this
  /// returns, MightContain(key) is true on every thread, permanently.
  bool Insert(std::string_view key) {
    return impl_ != nullptr && impl_->Insert(key);
  }

  // ---- rebuild control ----

  Status Rebuild() {
    return impl_ ? impl_->worker_.RunSync()
                 : Status::FailedPrecondition(
                       "RebuildableExistence: not built");
  }
  void RequestRebuild() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  void WaitForRebuilds() {
    if (impl_ != nullptr) impl_->worker_.WaitIdle();
  }
  Status last_rebuild_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  using Keys = std::vector<std::string>;

  /// Append-only bytes behind the log's string column, one arena per
  /// version. Chunks never move, so a pointer published through the log
  /// stays valid for the version's life; each string is stored after its
  /// length.
  class StringArena {
   public:
    /// Writer-mutex holder only.
    const char* Add(std::string_view str) {
      const size_t len = str.size();
      const size_t need = sizeof(len) + len;
      if (room_ < need) {
        const size_t bytes = std::max(kChunkBytes, need);
        chunks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
        next_ = chunks_.back().get();
        room_ = bytes;
        bytes_.fetch_add(bytes, std::memory_order_relaxed);
      }
      char* at = next_;
      std::memcpy(at, &len, sizeof(len));
      std::copy(str.begin(), str.end(), at + sizeof(len));
      next_ += need;
      room_ -= need;
      return at;
    }
    static std::string_view View(const char* at) {
      size_t len;
      std::memcpy(&len, at, sizeof(len));
      return {at + sizeof(len), len};
    }
    /// What the chunks allocate.
    size_t SizeBytes() const { return bytes_.load(std::memory_order_relaxed); }

   private:
    static constexpr size_t kChunkBytes = 4096;
    std::vector<std::unique_ptr<char[]>> chunks_;
    char* next_ = nullptr;
    size_t room_ = 0;
    std::atomic<size_t> bytes_{0};
  };

  /// The log's columns: the inserted string's hash tag and the string,
  /// stored in the version's StringArena.
  enum LogColumn : size_t { kTag, kStr };
  using Log = WriteLog<uint64_t, const char*>;
  using LogView = Log::View;

  static uint64_t Tag(std::string_view key) {
    return MurmurHash64(key.data(), key.size());
  }

  /// One published version; only its log's unpublished tail changes.
  struct State {
    std::shared_ptr<const Base> filter;   // covers *corpus, no more
    std::shared_ptr<const Keys> corpus;   // sorted
    std::shared_ptr<const Keys> pending;  // sorted, or null
    Keys frozen;                          // sorted
    typename Log::Segment log;
    StringArena strings;  // the bytes the log's string column points at
  };

  enum ReadCounter : size_t { kLookups, kSideHits, kNumReads };

  struct Impl {
    Status Build(std::span<const std::string> keys, const Config& config) {
      if (!config.rebuild) {
        return Status::InvalidArgument(
            "RebuildableExistence: config.rebuild is required");
      }
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      auto corpus = std::make_shared<Keys>(keys.begin(), keys.end());
      std::sort(corpus->begin(), corpus->end());
      corpus->erase(std::unique(corpus->begin(), corpus->end()),
                    corpus->end());
      auto filter = std::make_shared<Base>();
      if (!corpus->empty()) {
        LI_RETURN_IF_ERROR(config_.rebuild(
            std::span<const std::string>(*corpus), filter.get()));
      }
      key_count_.store(static_cast<int64_t>(corpus->size()),
                       std::memory_order_relaxed);
      version_.Publish(
          NewState(std::move(filter), std::move(corpus), nullptr, {}));
      worker_.Start([this] { return DoBackgroundRebuild(); });
      return Status::OK();
    }

    State* NewState(std::shared_ptr<const Base> filter,
                    std::shared_ptr<const Keys> corpus,
                    std::shared_ptr<const Keys> pending, Keys frozen) const {
      return new State{std::move(filter), std::move(corpus),
                       std::move(pending), std::move(frozen),
                       typename Log::Segment(config_.log_cap), StringArena{}};
    }

    // ---- read path ----

    bool MightContain(std::string_view key) const {
      std::atomic<uint64_t>* stripe = reads_.Stripe();
      stripe[kLookups].fetch_add(1, std::memory_order_relaxed);
      const auto s = version_.Pin();
      if (LogContains(s->log.published(), key, Tag(key)) ||
          SortedContains(s->frozen, key) ||
          (s->pending != nullptr && SortedContains(*s->pending, key))) {
        stripe[kSideHits].fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      return s->filter->MightContain(key);
    }

    size_t num_keys() const {
      const int64_t n = key_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    /// The filter plus the exact side structures (the ExistenceIndex
    /// contract). The corpus is rebuild input, not filter state, and is
    /// not counted.
    size_t SizeBytes() const {
      const auto s = version_.Pin();
      size_t bytes = s->filter->SizeBytes() + s->log.SizeBytes() +
                     s->strings.SizeBytes();
      for (const std::string& k : s->frozen) bytes += k.size();
      if (s->pending != nullptr) {
        for (const std::string& k : *s->pending) bytes += k.size();
      }
      return bytes;
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats cs;
      cs.lookups = reads_.Sum(kLookups);
      cs.contains = cs.lookups;
      cs.delta_hits = reads_.Sum(kSideHits);
      cs.inserts = inserts_.load(std::memory_order_relaxed);
      cs.merges = rebuilds_.load(std::memory_order_relaxed);
      cs.background_merges = cs.merges;
      cs.merged_keys = merged_keys_.load(std::memory_order_relaxed);
      cs.last_merge_ns = static_cast<double>(
          last_rebuild_ns_.load(std::memory_order_relaxed));
      cs.total_merge_ns = static_cast<double>(
          total_rebuild_ns_.load(std::memory_order_relaxed));
      version_.FillStats(cs);
      cs.writer_contended = log_.contended();
      const auto s = version_.Pin();
      cs.log_entries = s->log.published().size();
      cs.delta_entries = s->frozen.size() + cs.log_entries +
                         (s->pending != nullptr ? s->pending->size() : 0);
      cs.base_keys = s->corpus->size();
      cs.shards = 1;
      return cs;
    }

    // ---- write path ----

    bool Insert(std::string_view key) {
      std::unique_lock<std::mutex> lk = log_.Lock();
      State* s = version_.current();
      const uint64_t tag = Tag(key);
      if (ExactMemberLocked(*s, key, tag)) {
        version_.DrainDeferred(lk);
        return false;
      }
      if (s->log.full_locked()) s = FreezeLocked(*s);
      s->log.Append(tag, s->strings.Add(key));
      key_count_.fetch_add(1, std::memory_order_relaxed);
      inserts_.fetch_add(1, std::memory_order_relaxed);
      const size_t side = s->frozen.size() + s->log.size_locked() +
                          (s->pending != nullptr ? s->pending->size() : 0);
      if (config_.staleness > 0.0 && side >= config_.min_side_keys &&
          static_cast<double>(side) >=
              config_.staleness *
                  static_cast<double>(std::max<size_t>(s->corpus->size(),
                                                       1))) {
        worker_.Request();
      }
      version_.DrainDeferred(lk);
      return true;
    }

    // ---- internals ----

    /// Newest-first tag probe of a log prefix; a tag match is confirmed on
    /// the bytes, a collision moves on to the next older match.
    static bool LogContains(const LogView& log, std::string_view key,
                            uint64_t tag) {
      const simd::Kernels& k = simd::GetKernels();
      const auto tags = Column<kTag>(log);
      size_t end = log.size();
      for (;;) {
        const size_t i = LogFindLast(k, tags.first(end), tag);
        if (i == end) return false;
        if (StringArena::View(Column<kStr>(log)[i]) == key) return true;
        end = i;
      }
    }

    static bool SortedContains(const Keys& v, std::string_view key) {
      const auto it = std::lower_bound(v.begin(), v.end(), key);
      return it != v.end() && *it == key;
    }

    /// Exact membership under the writer mutex: corpus, pending, frozen
    /// and log are all exact sets, so Insert's return value and
    /// num_keys() count distinct keys, never filter positives.
    bool ExactMemberLocked(const State& s, std::string_view key,
                           uint64_t tag) const {
      if (LogContains(s.log.locked(), key, tag)) return true;
      if (SortedContains(s.frozen, key)) return true;
      if (s.pending != nullptr && SortedContains(*s.pending, key)) {
        return true;
      }
      return SortedContains(*s.corpus, key);
    }

    /// Folds the full write log into the frozen side set and publishes
    /// the result as a new version (same filter/corpus/pending). Caller
    /// holds the writer mutex. Returns the published version.
    State* FreezeLocked(const State& s) {
      Keys frozen;
      frozen.reserve(s.frozen.size() + s.log.size_locked());
      const auto strs = Column<kStr>(s.log.locked());
      auto str = [&](uint32_t i) { return StringArena::View(strs[i]); };
      s.log.Fold(
          s.frozen, [](const std::string& f) { return std::string_view(f); },
          str, [&](const std::string& f) { frozen.push_back(f); },
          [&](const std::string*, uint32_t, uint32_t last) {
            frozen.emplace_back(str(last));
          });
      State* ns = NewState(s.filter, s.corpus, s.pending, std::move(frozen));
      version_.PublishFreeze(ns);
      return ns;
    }

    /// One background rebuild cycle (the worker's body).
    Status DoBackgroundRebuild() {
      Timer timer;
      std::shared_ptr<const Keys> corpus;
      std::shared_ptr<const Keys> pending;
      {
        // Phase 1 — rotate: fold the log, move frozen -> pending so the
        // set to bake in is an immutable snapshot readers keep answering
        // exactly (brief writer lock).
        std::unique_lock<std::mutex> lk(log_.mutex());
        State* s = version_.current();
        if (s->log.size_locked() > 0) s = FreezeLocked(*s);
        if (s->frozen.empty() && s->pending == nullptr) {
          version_.DrainDeferred(lk);
          return Status::OK();
        }
        // Copy, never move: `s` stays published until the swap and
        // readers scan s->frozen lock-free the whole time.
        auto pend = std::make_shared<Keys>(s->frozen);
        if (s->pending != nullptr) {
          // A previous failed cycle left keys pending; fold them in.
          pend->insert(pend->end(), s->pending->begin(), s->pending->end());
          std::sort(pend->begin(), pend->end());
          pend->erase(std::unique(pend->begin(), pend->end()), pend->end());
        }
        corpus = s->corpus;
        pending = pend;
        version_.Publish(NewState(s->filter, s->corpus, std::move(pend), {}));
        version_.DrainDeferred(lk);
      }
      // Phase 2 — build off to the side: corpus' = corpus ∪ pending,
      // rebuild the filter over it. No locks held; model training and
      // threshold calibration happen here.
      auto merged = std::make_shared<Keys>();
      merged->reserve(corpus->size() + pending->size());
      std::merge(corpus->begin(), corpus->end(), pending->begin(),
                 pending->end(), std::back_inserter(*merged));
      merged->erase(std::unique(merged->begin(), merged->end()),
                    merged->end());
      auto filter = std::make_shared<Base>();
      Status built = Status::OK();
      if (!merged->empty()) {
        built = config_.rebuild(std::span<const std::string>(*merged),
                                filter.get());
      }
      {
        // Phase 3 — publish (or, on failure, fold pending back so the
        // next cycle retries; the old filter keeps serving either way).
        std::unique_lock<std::mutex> lk(log_.mutex());
        const State* s = version_.current();
        Keys frozen = s->frozen;  // copy: s stays published until the swap
        State* ns;
        if (built.ok()) {
          merged_keys_.fetch_add(merged->size(), std::memory_order_relaxed);
          rebuilds_.fetch_add(1, std::memory_order_relaxed);
          ns = NewState(std::move(filter), std::move(merged), nullptr,
                        std::move(frozen));
        } else {
          frozen.insert(frozen.end(), pending->begin(), pending->end());
          std::sort(frozen.begin(), frozen.end());
          ns = NewState(s->filter, s->corpus, nullptr, std::move(frozen));
        }
        // Keep the live log tail: readers of the new version must still
        // see the entries the old version's log holds.
        const LogView tail = s->log.locked();
        for (size_t i = 0; i < tail.size(); ++i) {
          ns->log.Append(Column<kTag>(tail)[i],
                         ns->strings.Add(
                             StringArena::View(Column<kStr>(tail)[i])));
        }
        version_.Publish(ns);
        version_.DrainDeferred(lk);
      }
      const uint64_t ns_elapsed =
          static_cast<uint64_t>(timer.ElapsedNanos());
      last_rebuild_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_rebuild_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return built;
    }

    Config config_{};
    Log log_;
    Versioned<State> version_;
    std::atomic<int64_t> key_count_{0};

    // Counters.
    ReadCounters<kNumReads> reads_;
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> rebuilds_{0};
    std::atomic<uint64_t> merged_keys_{0};
    std::atomic<uint64_t> last_rebuild_ns_{0};
    std::atomic<uint64_t> total_rebuild_ns_{0};

    // Last: joined before anything the rebuild body touches is destroyed.
    BackgroundWorker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

/// Rebuilder for the no-model case: a fresh plain Bloom filter sized to
/// the merged corpus at `target_fpr`.
inline RebuildableExistence<bloom::BloomFilter>::Rebuilder
PlainBloomRebuilder(double target_fpr) {
  return [target_fpr](std::span<const std::string> keys,
                      bloom::BloomFilter* out) -> Status {
    LI_RETURN_IF_ERROR(
        out->Init(std::max<size_t>(keys.size(), 1), target_fpr));
    for (const std::string& k : keys) out->Add(std::string_view(k));
    return Status::OK();
  };
}

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_REBUILDABLE_EXISTENCE_H_
