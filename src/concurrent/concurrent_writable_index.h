// ConcurrentWritableIndex<Base> — the thread-safe write path over the
// Appendix-D.1 delta architecture, behind the library-wide
// index::ConcurrentWritableRangeIndex contract.
//
// The version lifecycle (pin, append, freeze, publish, retire) and the
// background worker are the shared ones of versioned.h and
// background_worker.h. What this wrapper supplies:
//   * versions { base keys + built Base index, frozen delta (sorted runs +
//     rank prefix sums), write log };
//   * the read fold: rank = base.Lookup + frozen.RankAdjustBelow + Σ log
//     nets. Each log write carries its *liveness delta* (net ∈ {-1,0,+1})
//     computed at append time, so any published log prefix yields an exact
//     lower_bound rank over the live set as of that prefix. The log is
//     columnar (key, net, flags), so the Σ is one sum_below_u64 kernel
//     call over the key and net columns and a point probe one
//     find_last_eq_u64 over the key column (simd/dispatch.h);
//   * the merge body: merge base ∪ delta into a fresh key array, train a
//     new Base over it, and rebase what the delta gained during the build
//     onto the new base by a per-key membership recheck;
//   * the trigger: the pluggable dynamic::MergePolicy, evaluated by
//     writers. Writer contention is counted; sharding (sharded_index.h) is
//     the escape hatch.
//
// Single-threaded use degenerates to exact DeltaRangeIndex semantics
// (same oracle conformance suite), which is what lets the LIF synthesizer
// qualify concurrent candidates with the same contract as everything
// else.
//
// Durability (index::DurableIndex; docs/DURABILITY.md): with
// EnableDurability attached, Write appends a CRC-framed record to the
// write-ahead log under the writer mutex *before* the log-entry publish
// — so WAL order, LSN order and acknowledgement order coincide — and
// recovery (OpenSnapshot + RecoverFromWal) replays the tail through the
// same Write path. WriteSnapshot publishes the covered LSN inside its
// captured version and truncates the log behind it.

#ifndef LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_
#define LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "concurrent/background_worker.h"
#include "concurrent/versioned.h"
#include "dynamic/delta_buffer.h"
#include "dynamic/merge_policy.h"
#include "index/approx.h"
#include "index/concurrent_writable_index.h"
#include "index/range_index.h"
#include "index/snapshottable.h"
#include "index/writable_range_index.h"
#include "snapshot/snapshot.h"
#include "wal/wal.h"

namespace li::concurrent {

template <index::RangeIndex Base>
class ConcurrentWritableIndex {
 public:
  using key_type = typename Base::key_type;
  using base_config_type = typename Base::config_type;

  struct Config {
    base_config_type base{};
    dynamic::MergePolicy policy{};
    /// Write-log capacity: how many writes a version absorbs before the
    /// log is folded into the sorted frozen delta. Larger amortizes the
    /// fold better; smaller keeps the per-read log scan shorter.
    size_t log_cap = 1024;
  };
  using config_type = Config;

  ConcurrentWritableIndex() = default;
  ConcurrentWritableIndex(ConcurrentWritableIndex&&) noexcept = default;
  ConcurrentWritableIndex& operator=(ConcurrentWritableIndex&&) noexcept =
      default;

  /// Builds the initial version over `keys` (sorted, strictly increasing;
  /// copied — merges replace the array) and starts the background merge
  /// worker. Not thread-safe against other methods (build-then-share, the
  /// same discipline as every container). On failure the handle reverts
  /// to the never-built state: reads answer empty, writes return false,
  /// Merge fails cleanly — never UB (the library-wide convention).
  Status Build(std::span<const key_type> keys, const Config& config) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->Build(keys, config);
    if (!st.ok()) impl_.reset();
    return st;
  }

  // ---- reads: lock-free, safe from any thread ----

  size_t Lookup(const key_type& key) const {
    return impl_ ? impl_->Lookup(key) : 0;
  }
  size_t LowerBound(const key_type& key) const { return Lookup(key); }
  index::Approx ApproxPos(const key_type& key) const {
    return impl_ ? impl_->ApproxPos(key) : index::Approx{};
  }
  void LookupBatch(std::span<const key_type> keys,
                   std::span<size_t> out) const {
    if (impl_ != nullptr) {
      impl_->LookupBatch(keys, out);
    } else {
      for (size_t i = 0; i < out.size(); ++i) out[i] = 0;
    }
  }
  bool Contains(const key_type& key) const {
    return impl_ != nullptr && impl_->Contains(key);
  }
  std::vector<key_type> Scan(const key_type& from, size_t limit) const {
    return impl_ ? impl_->Scan(from, limit) : std::vector<key_type>{};
  }
  size_t size() const { return impl_ ? impl_->size() : 0; }
  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

  // ---- writes: safe from any thread, serialized internally ----

  bool Insert(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/false);
  }
  bool Erase(const key_type& key) {
    return impl_ != nullptr && impl_->Write(key, /*tombstone=*/true);
  }

  // ---- merge control ----

  /// Synchronous merge cycle: folds everything written before the call
  /// into the base. Blocks the caller only; readers stay lock-free.
  Status Merge() {
    return impl_ ? impl_->worker_.RunSync()
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }
  /// Asynchronous merge trigger; coalesces with a pending request.
  void RequestMerge() {
    if (impl_ != nullptr) impl_->worker_.Request();
  }
  /// Blocks until no merge is pending or running (the quiesce point).
  void WaitForMerges() {
    if (impl_ != nullptr) impl_->worker_.WaitIdle();
  }
  /// Outcome of the most recent background merge cycle.
  Status last_merge_status() const {
    return impl_ ? impl_->worker_.last_status() : Status::OK();
  }

  // ---- Durability (index::DurableIndex; docs/DURABILITY.md) ----

  /// WAL support needs a flat key type (records carry the raw key bytes).
  static constexpr bool kDurabilityCapable =
      std::is_trivially_copyable_v<key_type>;

  /// Attach a fresh write-ahead log at cfg.path; subsequent writes are
  /// log-then-apply. Call after Build (or after a snapshot): earlier
  /// writes are only recoverable through a snapshot containing them.
  Status EnableDurability(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->EnableDurability(cfg)
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }

  /// Replay the log past the snapshot's covered LSN through the normal
  /// write path, then resume logging to the same file (torn tail
  /// truncated, missing file started fresh).
  Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
    return impl_ ? impl_->RecoverFromWal(cfg)
                 : Status::FailedPrecondition(
                       "ConcurrentWritableIndex: not built");
  }

  bool durable() const { return impl_ != nullptr && impl_->durable(); }

  /// Sticky status of the logging path (an append failure poisons the
  /// log; the in-memory index keeps serving).
  Status wal_status() const {
    return impl_ ? impl_->wal_status() : Status::OK();
  }

  wal::WalStats DurabilityStats() const {
    return impl_ ? impl_->DurabilityStats() : wal::WalStats{};
  }

  /// Flush the group-commit window now.
  Status SyncWal() { return impl_ ? impl_->SyncWal() : Status::OK(); }

  // ---- Persistence (index::Snapshottable; docs/PERSISTENCE.md) ----
  // WriteSnapshot quiesces writers on the writer mutex just long enough
  // to fold the live write log + frozen delta into one sorted entry list
  // (the same fold the freeze path uses) and pin the base via its
  // shared_ptr; serialization then runs outside the lock against the
  // pinned immutable pieces. Readers stay lock-free throughout, and an
  // in-flight background merge publishes before or after the capture,
  // never during (publish takes the same mutex). OpenSnapshot rebuilds a
  // fully writable index: the key array is copied (merges replace it),
  // the base model loads against the copy without retraining, and the
  // background merge worker restarts.

  /// Snapshot support needs a flat key type and a base that can persist
  /// its model against a caller-owned key span (the RMI family).
  static constexpr bool kSnapshotCapable =
      std::is_trivially_copyable_v<key_type> &&
      index::DataSpanSnapshottable<Base>;

  Status WriteSections(snapshot::SnapshotWriter& writer,
                       const std::string& prefix) const {
    if (impl_ == nullptr) {
      return Status::FailedPrecondition("ConcurrentWritableIndex: not built");
    }
    return impl_->WriteSections(writer, prefix);
  }

  Status LoadSections(const snapshot::SnapshotReader& reader,
                      const std::string& prefix) {
    impl_ = std::make_unique<Impl>();
    const Status st = impl_->LoadSections(reader, prefix);
    if (!st.ok()) impl_.reset();
    return st;
  }

  Status WriteSnapshot(const std::string& path) const {
    LI_RETURN_IF_ERROR(index::WriteSnapshotViaSections(*this, path));
    // The snapshot is published; truncate the log behind the LSN it
    // covers (no-op when durability is off).
    return impl_ ? impl_->TruncateWalAfterPublish() : Status::OK();
  }

  static Result<ConcurrentWritableIndex> OpenSnapshot(
      const std::string& path, const snapshot::OpenOptions& opts = {}) {
    return index::OpenSnapshotViaSections<ConcurrentWritableIndex>(path,
                                                                   opts);
  }

  index::WritableIndexStats Stats() const {
    return impl_ ? impl_->Stats() : index::WritableIndexStats{};
  }
  index::ConcurrentIndexStats ConcurrentStats() const {
    return impl_ ? impl_->ConcurrentStats() : index::ConcurrentIndexStats{};
  }
  const Config& config() const {
    static const Config kEmpty{};
    return impl_ ? impl_->config_ : kEmpty;
  }

 private:
  struct SnapshotCfg {
    dynamic::MergePolicy policy{};
    uint64_t log_cap = 1024;
  };
  static_assert(std::is_trivially_copyable_v<dynamic::MergePolicy>,
                "MergePolicy is persisted verbatim in snapshots");

  /// The log's columns: the written key, the write's liveness delta
  /// (-1 / 0 / +1) and its flags.
  enum LogColumn : size_t { kKey, kNet, kFlags };
  static constexpr uint8_t kTombstone = 1;   // Erase vs Insert
  static constexpr uint8_t kLiveBefore = 2;  // key was live just before
  using Log = WriteLog<key_type, int8_t, uint8_t>;
  using LogView = typename Log::View;

  /// One published version; only its log's unpublished tail changes.
  struct State {
    std::shared_ptr<const std::vector<key_type>> base_keys;
    std::shared_ptr<const Base> base;  // spans *base_keys
    dynamic::DeltaBuffer<key_type> frozen;
    typename Log::Segment log;
  };
  using DeltaEntries = std::vector<dynamic::DeltaEntry<key_type>>;

  enum ReadCounter : size_t { kLookups, kContains, kDeltaHits, kNumReads };

  struct Impl {
    Status Build(std::span<const key_type> keys, const Config& config) {
      config_ = config;
      config_.log_cap = std::max<size_t>(config.log_cap, 2);
      auto bk = std::make_shared<std::vector<key_type>>(keys.begin(),
                                                        keys.end());
      auto base = std::make_shared<Base>();
      LI_RETURN_IF_ERROR(
          base->Build(std::span<const key_type>(*bk), config_.base));
      Start(std::move(bk), std::move(base), {});
      return Status::OK();
    }

    /// Publishes the first version and starts the merge worker.
    void Start(std::shared_ptr<const std::vector<key_type>> keys,
               std::shared_ptr<const Base> base, const DeltaEntries& delta) {
      State* s = NewState(std::move(keys), std::move(base), delta);
      live_count_.store(static_cast<int64_t>(s->base_keys->size()) +
                            s->frozen.LiveAdjustTotal(),
                        std::memory_order_relaxed);
      version_.Publish(s);
      worker_.Start([this] { return DoBackgroundMerge(); });
    }

    State* NewState(std::shared_ptr<const std::vector<key_type>> keys,
                    std::shared_ptr<const Base> base,
                    const DeltaEntries& delta) const {
      return new State{
          std::move(keys), std::move(base),
          dynamic::DeltaBuffer<key_type>::FromSortedEntries(
              std::span<const dynamic::DeltaEntry<key_type>>(delta), 2),
          typename Log::Segment(config_.log_cap)};
    }

    // ---- read path ----

    size_t Lookup(const key_type& key) const {
      reads_.Stripe()[kLookups].fetch_add(1, std::memory_order_relaxed);
      const auto s = version_.Pin();
      return RawLookupIn(*s, s->log.published(), key);
    }

    index::Approx ApproxPos(const key_type& key) const {
      const auto s = version_.Pin();
      const LogView log = s->log.published();
      return index::Approx::Exact(RawLookupIn(*s, log, key),
                                  LiveCountIn(*s, log));
    }

    void LookupBatch(std::span<const key_type> keys,
                     std::span<size_t> out) const {
      const size_t m = std::min(keys.size(), out.size());
      reads_.Stripe()[kLookups].fetch_add(m, std::memory_order_relaxed);
      const auto s = version_.Pin();
      const LogView log = s->log.published();
      // Base ranks through the base's native batch path (the RMI software
      // pipeline), then the delta adjustment per key — with an empty
      // delta this runs at base batch throughput.
      index::LookupBatch(*s->base, keys, out);
      if (s->frozen.empty() && log.empty()) return;
      const simd::Kernels& k = simd::GetKernels();
      const auto lkeys = Column<kKey>(log);
      const int8_t* nets = Column<kNet>(log).data();
      for (size_t i = 0; i < m; ++i) {
        const int64_t adj = s->frozen.RankAdjustBelow(keys[i]) +
                            LogSumBelow(k, lkeys, nets, keys[i]);
        out[i] = static_cast<size_t>(static_cast<int64_t>(out[i]) + adj);
      }
    }

    bool Contains(const key_type& key) const {
      std::atomic<uint64_t>* st = reads_.Stripe();
      st[kLookups].fetch_add(1, std::memory_order_relaxed);
      st[kContains].fetch_add(1, std::memory_order_relaxed);
      const auto s = version_.Pin();
      const LogView log = s->log.published();
      if (const size_t i =
              LogFindLast(simd::GetKernels(), Column<kKey>(log), key);
          i < log.size()) {  // newest write wins
        st[kDeltaHits].fetch_add(1, std::memory_order_relaxed);
        return (Column<kFlags>(log)[i] & kTombstone) == 0;
      }
      if (const auto e = s->frozen.Find(key)) {
        st[kDeltaHits].fetch_add(1, std::memory_order_relaxed);
        return !e->tombstone;
      }
      return BaseContainsIn(*s, key);
    }

    std::vector<key_type> Scan(const key_type& from, size_t limit) const {
      std::vector<key_type> out;
      if (limit == 0) return out;
      const auto s = version_.Pin();
      const LogView log = s->log.published();
      const auto lkeys = Column<kKey>(log);
      const auto lflags = Column<kFlags>(log);
      auto tombstone = [&](uint32_t slot) {
        return (lflags[slot] & kTombstone) != 0;
      };
      // Newest-wins, sorted view of the log writes with key >= from.
      std::vector<std::pair<key_type, uint32_t>> lv;
      lv.reserve(log.size());
      for (uint32_t i = 0; i < log.size(); ++i) {
        if (!(lkeys[i] < from)) lv.emplace_back(lkeys[i], i);
      }
      std::sort(lv.begin(), lv.end());
      size_t w = 0;
      for (size_t i = 0; i < lv.size(); ++i) {
        if (i + 1 < lv.size() && lv[i + 1].first == lv[i].first) continue;
        lv[w++] = lv[i];  // last (newest) entry per key survives
      }
      lv.resize(w);
      // Streamed three-way merge — base array vs frozen delta vs log
      // view, newest source shadowing equal keys (log > frozen > base),
      // tombstones cancelling base keys as the frontier passes them.
      // Every delta entry up to the stop point is visited (never skipped
      // on a size heuristic: a run of base-key tombstones contributes no
      // output yet must keep cancelling), and the visit stops as soon as
      // the window fills — O(limit + delta-entries-before-stop) work.
      const std::vector<key_type>& bk = *s->base_keys;
      size_t bi = s->base->Lookup(from);
      size_t li = 0;
      bool done = false;
      auto emit = [&](const key_type& k, bool tombstone) {
        while (bi < bk.size() && bk[bi] < k && out.size() < limit) {
          out.push_back(bk[bi++]);
        }
        if (out.size() >= limit) {
          done = true;
          return;
        }
        if (bi < bk.size() && bk[bi] == k) ++bi;  // shadowed base copy
        if (!tombstone) out.push_back(k);
        done = out.size() >= limit;
      };
      s->frozen.VisitFrom(from, [&](const dynamic::DeltaEntry<key_type>& fe) {
        while (li < lv.size() && lv[li].first < fe.key && !done) {
          emit(lv[li].first, tombstone(lv[li].second));
          ++li;
        }
        if (done) return false;
        if (li < lv.size() && lv[li].first == fe.key) {
          emit(lv[li].first, tombstone(lv[li].second));  // log shadows frozen
          ++li;
        } else {
          emit(fe.key, fe.tombstone);
        }
        return !done;
      });
      while (li < lv.size() && !done) {
        emit(lv[li].first, tombstone(lv[li].second));
        ++li;
      }
      while (bi < bk.size() && out.size() < limit) out.push_back(bk[bi++]);
      return out;
    }

    size_t size() const {
      const int64_t n = live_count_.load(std::memory_order_relaxed);
      return n > 0 ? static_cast<size_t>(n) : 0;
    }

    size_t SizeBytes() const {
      const auto s = version_.Pin();
      return s->base->SizeBytes() + s->frozen.SizeBytes() + s->log.SizeBytes();
    }

    // ---- write path ----

    bool Write(const key_type& key, bool tombstone) {
      std::unique_lock<std::mutex> lk = log_.Lock();
      // Log-then-apply: the WAL append happens under the writer mutex
      // before the in-memory log-entry publish, so WAL order == LSN
      // order == acknowledgement order, and a crash after the append
      // but before the publish at worst replays a write the caller was
      // never acked for (safe: replay goes through this same path).
      WalAppendLocked(key, tombstone);
      State* s = version_.current();
      if (s->log.full_locked()) s = FreezeLocked(*s);
      const uint32_t n = s->log.size_locked();
      const bool live_before = LiveLocked(*s, key);
      const auto net =
          static_cast<int8_t>((tombstone ? 0 : 1) - (live_before ? 1 : 0));
      s->log.Append(key, net,
                    static_cast<uint8_t>((tombstone ? kTombstone : 0) |
                                         (live_before ? kLiveBefore : 0)));
      live_count_.fetch_add(net, std::memory_order_relaxed);
      (tombstone ? erases_ : inserts_).fetch_add(1, std::memory_order_relaxed);
      ++writes_since_merge_;
      const size_t delta_entries = s->frozen.entry_count() + n + 1;
      // Summing the read count visits every reader's counter stripe under
      // this lock; only the write-ratio trigger looks at it.
      const uint64_t reads =
          config_.policy.trigger == dynamic::MergeTrigger::kWriteRatio
              ? ReadsSinceMerge()
              : 0;
      if (dynamic::ShouldMerge(config_.policy, delta_entries,
                               s->base_keys->size(), writes_since_merge_,
                               reads)) {
        worker_.Request();
      }
      version_.DrainDeferred(lk);  // heavy frees happen outside the lock
      return tombstone ? live_before : !live_before;
    }

    // ---- persistence ----

    Status WriteSections(snapshot::SnapshotWriter& writer,
                         const std::string& prefix) const {
      if constexpr (!kSnapshotCapable) {
        return Status::Unimplemented(
            "ConcurrentWritableIndex snapshots need a flat key type and a "
            "section-snapshottable base");
      } else {
        // Capture a consistent point-in-time version under the writer
        // mutex: writers and merge publishes are excluded for the O(delta)
        // fold only; readers are undisturbed.
        std::shared_ptr<const std::vector<key_type>> keys;
        std::shared_ptr<const Base> base;
        DeltaEntries folded;
        SnapshotCfg cfg;
        wal::WalSnapshotMeta wal_meta;
        bool durable = false;
        {
          std::lock_guard<std::mutex> lk(log_.mutex());
          const State* s = version_.current();
          // Redundancy drop is legal here regardless of a pending rebase:
          // the snapshot pairs the fold with this *same* captured base.
          folded = FoldedEntries(*s, /*drop_redundant=*/true);
          keys = s->base_keys;
          base = s->base;
          cfg.policy = config_.policy;
          cfg.log_cap = config_.log_cap;
          if (wal_ != nullptr) {
            // Every record up to last_lsn is reflected in this capture
            // (appends serialize on the same mutex), so the snapshot
            // covers it and truncation behind it is safe after publish.
            wal_meta.covered_lsn = wal_->stats().last_lsn;
            snapshot_covered_lsn_ = wal_meta.covered_lsn;
            durable = true;
          }
        }
        // Serialization outside the lock: every captured piece is
        // immutable and shared_ptr-pinned (a concurrent merge may retire
        // the version, not free these).
        LI_RETURN_IF_ERROR(writer.AddPod(prefix + "cfg", cfg));
        if (durable) {
          LI_RETURN_IF_ERROR(writer.AddPod(prefix + "wal", wal_meta));
        }
        LI_RETURN_IF_ERROR(
            writer.AddArray(prefix + "keys", std::span<const key_type>(*keys),
                            snapshot::SectionKind::kKeys));
        LI_RETURN_IF_ERROR(base->WriteSections(writer, prefix + "base/",
                                               /*include_keys=*/false));
        std::vector<key_type> dkeys;
        std::vector<uint8_t> dmeta;
        dkeys.reserve(folded.size());
        dmeta.reserve(folded.size());
        for (const dynamic::DeltaEntry<key_type>& e : folded) {
          dkeys.push_back(e.key);
          dmeta.push_back(static_cast<uint8_t>((e.tombstone ? 1 : 0) |
                                               (e.in_base ? 2 : 0)));
        }
        LI_RETURN_IF_ERROR(
            writer.AddArray(prefix + "dkeys", std::span<const key_type>(dkeys),
                            snapshot::SectionKind::kDelta));
        return writer.AddArray(prefix + "dmeta",
                               std::span<const uint8_t>(dmeta),
                               snapshot::SectionKind::kDelta);
      }
    }

    /// Rebuilds a live index from snapshot sections: fresh Impl only
    /// (build-then-share discipline, same as Build).
    Status LoadSections(const snapshot::SnapshotReader& reader,
                        const std::string& prefix) {
      if constexpr (!kSnapshotCapable) {
        return Status::Unimplemented(
            "ConcurrentWritableIndex snapshots need a flat key type and a "
            "section-snapshottable base");
      } else {
        SnapshotCfg cfg;
        LI_RETURN_IF_ERROR(reader.GetPod(prefix + "cfg", &cfg));
        auto keys = reader.GetArray<key_type>(prefix + "keys");
        if (!keys.ok()) return keys.status();
        auto dkeys = reader.GetArray<key_type>(prefix + "dkeys");
        if (!dkeys.ok()) return dkeys.status();
        auto dmeta = reader.GetArray<uint8_t>(prefix + "dmeta");
        if (!dmeta.ok()) return dmeta.status();
        if (dkeys.value().size() != dmeta.value().size()) {
          return Status::InvalidArgument(
              "ConcurrentWritableIndex snapshot delta arrays disagree in "
              "size");
        }
        // Copied, not mapped: merges replace the key array after restart.
        auto bk = std::make_shared<std::vector<key_type>>(
            keys.value().begin(), keys.value().end());
        auto base = std::make_shared<Base>();
        LI_RETURN_IF_ERROR(base->LoadSections(
            reader, prefix + "base/", std::span<const key_type>(*bk)));
        DeltaEntries entries;
        entries.reserve(dkeys.value().size());
        for (size_t i = 0; i < dkeys.value().size(); ++i) {
          const uint8_t m = dmeta.value()[i];
          if ((m & ~uint8_t{3}) != 0) {
            return Status::InvalidArgument(
                "ConcurrentWritableIndex snapshot delta flags are corrupt");
          }
          entries.push_back(dynamic::DeltaEntry<key_type>{
              dkeys.value()[i], (m & 1) != 0, (m & 2) != 0});
        }
        wal::WalSnapshotMeta wal_meta;  // absent in pre-durability snaps
        const Status wal_st = reader.GetPod(prefix + "wal", &wal_meta);
        if (wal_st.ok()) {
          covered_lsn_ = wal_meta.covered_lsn;
        } else if (wal_st.code() == StatusCode::kNotFound) {
          covered_lsn_ = 0;
        } else {
          return wal_st;
        }
        config_.policy = cfg.policy;
        config_.log_cap = std::max<size_t>(cfg.log_cap, 2);
        if constexpr (requires {
                        {
                          base->config()
                        } -> std::convertible_to<base_config_type>;
                      }) {
          config_.base = base->config();
        }
        Start(std::move(bk), std::move(base), entries);
        return Status::OK();
      }
    }

    // ---- durability ----

    Status EnableDurability(const wal::DurabilityConfig& cfg) {
      if constexpr (!kDurabilityCapable) {
        return Status::Unimplemented(
            "ConcurrentWritableIndex durability needs a flat key type");
      } else {
        std::lock_guard<std::mutex> lk(log_.mutex());
        if (wal_ != nullptr) {
          return Status::FailedPrecondition("durability already enabled");
        }
        auto w = wal::WalWriter::Create(cfg.path, covered_lsn_,
                                        sizeof(key_type), cfg);
        if (!w.ok()) return w.status();
        wal_ = std::make_unique<wal::WalWriter>(w.take());
        wal_status_ = Status::OK();
        return Status::OK();
      }
    }

    Status RecoverFromWal(const wal::DurabilityConfig& cfg) {
      if constexpr (!kDurabilityCapable) {
        return Status::Unimplemented(
            "ConcurrentWritableIndex durability needs a flat key type");
      } else {
        {
          std::lock_guard<std::mutex> lk(log_.mutex());
          if (wal_ != nullptr) {
            return Status::FailedPrecondition("durability already enabled");
          }
        }
        const uint64_t covered = covered_lsn_;
        // Replay through the normal write path (no wal_ attached yet, so
        // nothing re-logs); recovery is single-threaded by contract.
        auto replay = wal::Replay(
            cfg.path,
            [&](wal::WalRecordType type, uint64_t lsn, const void* payload,
                size_t len) -> Status {
              if (len != sizeof(key_type)) {
                return Status::InvalidArgument("WAL record size mismatch");
              }
              if (lsn <= covered) return Status::OK();
              key_type k;
              std::memcpy(&k, payload, sizeof(k));
              Write(k, type == wal::WalRecordType::kErase);
              return Status::OK();
            });
        if (!replay.ok()) {
          if (replay.status().code() == StatusCode::kNotFound) {
            return EnableDurability(cfg);  // no log yet: start one
          }
          return replay.status();
        }
        if (replay.value().base_lsn > covered) {
          return Status::InvalidArgument(
              "WAL gap: log starts past the snapshot's covered LSN");
        }
        auto w = wal::WalWriter::Open(cfg.path, cfg, nullptr);
        if (!w.ok()) return w.status();
        std::lock_guard<std::mutex> lk(log_.mutex());
        wal_ = std::make_unique<wal::WalWriter>(w.take());
        wal_status_ = Status::OK();
        if (wal_->stats().last_lsn < covered) {
          // Stale log older than the snapshot: rotate so LSNs cannot
          // regress below the watermark.
          LI_RETURN_IF_ERROR(wal_->ResetTo(covered));
        }
        covered_lsn_ = wal_->stats().last_lsn;
        return Status::OK();
      }
    }

    void WalAppendLocked(const key_type& key, bool tombstone) {
      if (wal_ == nullptr) return;
      if constexpr (kDurabilityCapable) {
        auto r = wal_->Append(tombstone ? wal::WalRecordType::kErase
                                        : wal::WalRecordType::kInsert,
                              &key, sizeof(key));
        if (!r.ok()) wal_status_ = r.status();
      }
    }

    Status TruncateWalAfterPublish() const {
      std::lock_guard<std::mutex> lk(log_.mutex());
      if (wal_ == nullptr) return Status::OK();
      // Under the writer mutex no append can race the rotation scan.
      return wal_->ResetTo(snapshot_covered_lsn_);
    }

    bool durable() const {
      std::lock_guard<std::mutex> lk(log_.mutex());
      return wal_ != nullptr;
    }

    Status wal_status() const {
      std::lock_guard<std::mutex> lk(log_.mutex());
      return wal_status_;
    }

    wal::WalStats DurabilityStats() const {
      std::lock_guard<std::mutex> lk(log_.mutex());
      return wal_ != nullptr ? wal_->stats() : wal::WalStats{};
    }

    Status SyncWal() {
      std::lock_guard<std::mutex> lk(log_.mutex());
      return wal_ != nullptr ? wal_->Sync() : Status::OK();
    }

    // ---- stats ----

    index::WritableIndexStats Stats() const {
      return FillStats<index::WritableIndexStats>();
    }

    index::ConcurrentIndexStats ConcurrentStats() const {
      index::ConcurrentIndexStats s =
          FillStats<index::ConcurrentIndexStats>();
      version_.FillStats(s);
      s.background_merges = s.merges;
      s.writer_contended = log_.contended();
      s.log_entries = version_.Pin()->log.published().size();
      s.shards = 1;
      return s;
    }

    // ---- internals ----

    uint64_t ReadsSinceMerge() const {
      return reads_.Sum(kLookups) -
             reads_baseline_.load(std::memory_order_relaxed);
    }

    size_t RawLookupIn(const State& s, const LogView& log,
                       const key_type& key) const {
      const int64_t rank =
          static_cast<int64_t>(s.base->Lookup(key)) +
          s.frozen.RankAdjustBelow(key) +
          LogSumBelow(simd::GetKernels(), Column<kKey>(log),
                      Column<kNet>(log).data(), key);
      return rank > 0 ? static_cast<size_t>(rank) : 0;
    }

    size_t LiveCountIn(const State& s, const LogView& log) const {
      int64_t c = static_cast<int64_t>(s.base_keys->size()) +
                  s.frozen.LiveAdjustTotal();
      for (const int8_t net : Column<kNet>(log)) c += net;
      return c > 0 ? static_cast<size_t>(c) : 0;
    }

    bool BaseContainsIn(const State& s, const key_type& key) const {
      return index::ContainsViaLookup(
          *s.base, std::span<const key_type>(*s.base_keys), key);
    }

    /// Liveness of `key` under the writer mutex (no guard needed: only
    /// writers swap state, and we hold the writer mutex).
    bool LiveLocked(const State& s, const key_type& key) const {
      const LogView log = s.log.locked();
      if (const size_t i =
              LogFindLast(simd::GetKernels(), Column<kKey>(log), key);
          i < log.size()) {
        return (Column<kFlags>(log)[i] & kTombstone) == 0;
      }
      if (const auto e = s.frozen.Find(key)) return !e->tombstone;
      return BaseContainsIn(s, key);
    }

    /// Newest-wins fold of `s.frozen` + the whole log (writer mutex held)
    /// into one sorted entry list, `in_base` still relative to s's base.
    /// With `drop_redundant`, log-written entries whose final state matches
    /// the base (re-insert of a base key, erase of an absent key) are
    /// dropped — valid only when the result is paired with the *same*
    /// base.
    DeltaEntries FoldedEntries(const State& s, bool drop_redundant) const {
      using Entry = dynamic::DeltaEntry<key_type>;
      DeltaEntries out;
      out.reserve(s.frozen.entry_count() + s.log.size_locked());
      const LogView log = s.log.locked();
      const auto keys = Column<kKey>(log);
      const auto flags = Column<kFlags>(log);
      s.log.Fold(
          s.frozen, [](const Entry& f) -> const key_type& { return f.key; },
          [&](uint32_t i) -> const key_type& { return keys[i]; },
          [&](const Entry& f) { out.push_back(f); },
          [&](const Entry* f, uint32_t first, uint32_t last) {
            // in_base: the shadowed frozen entry knows it; otherwise the
            // first log write's prior liveness *is* base membership (no
            // frozen or log predecessor existed).
            const bool in_base =
                f != nullptr ? f->in_base : (flags[first] & kLiveBefore) != 0;
            const bool tombstone = (flags[last] & kTombstone) != 0;
            if (!drop_redundant || tombstone == in_base) {
              out.push_back({keys[last], tombstone, in_base});
            }
          });
      return out;
    }

    /// Folds the full write log into the frozen delta and publishes the
    /// result as a new version (same base). Caller holds the writer
    /// mutex. Returns the published version.
    ///
    /// The redundancy drop is only legal while no merge is in flight:
    /// dropping an entry whose final state matches the *current* base
    /// (e.g. the erase of a key the base does not hold) loses exactly the
    /// tombstone the publish-time rebase would need when that key was
    /// captured in the rotation snapshot and is being baked into the NEW
    /// base right now. With a rebase pending, every entry is kept
    /// (contribution-0 entries are semantically inert) and the publish
    /// step filters against the new base instead.
    State* FreezeLocked(const State& s) {
      State* ns = NewState(s.base_keys, s.base,
                           FoldedEntries(s, !merge_rebase_pending_));
      version_.PublishFreeze(ns);
      return ns;
    }

    /// One background merge cycle (the worker's body).
    Status DoBackgroundMerge() {
      Timer timer;
      std::shared_ptr<const std::vector<key_type>> old_keys;
      dynamic::DeltaBuffer<key_type> frozen_copy;
      {
        // Phase 1 — rotate: fold any pending log so the delta to merge is
        // an immutable snapshot, then copy it out (O(delta), brief).
        std::unique_lock<std::mutex> lk(log_.mutex());
        State* s = version_.current();
        if (s->log.size_locked() > 0) s = FreezeLocked(*s);
        if (s->frozen.empty()) {
          version_.DrainDeferred(lk);
          return Status::OK();
        }
        frozen_copy = s->frozen;
        old_keys = s->base_keys;
        // From here until publish, freezes must keep every fold entry:
        // the snapshot just taken is being baked into the next base, so
        // "redundant vs the old base" no longer implies droppable.
        merge_rebase_pending_ = true;
        version_.DrainDeferred(lk);
      }
      // Phase 2 — build off to the side: no locks, readers undisturbed.
      auto merged = std::make_shared<std::vector<key_type>>(
          dynamic::MergeLiveKeys(std::span<const key_type>(*old_keys),
                                 frozen_copy));
      auto new_base = std::make_shared<Base>();
      if (const Status st = new_base->Build(
              std::span<const key_type>(*merged), config_.base);
          !st.ok()) {
        std::lock_guard<std::mutex> lk(log_.mutex());
        merge_rebase_pending_ = false;  // old base stays; drops legal again
        return st;
      }
      {
        // Phase 3 — publish: rebase the delta that accumulated during the
        // build onto the new base, swap the version in, retire the old.
        std::unique_lock<std::mutex> lk(log_.mutex());
        DeltaEntries rebased;
        for (const dynamic::DeltaEntry<key_type>& e :
             FoldedEntries(*version_.current(), /*drop_redundant=*/false)) {
          const bool in_nb =
              std::binary_search(merged->begin(), merged->end(), e.key);
          // Keep only entries the new base does not already reflect.
          if (e.tombstone == in_nb) {
            rebased.push_back({e.key, e.tombstone, in_nb});
          }
        }
        version_.Publish(NewState(merged, std::move(new_base), rebased));
        merge_rebase_pending_ = false;
        merges_.fetch_add(1, std::memory_order_relaxed);
        merged_keys_.fetch_add(merged->size(), std::memory_order_relaxed);
        writes_since_merge_ = 0;
        reads_baseline_.store(reads_.Sum(kLookups), std::memory_order_relaxed);
        version_.DrainDeferred(lk);
      }
      const uint64_t ns_elapsed = static_cast<uint64_t>(timer.ElapsedNanos());
      last_merge_ns_.store(ns_elapsed, std::memory_order_relaxed);
      total_merge_ns_.fetch_add(ns_elapsed, std::memory_order_relaxed);
      return Status::OK();
    }

    template <typename S>
    S FillStats() const {
      S s{};
      s.lookups = reads_.Sum(kLookups);
      s.contains = reads_.Sum(kContains);
      s.delta_hits = reads_.Sum(kDeltaHits);
      s.inserts = inserts_.load(std::memory_order_relaxed);
      s.erases = erases_.load(std::memory_order_relaxed);
      s.merges = merges_.load(std::memory_order_relaxed);
      s.merged_keys = merged_keys_.load(std::memory_order_relaxed);
      s.last_merge_ns =
          static_cast<double>(last_merge_ns_.load(std::memory_order_relaxed));
      s.total_merge_ns = static_cast<double>(
          total_merge_ns_.load(std::memory_order_relaxed));
      const auto st = version_.Pin();
      s.delta_entries =
          st->frozen.entry_count() + st->log.published().size();
      s.delta_bytes = st->frozen.SizeBytes() + st->log.SizeBytes();
      s.base_keys = st->base_keys->size();
      return s;
    }

    Config config_{};
    // The writer mutex also guards the durability state below; the const
    // WriteSections capture quiesces writers on it.
    Log log_;
    Versioned<State> version_;
    std::atomic<int64_t> live_count_{0};

    // Counters. Read stripes keep reader increments off one shared line.
    ReadCounters<kNumReads> reads_;
    std::atomic<uint64_t> reads_baseline_{0};
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> erases_{0};
    std::atomic<uint64_t> merges_{0};
    std::atomic<uint64_t> merged_keys_{0};
    std::atomic<uint64_t> last_merge_ns_{0};
    std::atomic<uint64_t> total_merge_ns_{0};
    uint64_t writes_since_merge_ = 0;  // writer-mutex holders only
    // True between merge rotation and publish (writer-mutex holders
    // only): freeze folds must not drop entries then — see FreezeLocked.
    bool merge_rebase_pending_ = false;

    // Durability (guarded by the writer mutex; mutable because the const
    // snapshot path stashes the covered LSN and truncates after publish).
    mutable std::unique_ptr<wal::WalWriter> wal_;
    Status wal_status_{};
    uint64_t covered_lsn_ = 0;  // watermark inherited from OpenSnapshot
    mutable uint64_t snapshot_covered_lsn_ = 0;

    // Last: joined before anything the merge body touches is destroyed.
    BackgroundWorker worker_;
  };

  std::unique_ptr<Impl> impl_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_CONCURRENT_WRITABLE_INDEX_H_
