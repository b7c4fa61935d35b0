// Versioned<State> and WriteLog<Cols...> — the version lifecycle shared by
// every concurrent wrapper (ConcurrentWritableIndex, ConcurrentPointIndex,
// RebuildableExistence) and by ShardedIndex's routing map.
//
// Published state is an immutable *version* behind one atomic pointer.
// The wrappers' versions all have the same shape:
//
//   State = { base        (shared with older versions; replaced only by a
//                          background rebuild)
//           , frozen      (sorted overlay, one entry per key)
//           , log         (WriteLog<Cols...>::Segment: append-only,
//                          bounded, one array per field) }
//
// Readers take a Pin(): one epoch pin plus one atomic load. Everything a
// reader dereferences was published with the version, or sits behind the
// release store of the log count, which is the linearization point of a
// write. Writers serialize on WriteLog::Lock(), append, and publish the
// new count. A full log is *frozen*: folded (WriteLog::Segment::Fold)
// into the next version's frozen overlay and published with
// PublishFreeze(). Every publish retires the replaced version to the
// EpochManager; versions no reader can still reach are collected while
// the writer lock is held and destroyed by DrainDeferred() after it is
// released, so no writer frees a multi-megabyte base inside the lock.
//
// Background rebuilds (BackgroundWorker, background_worker.h) run in
// three phases: rotate (freeze the log so the overlay to bake in is
// immutable; brief writer lock), build (off to the side, no lock, readers
// undisturbed), publish (rebase what the overlay gained during the build
// onto the new base and swap the version in; brief writer lock). What a
// wrapper supplies is its entry type, how a read folds the overlay, its
// rebuild body and its trigger.

#ifndef LI_CONCURRENT_VERSIONED_H_
#define LI_CONCURRENT_VERSIONED_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "concurrent/epoch.h"
#include "index/concurrent_writable_index.h"
#include "simd/dispatch.h"

namespace li::concurrent {

/// Owner of the current version of `State` and of the epoch discipline
/// that frees replaced ones. Thread-safety: Pin() from any thread; the
/// publishing methods from one publisher at a time (a writer-mutex holder,
/// or the one thread that ever publishes).
template <typename State>
class Versioned {
 public:
  Versioned() = default;
  Versioned(const Versioned&) = delete;
  Versioned& operator=(const Versioned&) = delete;

  /// The owner has quiesced: workers joined, no pin alive.
  ~Versioned() {
    delete state_.load(std::memory_order_relaxed);
    EpochManager::Free(deferred_);
    // epoch_ frees everything still on its retired list.
  }

  /// A read of the current version: the epoch pin keeps it alive for the
  /// Pinned's lifetime. Non-null once the first version is published.
  class Pinned {
   public:
    explicit Pinned(const Versioned& v)
        : guard_(v.epoch_), state_(v.state_.load(std::memory_order_seq_cst)) {}
    const State* operator->() const { return state_; }
    const State& operator*() const { return *state_; }

   private:
    EpochManager::Guard guard_;  // pinned before the load
    const State* state_;
  };
  Pinned Pin() const { return Pinned(*this); }

  /// The current version, for the publisher (only it replaces versions,
  /// so it needs no pin).
  State* current() const { return state_.load(std::memory_order_relaxed); }

  /// Swaps `fresh` in (taking ownership) and retires the version it
  /// replaces; reclaimable versions are collected for DrainDeferred or
  /// Reclaim.
  void Publish(State* fresh) {
    State* old = state_.load(std::memory_order_relaxed);
    state_.store(fresh, std::memory_order_seq_cst);
    published_.fetch_add(1, std::memory_order_relaxed);
    if (old == nullptr) return;
    epoch_.Retire(old);
    epoch_.ReclaimTo(deferred_);
  }

  /// Publish of a version whose frozen overlay absorbed the log.
  void PublishFreeze(State* fresh) {
    Publish(fresh);
    freezes_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Releases `lk` (the publisher's writer lock) and destroys the
  /// collected versions; no-op, lock kept, when none are due.
  void DrainDeferred(std::unique_lock<std::mutex>& lk) {
    if (deferred_.empty()) return;
    std::vector<EpochManager::Retired> batch;
    batch.swap(deferred_);
    lk.unlock();
    EpochManager::Free(batch);
  }

  /// For a publisher holding no lock: destroys every version no reader
  /// can still reach, now.
  void Reclaim() {
    epoch_.ReclaimTo(deferred_);
    EpochManager::Free(deferred_);
  }

  /// Versions published, the first one included.
  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// The version-lifecycle gauges of a single-front-end wrapper.
  void FillStats(index::ConcurrentIndexStats& cs) const {
    cs.freezes = freezes_.load(std::memory_order_relaxed);
    cs.states_published = published() - 1;  // swaps, not the build version
    cs.states_retired = epoch_.retired_count();
    cs.states_reclaimed = epoch_.reclaimed_count();
    cs.epoch_fallback_pins = epoch_.fallback_pins();
  }

 private:
  std::atomic<State*> state_{nullptr};
  mutable EpochManager epoch_;
  // Reclaimed, not yet destroyed; the publisher's only.
  std::vector<EpochManager::Retired> deferred_;
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> freezes_{0};
};

/// A prefix of a WriteLog segment: the same `size()` slots of every
/// column. Column<C>(view) is column C as a span.
template <typename... Cols>
struct LogView {
  std::tuple<const Cols*...> cols;
  size_t n = 0;
  size_t size() const { return n; }
  bool empty() const { return n == 0; }
};

template <size_t C, typename... Cols>
auto Column(const LogView<Cols...>& v) {
  return std::span(std::get<C>(v.cols), v.n);
}

/// The log's share of a rank: the sum of nets[i] over every slot whose
/// key is below `key`. uint64_t keys take the dispatched kernel; other
/// key types a branchless loop.
template <typename Key>
int64_t LogSumBelow(const simd::Kernels& k, std::span<const Key> keys,
                    const int8_t* nets, const Key& key) {
  if constexpr (std::is_same_v<Key, uint64_t>) {
    return k.sum_below_u64(keys.data(), nets, keys.size(), key);
  } else {
    int64_t sum = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      sum += static_cast<int64_t>(nets[i]) &
             -static_cast<int64_t>(keys[i] < key);
    }
    return sum;
  }
}

/// The newest slot whose key equals `key`, or keys.size() if none (the
/// newest-wins probe). uint64_t keys take the dispatched kernel.
template <typename Key>
size_t LogFindLast(const simd::Kernels& k, std::span<const Key> keys,
                   const Key& key) {
  if constexpr (std::is_same_v<Key, uint64_t>) {
    return k.find_last_eq_u64(keys.data(), keys.size(), key);
  } else {
    for (size_t i = keys.size(); i-- > 0;) {
      if (keys[i] == key) return i;
    }
    return keys.size();
  }
}

/// The writer side of a versioned wrapper: the one mutex writers
/// serialize on, with its contention count, and the per-version bounded
/// log (Segment) they append to. A Segment stores its writes as columns,
/// one array per field (`Cols`), so a read scans a dense key column (with
/// a dispatched SIMD kernel when the key is uint64_t, simd/dispatch.h)
/// and touches the other fields only at the slot it matched.
template <typename... Cols>
class WriteLog {
 public:
  using View = LogView<Cols...>;

  /// One version's append-only log. Slots below the count are published
  /// by a release store of it; slots past it belong to the writer.
  class Segment {
   public:
    /// Bytes each slot allocates, over all columns.
    static constexpr size_t kSlotBytes = (sizeof(Cols) + ...);

    explicit Segment(size_t cap)
        : cols_(std::make_unique<Cols[]>(cap)...), cap_(cap) {}

    /// The published prefix (acquire load of the count): what a reader
    /// may scan. Scan the view, not the segment: its column pointers then
    /// stay in registers across the loop.
    View published() const {
      return View{pointers(), count_.load(std::memory_order_acquire)};
    }
    /// The written prefix, for the writer-mutex holder.
    View locked() const { return View{pointers(), size_locked()}; }
    uint32_t size_locked() const {
      return count_.load(std::memory_order_relaxed);
    }
    size_t capacity() const { return cap_; }
    bool full_locked() const { return size_locked() == cap_; }
    /// What the columns allocate.
    size_t SizeBytes() const { return cap_ * kSlotBytes; }

    /// Writer-mutex holder only; requires !full_locked(). One value per
    /// column.
    void Append(Cols... fields) {
      const uint32_t n = size_locked();
      Store(n, std::index_sequence_for<Cols...>{}, std::move(fields)...);
      count_.store(n + 1, std::memory_order_release);
    }

    /// Newest-per-key fold of the written prefix (writer mutex held) over
    /// `frozen` (sorted by key, one entry per key; a container or a
    /// dynamic::DeltaBuffer). `frozen_key(f)` and `log_key(slot)` project
    /// a frozen entry and a log slot to one comparable key. Calls, in key
    /// order, once per key of the union:
    ///   keep(f)                 the key is only in `frozen` (entry f);
    ///   write(f, first, last)   the key is in the log: the slots of its
    ///                           oldest and newest write, and the frozen
    ///                           entry f they shadow (nullptr if none).
    template <typename Frozen, typename FrozenKey, typename LogKey,
              typename Keep, typename Write>
    void Fold(const Frozen& frozen, FrozenKey frozen_key, LogKey log_key,
              Keep keep, Write write) const {
      using F = typename Frozen::value_type;
      const uint32_t n = size_locked();
      std::vector<uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (log_key(a) < log_key(b)) return true;
        if (log_key(b) < log_key(a)) return false;
        return a < b;  // slot order is write order: oldest first
      });
      size_t oi = 0;
      auto group = [&](const F* shadowed) {
        const uint32_t first = order[oi];
        size_t end = oi + 1;
        while (end < n && log_key(order[end]) == log_key(first)) ++end;
        write(shadowed, first, order[end - 1]);
        oi = end;
      };
      auto visit = [&](const F& f) {
        while (oi < n && log_key(order[oi]) < frozen_key(f)) group(nullptr);
        if (oi < n && log_key(order[oi]) == frozen_key(f)) {
          group(&f);
        } else {
          keep(f);
        }
        return true;
      };
      if constexpr (requires { frozen.VisitAll(visit); }) {
        frozen.VisitAll(visit);
      } else {
        for (const F& f : frozen) visit(f);
      }
      while (oi < n) group(nullptr);
    }

   private:
    std::tuple<const Cols*...> pointers() const {
      return std::apply(
          [](const auto&... col) {
            return std::tuple<const Cols*...>(col.get()...);
          },
          cols_);
    }
    template <size_t... C>
    void Store(uint32_t slot, std::index_sequence<C...>, Cols&&... fields) {
      ((std::get<C>(cols_)[slot] = std::move(fields)), ...);
    }

    std::tuple<std::unique_ptr<Cols[]>...> cols_;
    size_t cap_;
    std::atomic<uint32_t> count_{0};
  };

  /// The writer lock; an acquisition that has to wait is counted.
  std::unique_lock<std::mutex> Lock() const {
    std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
    if (!lk.owns_lock()) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      lk.lock();
    }
    return lk;
  }
  /// The same mutex for uncounted holders (snapshot capture, WAL control).
  std::mutex& mutex() const { return mu_; }
  uint64_t contended() const {
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<uint64_t> contended_{0};
};

/// Relaxed read-path counters striped by thread so concurrent readers do
/// not share a cache line; summed when read.
template <size_t kCounters>
class ReadCounters {
 public:
  /// This thread's stripe: kCounters atomics.
  std::atomic<uint64_t>* Stripe() const {
    return stripes_[ThisThreadIndex() % kStripes].c;
  }
  uint64_t Sum(size_t counter) const {
    uint64_t t = 0;
    for (const Line& l : stripes_) {
      t += l.c[counter].load(std::memory_order_relaxed);
    }
    return t;
  }

 private:
  static constexpr size_t kStripes = 16;
  struct alignas(64) Line {
    std::atomic<uint64_t> c[kCounters]{};
  };
  mutable Line stripes_[kStripes];
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_VERSIONED_H_
