// BackgroundWorker — the one worker thread behind every background cycle
// of the concurrent subsystem: the delta merge of ConcurrentWritableIndex,
// the table rebuild of ConcurrentPointIndex, the filter rebuild of
// RebuildableExistence and the shard rebalance of ShardedIndex.
//
// The owner hands Start() a cycle body (`Status()`); the worker runs it
// once per *coalesced* request:
//   * Request() never blocks. Requests made while no cycle runs collapse
//     into one cycle; requests made while a cycle runs collapse into
//     exactly one more cycle after it. A body that finishes with work
//     still left calls Request() itself before it returns (the re-arm):
//     the worker then runs again and WaitIdle() keeps waiting.
//   * RunSync() requests a cycle and blocks until the worker is idle
//     again, returning the status of the last cycle — one that started
//     after the call, so it covers everything the caller did before.
//   * last_status() is the status of the most recent cycle: a failure
//     stays visible until a later cycle succeeds.
//   * Stop() (and the destructor) wakes the worker and joins it. A
//     pending request is dropped without running the body; a running
//     cycle finishes first. The owner declares the worker after every
//     member the body touches, so the join happens before they die.

#ifndef LI_CONCURRENT_BACKGROUND_WORKER_H_
#define LI_CONCURRENT_BACKGROUND_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "common/status.h"

namespace li::concurrent {

class BackgroundWorker {
 public:
  BackgroundWorker() = default;
  ~BackgroundWorker() { Stop(); }
  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  /// Starts the thread. Call once, before any other method is used
  /// concurrently (build-then-share).
  template <typename Cycle>
  void Start(Cycle cycle) {
    thread_ = std::thread([this, cycle = std::move(cycle)]() mutable {
      std::unique_lock<std::mutex> lk(mu_);
      for (;;) {
        wake_cv_.wait(lk, [&] { return requested_ || shutdown_; });
        if (shutdown_) return;
        requested_ = false;
        running_ = true;
        lk.unlock();
        const Status st = cycle();
        lk.lock();
        running_ = false;
        last_status_ = st;
        ++cycles_;
        done_cv_.notify_all();
      }
    });
  }

  /// Asynchronous trigger; coalesces with a pending request.
  void Request() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      requested_ = true;
    }
    wake_cv_.notify_one();
  }

  /// Synchronous cycle: blocks the caller until a cycle that started
  /// after this call has finished and nothing is pending or running.
  Status RunSync() {
    std::unique_lock<std::mutex> lk(mu_);
    requested_ = true;
    wake_cv_.notify_one();
    const uint64_t start = cycles_;
    done_cv_.wait(lk, [&] {
      return cycles_ > start && !requested_ && !running_;
    });
    return last_status_;
  }

  /// Blocks until no cycle is pending or running (the quiesce point).
  void WaitIdle() {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return !requested_ && !running_; });
  }

  Status last_status() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_status_;
  }

  /// Cycles completed so far.
  uint64_t cycles() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cycles_;
  }

  /// True once Stop() has begun: a long multi-step body may end its cycle
  /// early instead of making the join wait it out.
  bool stopping() const {
    std::lock_guard<std::mutex> lk(mu_);
    return shutdown_;
  }

  /// Wakes and joins the thread (no-op when never started).
  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    wake_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable wake_cv_;  // requested_ || shutdown_
  std::condition_variable done_cv_;  // a cycle finished
  bool requested_ = false;
  bool running_ = false;
  bool shutdown_ = false;
  uint64_t cycles_ = 0;
  Status last_status_{};
  std::thread thread_;
};

}  // namespace li::concurrent

#endif  // LI_CONCURRENT_BACKGROUND_WORKER_H_
