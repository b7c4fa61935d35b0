// Unit tests for concurrent::BackgroundWorker, the one worker thread
// behind every background cycle of the concurrent wrappers (merge,
// rehash, filter rebuild, shard rebalance): request coalescing, the
// synchronous run, sticky failure status, the self re-arm and shutdown.
// The wrappers' own suites drive it end to end; these pin down the
// contract each of them relies on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/status.h"
#include "concurrent/background_worker.h"

namespace li {
namespace {

using concurrent::BackgroundWorker;

void SpinUntil(const std::atomic<bool>& flag) {
  while (!flag.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(BackgroundWorkerTest, RequestsDuringACycleCoalesceIntoOneMoreCycle) {
  std::atomic<int> calls{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  BackgroundWorker w;
  w.Start([&] {
    if (calls.fetch_add(1) == 0) {
      entered = true;
      SpinUntil(release);
    }
    return Status::OK();
  });
  w.Request();
  SpinUntil(entered);
  for (int i = 0; i < 5; ++i) w.Request();  // all while cycle 1 runs
  release = true;
  w.WaitIdle();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(w.cycles(), 2u);
}

TEST(BackgroundWorkerTest, RunSyncReturnsTheStatusOfACycleStartedAfterTheCall) {
  std::atomic<int> calls{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> sync_called{false};
  BackgroundWorker w;
  w.Start([&] {
    if (calls.fetch_add(1) == 0) {
      entered = true;
      SpinUntil(sync_called);
      // Let RunSync register while this cycle is still running.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::Internal("cycle started before the call");
    }
    return Status::OK();
  });
  w.Request();
  SpinUntil(entered);
  sync_called = true;
  const Status st = w.RunSync();
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_TRUE(w.last_status().ok());

  // From idle, a synchronous run is exactly one cycle.
  EXPECT_TRUE(w.RunSync().ok());
  EXPECT_EQ(calls.load(), 3);
}

TEST(BackgroundWorkerTest, AFailedStatusStaysUntilTheNextSuccess) {
  std::atomic<bool> fail{true};
  BackgroundWorker w;
  EXPECT_TRUE(w.last_status().ok());  // OK before the first cycle
  w.Start([&] {
    return fail.load() ? Status::Internal("injected") : Status::OK();
  });
  EXPECT_EQ(w.RunSync().code(), StatusCode::kInternal);
  w.WaitIdle();
  EXPECT_EQ(w.last_status().code(), StatusCode::kInternal);
  EXPECT_EQ(w.last_status().message(), "injected");
  EXPECT_EQ(w.RunSync().code(), StatusCode::kInternal);  // still failing
  fail = false;
  EXPECT_TRUE(w.RunSync().ok());
  EXPECT_TRUE(w.last_status().ok());
}

TEST(BackgroundWorkerTest, TheRearmKeepsWaitIdleWaiting) {
  constexpr int kRearms = 4;
  std::atomic<int> calls{0};
  BackgroundWorker w;
  w.Start([&] {
    if (calls.fetch_add(1) < kRearms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      w.Request();  // more work left: run again
    }
    return Status::OK();
  });
  w.Request();
  w.WaitIdle();
  EXPECT_EQ(calls.load(), kRearms + 1);
  EXPECT_EQ(w.cycles(), static_cast<uint64_t>(kRearms + 1));
}

TEST(BackgroundWorkerTest, ShutdownWithAPendingRequestJoinsWithoutRunningIt) {
  std::atomic<int> calls{0};
  std::atomic<bool> entered{false};
  BackgroundWorker w;
  w.Start([&] {
    calls.fetch_add(1);
    entered = true;
    // Hold the cycle open until shutdown has begun, so the request below
    // is still pending when the worker next looks.
    while (!w.stopping()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });
  w.Request();
  SpinUntil(entered);
  w.Request();  // pending behind the running cycle
  w.Stop();     // joins: the running cycle finishes, the pending one drops
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(w.cycles(), 1u);
}

TEST(BackgroundWorkerTest, AWorkerNeverStartedStopsCleanly) {
  BackgroundWorker w;
  EXPECT_TRUE(w.last_status().ok());
  EXPECT_EQ(w.cycles(), 0u);
  w.Stop();
}

}  // namespace
}  // namespace li
