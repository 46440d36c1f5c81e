//===- ProcessPoolFdTest.cpp - Cross-pool fd isolation of forked workers -----===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// A process pool learns that a worker crashed from EOF on the worker's
// outcome pipe. That only works if no other process holds the pipe's
// write end. A `clfuzz worker` runs one process pool per executor
// slot, on its own thread, so pools fork concurrently: a child forked
// by pool B while pool A sits between pipe() and its post-fork close
// inherits A's child-side pipe ends. Unless every forked child closes
// every fd it does not own, B's idle child keeps A's write end open
// and A waits forever for a crash it cannot see.
//
// The suite is small on purpose: CI runs it many times over
// (`ctest -R ProcessPoolFdTest --repeat until-fail:20`), because the
// race it guards against is a matter of fork timing.
//
//===----------------------------------------------------------------------===//

#include "exec/ProcessPool.h"
#include "gen/Generator.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

using namespace clfuzz;

TEST(ProcessPoolFdTest, CrashIsSeenWhileAnotherPoolForks) {
  GenOptions GO;
  GO.Seed = 4242;
  GO.MinThreads = 2;
  GO.MaxThreads = 4;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  RunSettings Abort;
  Abort.DebugHardAbort = true;
  std::vector<ExecJob> Crashing(4, ExecJob::onReference(T, false, Abort));
  std::vector<ExecJob> Healthy(4, ExecJob::onReference(T, false, RunSettings()));

  ExecOptions O = ExecOptions::withBackend(BackendKind::Procs, 4);
  for (int Round = 0; Round != 25; ++Round) {
    std::unique_ptr<ExecBackend> A = makeProcessPoolBackend(O);
    std::unique_ptr<ExecBackend> B = makeProcessPoolBackend(O);

    // Both pools fork their workers lazily on their first batch; start
    // the two batches together so the forks interleave.
    std::atomic<int> Arrived{0};
    auto Together = [&] {
      Arrived.fetch_add(1);
      while (Arrived.load() < 2) {
      }
    };
    std::thread RunB([&] {
      Together();
      B->run(Healthy);
    });
    std::future<std::vector<RunOutcome>> RunA =
        std::async(std::launch::async, [&] {
          Together();
          return A->run(Crashing);
        });
    RunB.join();

    // B's workers now idle with whatever fds they inherited. A must
    // still see each of its crashes, well within the bound.
    bool InTime = RunA.wait_for(std::chrono::seconds(20)) ==
                  std::future_status::ready;
    if (!InTime)
      B.reset(); // kill B's workers so the stuck pool can finish
    std::vector<RunOutcome> Out = RunA.get();
    ASSERT_TRUE(InTime) << "round " << Round
                        << ": a crashed worker stayed invisible to its "
                           "pool while another pool's worker lived";
    ASSERT_EQ(Out.size(), Crashing.size());
    for (const RunOutcome &R : Out)
      EXPECT_EQ(R.Status, RunStatus::Crash) << R.Message;
  }
}

#else // no fork(): nothing to isolate.

TEST(ProcessPoolFdTest, SkippedWithoutFork) { GTEST_SKIP(); }

#endif
