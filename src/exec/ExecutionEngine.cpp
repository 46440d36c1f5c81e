//===- ExecutionEngine.cpp - Parallel campaign execution ---------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/ExecutionEngine.h"
#include "device/DeviceConfig.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <memory>

using namespace clfuzz;

const char *clfuzz::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Inline:
    return "inline";
  case BackendKind::Threads:
    return "threads";
  case BackendKind::Procs:
    return "procs";
  case BackendKind::Remote:
    return "remote";
  }
  return "?";
}

bool clfuzz::parseBackendKind(const std::string &Name, BackendKind &Out) {
  if (Name == "inline")
    Out = BackendKind::Inline;
  else if (Name == "threads")
    Out = BackendKind::Threads;
  else if (Name == "procs")
    Out = BackendKind::Procs;
  else if (Name == "remote")
    Out = BackendKind::Remote;
  else
    return false;
  return true;
}

unsigned ExecOptions::resolvedThreads() const {
  if (Threads != 0)
    return std::min(Threads, MaxThreads);
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : std::min(HW, MaxThreads);
}

RunOutcome clfuzz::runExecJob(const ExecJob &Job) {
  // Fault-injection hooks for the process-pool isolation tests: a hard
  // abort models a VM bug taking the worker process down; a spin
  // models a runaway execution the step budget cannot catch. Neither
  // is reachable from campaign code paths.
  if (Job.Settings.DebugHardAbort)
    std::abort();
  if (Job.Settings.DebugSpinMs)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Job.Settings.DebugSpinMs));
  if (Job.Config)
    return runTestOnConfig(*Job.Test, *Job.Config, Job.Opt, Job.Settings);
  return runTestOnReference(*Job.Test, Job.Opt, Job.Settings);
}

std::vector<ExecColumn>
clfuzz::groupIntoColumns(const std::vector<ExecJob> &Jobs) {
  std::vector<ExecColumn> Cols;
  for (const ExecJob &J : Jobs) {
    if (Cols.empty() || Cols.back().Jobs.front().Test != J.Test)
      Cols.emplace_back();
    Cols.back().Jobs.push_back(J);
  }
  return Cols;
}

std::vector<RunOutcome> clfuzz::runExecColumn(const ExecColumn &Column) {
  std::vector<RunOutcome> Out;
  Out.reserve(Column.Jobs.size());
  // Built on the first admissible cell; with cloning disabled, columns
  // whose every cell runs the optimiser (or an AST-mutating bug pass)
  // never pay the parse.
  std::unique_ptr<TestFrontEnd> FE;
  for (const ExecJob &J : Column.Jobs) {
    assert(J.Test == Column.Jobs.front().Test &&
           "column cells must share one test");
    // The fault-injection hooks bypass the driver entirely; route them
    // through runExecJob so the process-pool isolation tests see the
    // same behaviour on the column path.
    if (J.Settings.DebugHardAbort || J.Settings.DebugSpinMs) {
      Out.push_back(runExecJob(J));
      continue;
    }
    const TestFrontEnd *Shared = nullptr;
    if (frontEndUseFor(J.Config, J.Opt) != FrontEndUse::Reparse) {
      if (!FE)
        FE = std::make_unique<TestFrontEnd>(*J.Test);
      Shared = FE.get();
    }
    Out.push_back(J.Config
                      ? runTestOnConfig(*J.Test, *J.Config, J.Opt,
                                        J.Settings, Shared)
                      : runTestOnReference(*J.Test, J.Opt, J.Settings,
                                           Shared));
  }
  return Out;
}

ExecutionEngine::ExecutionEngine(const ExecOptions &Opts)
    : NumThreads(Opts.resolvedThreads()) {
  // Serial engines never spawn workers; N threads means N-1 pool
  // workers plus the submitting thread, which joins every batch.
  for (unsigned I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ExecutionEngine::~ExecutionEngine() {
  {
    std::lock_guard<std::mutex> Lock(M);
    ShuttingDown = true;
  }
  CV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ExecutionEngine::workerLoop() {
  uint64_t SeenBatch = 0;
  for (;;) {
    const std::function<void(size_t)> *Work = nullptr;
    unsigned Chunk = 1;
    {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [&] { return ShuttingDown || BatchId != SeenBatch; });
      if (ShuttingDown)
        return;
      SeenBatch = BatchId;
      Work = Body;
      Chunk = BatchClaimChunk;
    }
    // Claim index chunks until the batch drains. Indices are claimed
    // under the lock; the bodies run outside it. Cheap batches claim
    // several indices per acquisition to cut lock traffic on wide
    // machines; results are keyed by index, so chunking never changes
    // output.
    for (;;) {
      size_t Begin, End;
      {
        std::lock_guard<std::mutex> Lock(M);
        // The batch-id check keeps a straggler from claiming indices
        // of a batch submitted after its Work pointer was captured.
        if (BatchId != SeenBatch || NextIndex >= EndIndex)
          break;
        Begin = NextIndex;
        End = std::min<size_t>(Begin + Chunk, EndIndex);
        NextIndex = End;
      }
      std::exception_ptr Err;
      for (size_t I = Begin; I != End; ++I) {
        try {
          (*Work)(I);
        } catch (...) {
          if (!Err)
            Err = std::current_exception();
        }
      }
      {
        std::lock_guard<std::mutex> Lock(M);
        if (Err && !FirstError)
          FirstError = Err;
        DoneCount += End - Begin;
        if (DoneCount == EndIndex)
          DoneCV.notify_all();
      }
    }
  }
}

void ExecutionEngine::forEachIndex(size_t N,
                                   const std::function<void(size_t)> &BodyFn,
                                   unsigned ClaimChunk) {
  if (N == 0)
    return;
  if (NumThreads == 1 || N == 1) {
    // ExecPolicy::Serial (and trivial batches): the pre-engine inline
    // path, no synchronisation at all — but the same exception
    // contract as the pool: every index runs, the first exception is
    // rethrown after the batch drains.
    std::exception_ptr First;
    for (size_t I = 0; I != N; ++I) {
      try {
        BodyFn(I);
      } catch (...) {
        if (!First)
          First = std::current_exception();
      }
    }
    if (First)
      std::rethrow_exception(First);
    return;
  }

  {
    std::lock_guard<std::mutex> Lock(M);
    Body = &BodyFn;
    NextIndex = 0;
    EndIndex = N;
    DoneCount = 0;
    BatchClaimChunk = std::max(1u, ClaimChunk);
    FirstError = nullptr;
    ++BatchId;
  }
  CV.notify_all();

  // The submitting thread works the queue too, then waits for the
  // stragglers held by pool workers.
  const unsigned Chunk = std::max(1u, ClaimChunk);
  for (;;) {
    size_t Begin, End;
    {
      std::lock_guard<std::mutex> Lock(M);
      if (NextIndex >= EndIndex)
        break;
      Begin = NextIndex;
      End = std::min<size_t>(Begin + Chunk, EndIndex);
      NextIndex = End;
    }
    std::exception_ptr Err;
    for (size_t I = Begin; I != End; ++I) {
      try {
        BodyFn(I);
      } catch (...) {
        if (!Err)
          Err = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      if (Err && !FirstError)
        FirstError = Err;
      DoneCount += End - Begin;
    }
  }

  std::exception_ptr Pending;
  {
    std::unique_lock<std::mutex> Lock(M);
    DoneCV.wait(Lock, [&] { return DoneCount == EndIndex; });
    Body = nullptr;
    Pending = FirstError;
    FirstError = nullptr;
  }
  if (Pending)
    std::rethrow_exception(Pending);
}
