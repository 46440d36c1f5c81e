//===- ExecBackend.h - Pluggable campaign execution backends ----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution half of the streaming campaign pipeline
/// (TestSource -> ExecBackend -> ResultSink). An ExecBackend runs
/// batches of campaign cells; campaign drivers are written against
/// this interface and never against a concrete scheduler, so a run can
/// move from one core to a thread pool to isolated worker processes by
/// flipping ExecOptions::Backend.
///
/// The load-bearing contract, shared by every implementation and
/// pinned by tests/BackendConformanceTest.cpp:
///
///  * run() returns Results[I] == outcome of Jobs[I] — keyed by
///    submission index, never by completion order;
///  * for a fixed seed, every backend at every worker count produces
///    bit-identical campaign tables;
///  * jobs are pure functions of their descriptors: all randomness a
///    job needs is derived up front (Rng::forkForJob and the seeds in
///    the descriptor), so a job can be replayed by any worker — thread
///    or subprocess — with the same result.
///
/// Implementations:
///
///  * InlineBackend — serial, on the calling thread; the reference
///    semantics everything else must match.
///  * ThreadPoolBackend — wraps the ExecutionEngine work-queue pool.
///    Fast, but a job that crashes the process takes the campaign
///    with it.
///  * ProcessPoolBackend (exec/ProcessPool.h) — forked worker
///    subprocesses fed serialized job descriptors; a VM crash or a
///    runaway timeout kills one worker, is recorded as that job's
///    outcome, and the campaign keeps going.
///  * RemoteBackend (exec/RemoteBackend.h) — the same column
///    descriptors framed over TCP (exec/WireProtocol.h) to `clfuzz
///    worker` processes on any number of machines; worker death
///    requeues its unanswered cells and results reassemble by
///    submission index.
///
/// When ExecOptions::Cache is set, makeBackend() wraps the chosen
/// implementation in the content-addressed outcome cache
/// (exec/OutcomeCache.h): identical job descriptors are served from
/// cache or coalesced within a batch instead of re-executing, with
/// byte-identical campaign output either way.
///
/// docs/architecture.md walks the whole pipeline and the invariants.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_EXECBACKEND_H
#define CLFUZZ_EXEC_EXECBACKEND_H

#include "exec/ExecutionEngine.h"

#include <memory>

namespace clfuzz {

/// Abstract batch executor for campaign cells.
class ExecBackend {
public:
  virtual ~ExecBackend();

  /// "inline", "threads", "procs" or "remote".
  virtual BackendKind kind() const = 0;

  /// Number of cells the backend can run concurrently (>= 1).
  virtual unsigned concurrency() const = 0;

  /// Runs a batch of cells. Results[I] is Jobs[I]'s outcome, for every
  /// implementation — the bit-identity contract hangs off this.
  virtual std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) = 0;

  /// Runs a batch of campaign columns (exec/ExecutionEngine.h's
  /// ExecColumn): the flattened outcome vector matches a run() over
  /// the flattened job list byte for byte. Backends that can keep a
  /// column on one worker override this to amortise the front end
  /// across the column's cells (threads, procs and remote all do); the
  /// default flattens and delegates to run(). The caching wrapper keys
  /// per cell and re-columns its misses for the backend it wraps.
  virtual std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns);

  /// Runs a batch of columns with per-column dispatch priorities
  /// (higher first). The scheduler uses this as its soft-preemption
  /// hook: columns belonging to a higher-priority campaign lane (e.g.
  /// reductions) enter the backend's in-flight window before the rest
  /// of the shard, so under a saturated fleet they claim slots first —
  /// but every column still runs, and the returned outcome vector is
  /// re-keyed to the *submission* column order, byte-identical to
  /// runColumns(Columns) for any priority assignment. Priorities never
  /// enter job descriptors: cache keys and the wire format are
  /// untouched. Non-virtual by design — the permutation layer sits on
  /// top of whichever runColumns() the concrete backend provides.
  std::vector<RunOutcome>
  runColumnsPrioritized(const std::vector<ExecColumn> &Columns,
                        const std::vector<unsigned> &Priorities);

  /// Runs \p Body(I) for every I in [0, N) *in this process*. Sources
  /// use this for generation-side work (building TestCases, EMI
  /// variants) whose closures cannot cross a process boundary; only
  /// the thread-pool backend parallelises it. Iterations must be
  /// index-independent, like ExecutionEngine::forEachIndex. Exception
  /// contract on every backend: all N indices run; the first
  /// exception (in completion order) is rethrown after the batch
  /// drains.
  virtual void forEachIndex(size_t N,
                            const std::function<void(size_t)> &Body);

  const char *name() const { return backendKindName(kind()); }
};

/// Serial reference backend: every cell runs on the calling thread.
class InlineBackend final : public ExecBackend {
public:
  BackendKind kind() const override { return BackendKind::Inline; }
  unsigned concurrency() const override { return 1; }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override;
};

/// Thread-pool backend over the ExecutionEngine. With Threads == 1 the
/// engine bypasses its pool entirely, so this doubles as the
/// historical serial path.
class ThreadPoolBackend final : public ExecBackend {
public:
  explicit ThreadPoolBackend(const ExecOptions &Opts = ExecOptions());

  BackendKind kind() const override { return BackendKind::Threads; }
  unsigned concurrency() const override { return Engine.threadCount(); }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override;
  void forEachIndex(size_t N,
                    const std::function<void(size_t)> &Body) override;

  ExecutionEngine &engine() { return Engine; }

private:
  ExecutionEngine Engine;
};

/// Builds the backend ExecOptions asks for. The process pool falls
/// back to the inline backend on platforms without fork().
std::unique_ptr<ExecBackend> makeBackend(const ExecOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_EXECBACKEND_H
