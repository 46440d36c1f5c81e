//===- ExecutionEngine.h - Parallel campaign execution ----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-queue + thread-pool execution engine for campaign cells. The
/// paper's experiments are embarrassingly parallel — every
/// (kernel, configuration, opt level) run is an independent pure
/// function of its inputs — yet the seed reproduction executed them in
/// sequential nested loops. This engine promotes that execution to a
/// first-class subsystem:
///
///  * a batch of ExecJob cells is distributed over persistent worker
///    threads through a shared index queue;
///  * results land in a slot vector keyed by the job's submission
///    index, never by completion order, so the aggregated output is
///    bit-identical to a serial run regardless of thread count or OS
///    scheduling;
///  * ExecOptions::Threads == 1 (ExecPolicy::Serial) bypasses the pool
///    entirely and runs inline on the caller's thread, preserving the
///    old code path;
///  * jobs must not share mutable state: anything random a job needs is
///    derived up front via Rng::forkForJob(index), and the driver /
///    VM / generator stack below runTestOnConfig is audited to keep all
///    per-run state job-local.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_EXECUTIONENGINE_H
#define CLFUZZ_EXEC_EXECUTIONENGINE_H

#include "device/Driver.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace clfuzz {

/// How the engine schedules a batch.
enum class ExecPolicy : uint8_t {
  Serial,   ///< inline on the calling thread (the pre-engine path)
  Parallel, ///< thread-pooled over ExecOptions::Threads workers
};

/// Which ExecBackend implementation a campaign schedules its cells on
/// (see exec/ExecBackend.h). Every backend produces bit-identical
/// tables for a fixed seed; they differ only in wall-clock behaviour
/// and fault isolation.
enum class BackendKind : uint8_t {
  Inline,  ///< serial, on the calling thread
  Threads, ///< ExecutionEngine thread pool (Threads == 1 is serial)
  Procs,   ///< fork/exec-style process pool; crashes are isolated
  Remote,  ///< socket-fed `clfuzz worker` fleet (exec/RemoteBackend.h)
};

/// Printable name ("inline" / "threads" / "procs" / "remote").
const char *backendKindName(BackendKind K);
/// Parses a --backend= value; returns false on an unknown name.
bool parseBackendKind(const std::string &Name, BackendKind &Out);

/// Engine tuning, threaded through campaign / reducer settings.
struct ExecOptions {
  /// Worker count: 1 = serial inline execution, 0 = one worker per
  /// hardware thread, N = exactly N workers (clamped to MaxThreads —
  /// campaign results are thread-count-invariant, so clamping never
  /// changes output, only protects against nonsense like a negative
  /// CLI value cast to unsigned).
  unsigned Threads = 1;

  /// Which ExecBackend implementation makeBackend() builds. Threads is
  /// the default: with Threads == 1 it degrades to the serial inline
  /// path, so the historical ExecOptions{N} behaviour is unchanged.
  BackendKind Backend = BackendKind::Threads;

  /// Upper bound on the number of TestCases a campaign driver holds
  /// alive at once per mode: sources are pulled in shards of at most
  /// this many tests, and a shard is dropped before the next one is
  /// generated. Memory is O(ShardSize), not O(KernelsPerMode).
  unsigned ShardSize = 64;

  /// Wall-clock deadline per job in milliseconds, enforced only by the
  /// process-pool backend (the thread pool cannot safely kill a
  /// runaway job). 0 disables the deadline. The VM's step budget
  /// already bounds simulated runs, so this only matters for genuinely
  /// runaway executions.
  unsigned ProcTimeoutMs = 0;

  /// Remote backend only: the `clfuzz worker` endpoints ("host:port"
  /// each) the coordinator multiplexes jobs over. Required (and only
  /// meaningful) with Backend == BackendKind::Remote.
  std::vector<std::string> RemoteWorkers;

  /// Remote backend only: coordinator-side wall-clock deadline per
  /// dispatched job in milliseconds. A worker that blows it is
  /// disconnected and the job requeued once (second expiry = Timeout
  /// outcome). 0 disables. Distinct from ProcTimeoutMs, which the
  /// *worker's* local process pool enforces per job.
  unsigned RemoteTimeoutMs = 0;

  /// Remote backend only: idle interval (ms) after which a busy,
  /// silent worker is probed with a heartbeat frame; a probe
  /// unanswered for another interval counts as worker death. 0
  /// disables liveness probing (a wedged worker then hangs the
  /// campaign unless RemoteTimeoutMs is set).
  unsigned RemoteHeartbeatMs = 2000;

  /// Content-addressed outcome cache shared by whatever backends are
  /// built from these options (exec/OutcomeCache.h); null = no
  /// caching. makeBackend() wraps the concrete backend so identical
  /// job descriptors are served from cache (and coalesced within a
  /// batch) instead of re-executing. Cache hits are observationally
  /// invisible: campaign output is byte-identical with or without a
  /// cache — only wall-clock time and the --stats counters change.
  std::shared_ptr<class OutcomeCache> Cache;

  /// Remote backend only: the rendezvous registry rendering the fleet
  /// elastic (exec/FleetRegistry.h); null = static fleet. When set,
  /// the remote backend adopts workers the registry has admitted at
  /// every dispatch boundary, so the fleet grows mid-campaign; with a
  /// registry present RemoteWorkers may be empty (the fleet is then
  /// built entirely from joins). Share one registry with exactly one
  /// backend at a time — an adopted socket has a single owner.
  std::shared_ptr<class FleetRegistry> Fleet;

  /// Upper bound resolvedThreads() clamps to.
  static constexpr unsigned MaxThreads = 256;

  ExecPolicy policy() const {
    return Threads == 1 ? ExecPolicy::Serial : ExecPolicy::Parallel;
  }
  /// Threads with 0 resolved to the hardware concurrency.
  unsigned resolvedThreads() const;
  /// ShardSize with 0 clamped to 1.
  unsigned resolvedShardSize() const {
    return ShardSize == 0 ? 1 : ShardSize;
  }

  static ExecOptions serial() { return ExecOptions{1}; }
  static ExecOptions withThreads(unsigned N) { return ExecOptions{N}; }
  static ExecOptions withBackend(BackendKind K, unsigned N = 1) {
    ExecOptions O{N};
    O.Backend = K;
    return O;
  }
};

/// One campaign cell: a test to run on a configuration (or on the
/// clean reference when Config is null) at one opt level.
struct ExecJob {
  const TestCase *Test = nullptr;
  const DeviceConfig *Config = nullptr; ///< null = reference run
  bool Opt = false;
  RunSettings Settings;

  static ExecJob onConfig(const TestCase &T, const DeviceConfig &C,
                          bool Opt, const RunSettings &S) {
    return ExecJob{&T, &C, Opt, S};
  }
  static ExecJob onReference(const TestCase &T, bool Opt,
                             const RunSettings &S) {
    return ExecJob{&T, nullptr, Opt, S};
  }
};

/// Executes one job on the calling thread (pure; used by the engine's
/// workers and directly by serial fallbacks).
RunOutcome runExecJob(const ExecJob &Job);

/// A campaign column: the consecutive cells of one test — every job
/// references the same TestCase — in submission order. Executing a
/// column as a unit lets the worker parse and check the kernel source
/// once and reuse the front end for every cell (device/Driver.h's
/// TestFrontEnd): pass-free cells read it, optimising cells deep-clone
/// it (see frontEndUseFor) — instead of re-parsing per cell. Columns
/// are an execution-granularity choice only: outcomes are
/// byte-identical to running the same jobs cell-by-cell, and the
/// outcome cache keeps keying per cell.
struct ExecColumn {
  std::vector<ExecJob> Jobs;
};

/// Groups a flat job list into maximal columns of consecutive jobs
/// sharing one TestCase (pointer identity). Flattening the result
/// reproduces \p Jobs exactly, so per-index outcome keying is
/// unchanged.
std::vector<ExecColumn> groupIntoColumns(const std::vector<ExecJob> &Jobs);

/// Executes one column on the calling thread, sharing a lazily built
/// TestFrontEnd across the cells frontEndUseFor admits (read or
/// clone). Outcomes are in job order and byte-identical to per-cell
/// runExecJob calls.
std::vector<RunOutcome> runExecColumn(const ExecColumn &Column);

/// The thread pool. Workers are spawned once in the constructor and
/// parked on a condition variable between batches, so per-batch
/// overhead is a couple of notifications rather than thread churn.
class ExecutionEngine {
public:
  explicit ExecutionEngine(const ExecOptions &Opts = ExecOptions());
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine &) = delete;
  ExecutionEngine &operator=(const ExecutionEngine &) = delete;

  /// Worker count the engine resolved to (>= 1; 1 means serial).
  unsigned threadCount() const { return NumThreads; }

  /// Runs \p Body(I) for every I in [0, N). Iterations may run
  /// concurrently and MUST be independent: \p Body may only write
  /// state owned by its own index (e.g. its slot of a result vector).
  /// Blocks until every iteration finished. If any iteration throws,
  /// the first exception (in completion order) is rethrown here after
  /// the batch drains.
  ///
  /// \p ClaimChunk is the number of indices a worker claims per queue
  /// lock acquisition. Cheap bodies (kernel generation, candidate
  /// filtering) should claim 8 at a time to cut lock traffic on wide
  /// machines; timeout-heavy bodies (campaign cells that can burn a
  /// whole step budget) should claim 1 so a slow cell never strands
  /// cheap neighbours behind it. Results are keyed by index either
  /// way, so the chunk size never changes output — only lock traffic.
  void forEachIndex(size_t N, const std::function<void(size_t)> &Body,
                    unsigned ClaimChunk = 1);

  /// Chunk size for cheap, uniform-cost bodies.
  static constexpr unsigned CheapClaimChunk = 8;

private:
  void workerLoop();

  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;

  // Batch state, guarded by M / CV (workers) and DoneCV (submitter).
  std::mutex M;
  std::condition_variable CV;
  std::condition_variable DoneCV;
  const std::function<void(size_t)> *Body = nullptr;
  size_t NextIndex = 0;
  size_t EndIndex = 0;
  size_t DoneCount = 0;
  unsigned BatchClaimChunk = 1;
  uint64_t BatchId = 0;
  std::exception_ptr FirstError;
  bool ShuttingDown = false;
};

} // namespace clfuzz

#endif // CLFUZZ_EXEC_EXECUTIONENGINE_H
