//===- Trace.h - Spans recorded around the calls into clfuzz ----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instrumentation. Nothing here lives inside the
/// program: every span is recorded by a wrapper in the benchmark's own
/// files, around a call into one of clfuzz's public entry points —
///
///   - TracingBackend, an ExecBackend decorator placed once above
///     wrapWithOutcomeCache ("exec.outer") and once below it
///     ("exec.inner"), timing run, runColumns and forEachIndex;
///   - TracedTask, a CampaignTask wrapper timing each granted step;
///   - Recorder::beginGrant/endGrant, timing CampaignScheduler::stepOnce.
///
/// Each span records name, start, end, parent, the grant (one stepOnce)
/// and the campaign it belongs to, and the movement of the program's
/// process-wide counters (compile, VM, cache, triage, fleet) across it.
/// Spans are kept in memory and written out when the run ends.
///
/// Worker processes (procs backend, loopback fleet) count in their own
/// address space, so the coordinator's compile and VM counters read zero
/// there. The Replayer covers that blind spot: below the cache it runs
/// the same column descriptors again in-process — through the job
/// serialisation entry points and runExecColumn — outside every layer's
/// span, and the split it yields is labelled as replayed.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_PERFBENCH_TRACE_H
#define CLFUZZ_PERFBENCH_TRACE_H

#include "device/CompileCounters.h"
#include "exec/ExecBackend.h"
#include "exec/FleetRegistry.h"
#include "exec/OutcomeCache.h"
#include "sched/CampaignScheduler.h"
#include "triage/Triage.h"
#include "vm/VM.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The program's process-wide counters at one instant.
struct Snapshot {
  clfuzz::CompileCounters Compile;
  clfuzz::VmCounters Vm;
  clfuzz::OutcomeCacheStats Cache;
  clfuzz::TriageCounters Triage;
  clfuzz::FleetCounters Fleet;

  static Snapshot take(const clfuzz::OutcomeCache *Cache);
  /// Field-wise After - Before.
  static Snapshot delta(const Snapshot &After, const Snapshot &Before);
};

/// One recorded span.
struct Span {
  const char *Name = "";
  long Parent = -1;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint32_t Grant = 0;  ///< stepOnce ordinal (0 = outside any grant)
  int Campaign = -1;   ///< index into Recorder::campaignNames()
  uint64_t Items = 0;  ///< cells (run/runColumns) or indices (forEachIndex)
  Snapshot Delta;      ///< counter movement across the span
};

/// In-memory span store. Spans nest on the coordinator thread only: the
/// scheduler, the campaigns and the backends' entry points all run
/// there; begin() refuses any other thread rather than mis-nest.
class Recorder {
public:
  explicit Recorder(const clfuzz::OutcomeCache *Cache) : Cache(Cache) {}

  size_t begin(const char *Name, uint64_t Items = 0);
  void end(size_t Id);

  /// Opens and closes the span of one CampaignScheduler::stepOnce.
  size_t beginGrant();
  void endGrant(size_t Id);
  /// Attributes the current grant's spans to \p Campaign.
  void setCampaign(int Campaign);

  int addCampaign(std::string Name, bool ReductionLane);

  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<std::string> &campaignNames() const { return Names; }
  const std::vector<bool> &campaignIsLane() const { return Lanes; }

  /// Writes every span as one JSON line.
  void write(std::FILE *Out) const;

private:
  const clfuzz::OutcomeCache *Cache;
  std::thread::id Owner = std::this_thread::get_id();
  std::vector<Span> Spans;
  std::vector<size_t> Stack; ///< open spans, innermost last
  std::vector<std::string> Names;
  std::vector<bool> Lanes;
  uint32_t Grants = 0;
  uint32_t CurGrant = 0;
  size_t GrantSpan = 0;
  int CurCampaign = -1;
};

/// What the replay measured, summed over every replayed batch.
struct ReplayStats {
  uint64_t Cells = 0;
  uint64_t Bytes = 0;     ///< column frames + outcome frames
  uint64_t EncodeNs = 0;  ///< serializeExecColumn + serializeRunOutcome
  uint64_t DecodeNs = 0;  ///< deserializeExecColumn + deserializeRunOutcome
  uint64_t HashNs = 0;    ///< hashDescriptor per cell
  uint64_t Mismatches = 0;///< re-run outcomes differing from the backend's
  clfuzz::CompileCounters Compile; ///< counter movement of the re-runs
  clfuzz::VmCounters Vm;
};

/// Re-executes descriptors in-process (see the file comment). With
/// \p Execute false it only measures the serialisation path, which is
/// what in-process backends would pay had they crossed a boundary.
class Replayer {
public:
  Replayer(bool Execute, unsigned Threads);
  ~Replayer();

  void replay(const std::vector<clfuzz::ExecColumn> &Columns,
              const std::vector<clfuzz::RunOutcome> &Got);
  bool executes() const { return Execute; }
  const ReplayStats &stats() const { return Stats; }

private:
  bool Execute;
  std::unique_ptr<clfuzz::ExecutionEngine> Engine;
  ReplayStats Stats;
};

/// ExecBackend decorator recording a span around each entry point.
class TracingBackend final : public clfuzz::ExecBackend {
public:
  /// \p Outer names the spans exec.outer.* (above the cache) rather
  /// than exec.inner.*; \p Replay (inner layer only, may be null)
  /// re-runs each batch once its span has closed.
  TracingBackend(std::unique_ptr<clfuzz::ExecBackend> Inner, Recorder &Rec,
                 bool Outer, Replayer *Replay);

  clfuzz::BackendKind kind() const override { return Inner->kind(); }
  unsigned concurrency() const override { return Inner->concurrency(); }
  std::vector<clfuzz::RunOutcome>
  run(const std::vector<clfuzz::ExecJob> &Jobs) override;
  std::vector<clfuzz::RunOutcome>
  runColumns(const std::vector<clfuzz::ExecColumn> &Columns) override;
  void forEachIndex(size_t N,
                    const std::function<void(size_t)> &Body) override;

private:
  std::unique_ptr<clfuzz::ExecBackend> Inner;
  Recorder &Rec;
  bool Outer;
  Replayer *Replay;
};

/// CampaignTask wrapper recording a span around every granted step.
class TracedTask final : public clfuzz::CampaignTask {
public:
  TracedTask(clfuzz::CampaignTask &Task, Recorder &Rec, int Campaign)
      : Task(Task), Rec(Rec), Campaign(Campaign) {}

  bool done() const override { return Task.done(); }
  bool ready() const override { return Task.ready(); }
  void step() override;
  void waitReady() override { Task.waitReady(); }
  clfuzz::SchedLane lane() const override { return Task.lane(); }
  size_t distinctWitnesses() const override {
    return Task.distinctWitnesses();
  }
  size_t testsDone() const override { return Task.testsDone(); }
  size_t jobsDone() const override { return Task.jobsDone(); }
  int exitCode() const override { return Task.exitCode(); }

private:
  clfuzz::CampaignTask &Task;
  Recorder &Rec;
  int Campaign;
};

} // namespace perfbench

#endif // CLFUZZ_PERFBENCH_TRACE_H
