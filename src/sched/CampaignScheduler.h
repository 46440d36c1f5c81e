//===- CampaignScheduler.h - N campaigns over one shared backend *- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator-side campaign scheduler: runs N concurrent
/// campaigns (diff, hunt, EMI, plus reductions drained from the
/// ReductionQueue) over ONE shared ExecBackend — the step from "a
/// tool you run" to "a service many users submit to" (ROADMAP.md).
///
/// Model. A campaign is a CampaignTask: a stepwise state machine
/// whose step() performs one self-contained unit of work — typically
/// one ShardedCampaignRun shard, i.e. one backend batch. The
/// scheduler owns nothing about a campaign's internals; each grant
/// cycle it asks every live campaign whether it is ready, lets the
/// SchedPolicy pick one (Reduction-lane campaigns always preempt
/// Foreground ones — the explicit priority lane), and runs that
/// campaign's next step on the calling thread. Steps therefore
/// *serialize* over the shared backend: the backend's full in-flight
/// window (threads, worker processes, the remote fleet) belongs to
/// exactly one campaign at a time, and reassignment happens only
/// between steps — drain-then-reassign at shard boundaries, never
/// mid-job.
///
/// Determinism. Because a step is one pull-run-consume cycle in the
/// campaign's own submission order, the sequence of source pulls,
/// backend batches and sink calls any single campaign observes is
/// byte-for-byte the sequence its solo run performs — no matter how
/// many other campaigns interleave, which policy picks, or which
/// backend executes. That is the tentpole invariant
/// (SchedulerConformanceTest pins it across backends × worker counts
/// × cache states) and it holds for ANY policy, because a policy only
/// chooses when a campaign steps, never what a step does.
///
/// Accounting. Serialized steps make attribution exact: the scheduler
/// snapshots the shared OutcomeCache's counters and the process-wide
/// VM counters around every step and charges the deltas to the
/// stepped campaign. `clfuzz sched --stats` prints the per-campaign
/// breakdown; the sums equal the global counters (pinned by test).
///
/// docs/scheduler.md is the full design document.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_SCHED_CAMPAIGNSCHEDULER_H
#define CLFUZZ_SCHED_CAMPAIGNSCHEDULER_H

#include "device/CompileCounters.h"
#include "exec/ExecBackend.h"
#include "exec/FleetRegistry.h"
#include "exec/OutcomeCache.h"
#include "sched/SchedPolicy.h"
#include "triage/Triage.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace clfuzz {

/// A schedulable campaign: a stepwise state machine over a shared
/// backend. Implementations live in sched/Campaigns.h (hunt, diff,
/// EMI, reduce, the ReductionQueue lane); tests add synthetic ones.
class CampaignTask {
public:
  virtual ~CampaignTask();

  /// True once the campaign has finished all its work (report
  /// included). A done campaign is never stepped again.
  virtual bool done() const = 0;

  /// True when step() has work it can do right now. A not-done,
  /// not-ready campaign is waiting on another campaign's progress
  /// (e.g. a hunt waiting for the reduction lane to drain its queue).
  virtual bool ready() const { return true; }

  /// Performs one unit of work — at most one backend batch — on the
  /// calling thread. Called only when ready() && !done().
  virtual void step() = 0;

  /// Never called: readiness only changes between steps. Kept only
  /// because perfbench/ still overrides it.
  virtual void waitReady() {}

  /// Scheduling lane; Reduction-lane campaigns preempt Foreground
  /// ones at every grant.
  virtual SchedLane lane() const { return SchedLane::Foreground; }

  /// Number of distinct witnesses produced so far (deduped by
  /// hashDescriptor fingerprints) — the YieldWeighted policy's signal.
  virtual size_t distinctWitnesses() const { return 0; }

  /// Tests / jobs completed so far, for the per-campaign breakdown.
  virtual size_t testsDone() const { return 0; }
  virtual size_t jobsDone() const { return 0; }

  /// Exit code the driving command should return for this campaign
  /// (0 unless the campaign failed, e.g. an uninteresting reduce
  /// witness).
  virtual int exitCode() const { return 0; }
};

/// Runs one campaign to completion on the calling thread: the plain
/// step loop the tests use as a solo reference. Throws
/// std::logic_error if the campaign stalls (not ready, not done).
void runCampaignTask(CampaignTask &Task);

/// Per-campaign accounting, maintained by the scheduler from
/// around-step counter deltas.
struct CampaignStats {
  size_t Steps = 0;     ///< grants this campaign received
  size_t Tests = 0;     ///< tests completed (task-reported)
  size_t Jobs = 0;      ///< jobs completed (task-reported)
  size_t Witnesses = 0; ///< distinct witnesses (task-reported)
  OutcomeCacheStats Cache; ///< shared-cache deltas during its steps
  uint64_t VmInstructions = 0; ///< VM counter deltas during its steps
  uint64_t VmFused = 0;
  uint64_t VmLaunches = 0;
  uint64_t VmEngineReuses = 0;
  /// Per-phase compile profiler deltas during its steps (zero-valued,
  /// like the VM counters, when the backend compiles in worker
  /// processes the coordinator cannot see).
  CompileCounters Compile;
  /// Triage counter deltas during its steps. Witnesses/Probes accrue
  /// in the step that runs the triage (the reduction lane's, for a
  /// hunt), Clusters in the consuming campaign's drain step; both are
  /// inside serialized steps, so per-campaign lines sum exactly to
  /// the global counters.
  TriageCounters Triage;

  /// Fleet counter deltas during its steps (exec/FleetRegistry.h):
  /// joins adopted, drains completed, evictions, redials and job
  /// requeues its remote shards incurred. All counting happens inside
  /// RemoteBackend::run() — inside this campaign's serialized step —
  /// so per-campaign fleet_* lines sum exactly to the global totals.
  FleetCounters Fleet;
};

/// A campaign's handle inside the scheduler.
struct ScheduledCampaign {
  std::string Name;
  CampaignTask *Task = nullptr;
  CampaignStats Stats;
  /// Distinct-witness deltas of the most recent granted steps
  /// (bounded by SchedOptions::YieldWindow) — the YieldWeighted
  /// policy's recency window.
  std::deque<size_t> RecentYields;
};

/// Scheduler tuning.
struct SchedOptions {
  SchedPolicyKind Policy = SchedPolicyKind::RoundRobin;
  /// YieldWeighted: how many recent steps the witness-delta window
  /// covers.
  unsigned YieldWindow = 8;
  /// YieldWeighted: weight = 1 + YieldBoost * (window witness sum).
  unsigned YieldBoost = 4;
  /// The shared outcome cache, when one is configured — the scheduler
  /// snapshots its stats around steps for per-campaign attribution.
  std::shared_ptr<OutcomeCache> Cache;
};

/// The coordinator. Owns the grant loop and the accounting; the
/// backend and the tasks are caller-owned and must outlive it.
class CampaignScheduler {
public:
  CampaignScheduler(ExecBackend &Backend, SchedOptions Opts = {});

  /// Registers a campaign. All campaigns must be added before the
  /// first stepOnce(); names are display-only (stats, traces).
  ScheduledCampaign &add(std::string Name, CampaignTask &Task);

  /// Grants one step to the policy's pick among ready campaigns.
  /// Returns false when every campaign is done; throws
  /// std::logic_error when none is ready and some are not done (a
  /// campaign waiting on work no registered task produces).
  bool stepOnce();

  /// Runs stepOnce() until every campaign is done.
  void runToCompletion();

  ExecBackend &backend() { return Backend; }
  const SchedOptions &options() const { return Opts; }
  const std::vector<ScheduledCampaign> &campaigns() const {
    return Campaigns;
  }

  /// Campaign index per grant, in grant order — the allocation trace
  /// the policy tests and `--stats` fairness numbers read.
  const std::vector<size_t> &allocationTrace() const { return Trace; }

private:
  unsigned weightOf(const ScheduledCampaign &C) const;

  ExecBackend &Backend;
  SchedOptions Opts;
  SchedPolicy Policy;
  std::vector<ScheduledCampaign> Campaigns;
  std::vector<size_t> Trace;
};

} // namespace clfuzz

#endif // CLFUZZ_SCHED_CAMPAIGNSCHEDULER_H
