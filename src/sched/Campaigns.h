//===- Campaigns.h - Schedulable campaign task builders ---------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CampaignTask implementations for the five campaign types the
/// scheduler multiplexes — differential diff, hunt (with background
/// reduction and optional triage), EMI, witness reduction, and
/// witness triage — plus the ReductionQueue priority lane. A solo
/// command (`clfuzz hunt/diff/reduce/triage`) is a one-campaign
/// schedule built through these same factories as the campaigns of
/// `clfuzz sched`, so a campaign's report is byte-identical solo or
/// interleaved *by construction*; SchedulerConformanceTest
/// additionally pins it.
///
/// Every task writes its report to a caller-supplied FILE* (stdout
/// for the solo commands, a per-campaign stream under `clfuzz sched`)
/// and reports distinct-witness fingerprints (hashDescriptor of the
/// witness cell's job) for the YieldWeighted policy.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_SCHED_CAMPAIGNS_H
#define CLFUZZ_SCHED_CAMPAIGNS_H

#include "gen/Generator.h"
#include "oracle/ReductionQueue.h"
#include "sched/CampaignScheduler.h"

#include <cstdio>
#include <memory>
#include <string>

namespace clfuzz {

/// `clfuzz diff`: one kernel across the whole configuration zoo.
struct DiffSpec {
  GenOptions Gen;                 ///< mode / seed / EMI blocks
  std::string Format = "text";    ///< "text", "csv" or "jsonl"
};

/// `clfuzz hunt`: a differential mini-campaign over the
/// above-threshold configurations, optionally reducing witnesses in
/// the background.
struct HuntSpec {
  GenMode Mode = GenMode::All;
  /// The mode string as the user wrote it — echoed in the summary
  /// line's rerun hint.
  std::string ModeName = "ALL";
  uint64_t Seed = 1;
  unsigned Count = 20;
  std::string Format = "text";
  /// Submit wrong-code witnesses for background reduction (text
  /// format only).
  bool Reduce = false;
  /// Reduction tuning for --reduce (candidate budget, the backend the
  /// probes run on, dispatch priority, ...).
  ReducerOptions ReduceOpts;
  /// Unread; kept only because perfbench/ still assigns it.
  unsigned ReduceWorkers = 0;
  /// Buffer per-job JSONL traces and write them to this path after
  /// the drain ("" = no trace, "-" = stderr).
  std::string ReduceTracePath;
  /// Triage every reduced witness (pass bisection + bug clustering,
  /// src/triage/): each reduction job carries a TriageRequest and the
  /// drain report gains per-witness triage lines plus a distinct-bug
  /// summary. Requires Reduce.
  bool Triage = false;
  /// Write a machine-readable triage report here ("" = none,
  /// "-" = stderr) in TriageFormat.
  std::string TriageOut;
  /// "csv" or "jsonl" for TriageOut.
  std::string TriageFormat = "csv";
};

/// EMI campaign over the above-threshold configurations: usable bases
/// are collected per §7.4 (dead-array inversion must change the
/// reference result), then each base's 40 prune variants are swept
/// and voted per (config, opt) cell.
struct EmiSpec {
  unsigned Bases = 2;
  unsigned MinBlocks = 1;
  unsigned MaxBlocks = 3;
  uint64_t SeedBase = 100000;
};

/// `clfuzz reduce`: shrink one witness kernel.
struct ReduceSpec {
  GenOptions Gen;
  int ConfigId = 0;
  bool Opt = false;
  /// "wrong", "crash", "timeout" or "build-failure".
  std::string Expect = "wrong";
  /// Candidate evaluation tuning; set Opts.Backend to evaluate on a
  /// shared (scheduler-owned) backend.
  ReducerOptions Opts;
  std::string TracePath; ///< JSONL trace ("" = none, "-" = stderr)
};

/// `clfuzz triage`: reduce one wrong-code witness, then bisect the
/// optimisation pipeline and derive its cluster key (src/triage/).
struct TriageSpec {
  GenOptions Gen;
  int ConfigId = 0;
  bool Opt = false;
  /// Candidate/probe evaluation tuning; Opts.Backend (shared,
  /// scheduler-owned) and Opts.DispatchPriority flow through to the
  /// bisection probes unchanged.
  ReducerOptions Opts;
  /// "text", "csv" or "jsonl".
  std::string Format = "text";
};

/// Services a hunt's ReductionQueue: each step runs one queued
/// reduction to completion on the calling thread. Lives in the
/// Reduction lane, so the scheduler grants it slots ahead of every
/// foreground campaign while jobs are queued. The task is done when
/// \p Closed reports the producing campaign stopped submitting AND
/// the queue is fully drained.
class ReductionLaneTask final : public CampaignTask {
public:
  ReductionLaneTask(ReductionQueue &Queue, std::function<bool()> Closed)
      : Queue(Queue), Closed(std::move(Closed)) {}

  bool done() const override { return Closed() && !Queue.hasPending(); }
  bool ready() const override { return Queue.hasPending(); }
  void step() override {
    if (Queue.runNextPending())
      ++JobsRun;
  }
  SchedLane lane() const override { return SchedLane::Reduction; }
  size_t jobsDone() const override { return JobsRun; }

private:
  ReductionQueue &Queue;
  std::function<bool()> Closed;
  size_t JobsRun = 0;
};

/// A hunt campaign's moving parts, wired together by
/// makeHuntCampaign. Without reduction, only Main is set; with it,
/// Main + Queue + Lane (register BOTH tasks with the scheduler).
struct HuntCampaign {
  std::unique_ptr<ReductionQueue> Queue;
  std::unique_ptr<CampaignTask> Main;
  std::unique_ptr<CampaignTask> Lane;
};

/// Builds a diff campaign writing its report to \p Out.
std::unique_ptr<CampaignTask> makeDiffTask(const DiffSpec &Spec,
                                           ExecBackend &Backend,
                                           std::FILE *Out);

/// Builds a hunt campaign over \p Backend, sharding by \p ShardSize.
/// Spec.ReduceOpts decides where reductions evaluate; Out receives
/// the findings stream and the report.
HuntCampaign makeHuntCampaign(const HuntSpec &Spec, unsigned ShardSize,
                              ExecBackend &Backend, std::FILE *Out);

/// Builds an EMI campaign over \p Backend (above-threshold
/// configurations), sharding variants by \p ShardSize.
std::unique_ptr<CampaignTask> makeEmiTask(const EmiSpec &Spec,
                                          unsigned ShardSize,
                                          ExecBackend &Backend,
                                          std::FILE *Out);

/// Builds a reduce campaign. Whether candidates evaluate on a private
/// or a shared backend is Spec.Opts.Backend's choice; the report goes
/// to \p Out.
std::unique_ptr<CampaignTask> makeReduceTask(const ReduceSpec &Spec,
                                             std::FILE *Out);

/// Builds a triage campaign: one witness reduced then bisected, the
/// report (text line or csv/jsonl row) written to \p Out.
std::unique_ptr<CampaignTask> makeTriageTask(const TriageSpec &Spec,
                                             std::FILE *Out);

} // namespace clfuzz

#endif // CLFUZZ_SCHED_CAMPAIGNS_H
