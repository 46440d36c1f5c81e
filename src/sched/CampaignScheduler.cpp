//===- CampaignScheduler.cpp - N campaigns over one shared backend -----------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sched/CampaignScheduler.h"

#include "vm/VM.h"

#include <stdexcept>

using namespace clfuzz;

CampaignTask::~CampaignTask() = default;

void clfuzz::runCampaignTask(CampaignTask &Task) {
  while (!Task.done()) {
    if (!Task.ready())
      throw std::logic_error("campaign stalled: not ready and not done");
    Task.step();
  }
}

CampaignScheduler::CampaignScheduler(ExecBackend &Backend, SchedOptions Opts)
    : Backend(Backend), Opts(Opts), Policy(Opts.Policy) {}

ScheduledCampaign &CampaignScheduler::add(std::string Name,
                                          CampaignTask &Task) {
  ScheduledCampaign C;
  C.Name = std::move(Name);
  C.Task = &Task;
  Campaigns.push_back(std::move(C));
  return Campaigns.back();
}

unsigned CampaignScheduler::weightOf(const ScheduledCampaign &C) const {
  // Weight floor of 1 keeps barren campaigns scheduled (no absolute
  // starvation); recent distinct witnesses boost the share.
  size_t WindowSum = 0;
  for (size_t D : C.RecentYields)
    WindowSum += D;
  return static_cast<unsigned>(1 + Opts.YieldBoost * WindowSum);
}

bool CampaignScheduler::stepOnce() {
  // Ready set, with the Reduction lane preempting: whenever any
  // reduction-lane campaign is ready, only lane campaigns are
  // candidates this grant — queued reductions can't starve behind a
  // busy foreground campaign.
  std::vector<size_t> Candidates;
  bool LaneReady = false;
  bool AllDone = true;
  for (size_t I = 0; I != Campaigns.size(); ++I) {
    CampaignTask &T = *Campaigns[I].Task;
    if (T.done())
      continue;
    AllDone = false;
    if (!T.ready())
      continue;
    if (T.lane() == SchedLane::Reduction && !LaneReady) {
      LaneReady = true;
      Candidates.clear();
    }
    if (T.lane() == SchedLane::Reduction || !LaneReady)
      Candidates.push_back(I);
  }
  if (AllDone)
    return false;
  // Every live campaign waits on another's progress: unreachable
  // when each hunt's reduction lane is registered (the lane is ready
  // whenever the hunt waits on its queue), so a stall is a wiring bug.
  if (Candidates.empty())
    throw std::logic_error("scheduler stalled: no campaign ready or done");

  std::vector<unsigned> Weights;
  Weights.reserve(Candidates.size());
  for (size_t I : Candidates)
    Weights.push_back(weightOf(Campaigns[I]));
  size_t Picked = Policy.pick(Candidates, Weights);
  ScheduledCampaign &C = Campaigns[Picked];

  // Serialized steps make attribution exact: every cache lookup,
  // compile phase and VM launch between the snapshots belongs to this
  // campaign's step.
  OutcomeCacheStats Cache0;
  if (Opts.Cache)
    Cache0 = Opts.Cache->stats();
  VmCounters Vm0 = vmCounters();
  CompileCounters Cc0 = compileCounters();
  TriageCounters Tr0 = triageCounters();
  FleetCounters Fl0 = fleetCounters();
  size_t Witness0 = C.Task->distinctWitnesses();

  C.Task->step();

  if (Opts.Cache) {
    OutcomeCacheStats Cache1 = Opts.Cache->stats();
    C.Stats.Cache.Hits += Cache1.Hits - Cache0.Hits;
    C.Stats.Cache.Misses += Cache1.Misses - Cache0.Misses;
    C.Stats.Cache.Coalesced += Cache1.Coalesced - Cache0.Coalesced;
    C.Stats.Cache.DiskHits += Cache1.DiskHits - Cache0.DiskHits;
    C.Stats.Cache.BadEntries += Cache1.BadEntries - Cache0.BadEntries;
  }
  VmCounters Vm1 = vmCounters();
  C.Stats.VmInstructions += Vm1.Instructions - Vm0.Instructions;
  C.Stats.VmFused += Vm1.FusedExecuted - Vm0.FusedExecuted;
  C.Stats.VmLaunches += Vm1.Launches - Vm0.Launches;
  C.Stats.VmEngineReuses += Vm1.EngineReuses - Vm0.EngineReuses;
  CompileCounters Cc1 = compileCounters();
  C.Stats.Compile.Parses += Cc1.Parses - Cc0.Parses;
  C.Stats.Compile.ParseNs += Cc1.ParseNs - Cc0.ParseNs;
  C.Stats.Compile.Semas += Cc1.Semas - Cc0.Semas;
  C.Stats.Compile.SemaNs += Cc1.SemaNs - Cc0.SemaNs;
  C.Stats.Compile.Clones += Cc1.Clones - Cc0.Clones;
  C.Stats.Compile.CloneNs += Cc1.CloneNs - Cc0.CloneNs;
  C.Stats.Compile.Opts += Cc1.Opts - Cc0.Opts;
  C.Stats.Compile.OptNs += Cc1.OptNs - Cc0.OptNs;
  C.Stats.Compile.Codegens += Cc1.Codegens - Cc0.Codegens;
  C.Stats.Compile.CodegenNs += Cc1.CodegenNs - Cc0.CodegenNs;
  C.Stats.Compile.Execs += Cc1.Execs - Cc0.Execs;
  C.Stats.Compile.ExecNs += Cc1.ExecNs - Cc0.ExecNs;
  TriageCounters Tr1 = triageCounters();
  C.Stats.Triage.Witnesses += Tr1.Witnesses - Tr0.Witnesses;
  C.Stats.Triage.Probes += Tr1.Probes - Tr0.Probes;
  C.Stats.Triage.Clusters += Tr1.Clusters - Tr0.Clusters;
  FleetCounters Fl1 = fleetCounters();
  C.Stats.Fleet.Joins += Fl1.Joins - Fl0.Joins;
  C.Stats.Fleet.Leaves += Fl1.Leaves - Fl0.Leaves;
  C.Stats.Fleet.Evictions += Fl1.Evictions - Fl0.Evictions;
  C.Stats.Fleet.Redials += Fl1.Redials - Fl0.Redials;
  C.Stats.Fleet.Requeues += Fl1.Requeues - Fl0.Requeues;

  ++C.Stats.Steps;
  C.Stats.Tests = C.Task->testsDone();
  C.Stats.Jobs = C.Task->jobsDone();
  C.Stats.Witnesses = C.Task->distinctWitnesses();
  C.RecentYields.push_back(C.Stats.Witnesses - Witness0);
  while (C.RecentYields.size() > Opts.YieldWindow)
    C.RecentYields.pop_front();
  Trace.push_back(Picked);
  return true;
}

void CampaignScheduler::runToCompletion() {
  while (stepOnce())
    ;
}
