//===- ReductionQueue.cpp - Witness reduction job store ----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "oracle/ReductionQueue.h"

#include <algorithm>

using namespace clfuzz;

bool ReductionQueue::runNextPending() {
  if (Pending.empty())
    return false;
  ReductionJob Job = std::move(Pending.front());
  Pending.pop_front();

  ReductionResult R;
  R.OrderKey = Job.OrderKey;
  R.Label = Job.Label;
  // Each job reduces on Opts.Backend when one is injected (the hunt's
  // campaign or reduce backend), else on one reduceTest builds from
  // Opts.Exec.
  ReducerOptions JobOpts = Opts;
  if (CaptureTrace)
    JobOpts.Trace = [&R, &Job](const ReduceTraceEvent &E) {
      R.Trace += renderReduceTraceJsonl(E, Job.Label);
    };
  try {
    R.Reduced = reduceTest(Job.Witness, *Job.Oracle, JobOpts, &R.Stats);
    if (Job.Triage) {
      // Bisection probes ride the job's own scheduling: same backend,
      // same dispatch priority, same run settings as the reduction's
      // candidate probes — cache- and remote-transparent by
      // construction.
      TriageOptions TO;
      TO.Exec = JobOpts.Exec;
      TO.Backend = JobOpts.Backend;
      TO.DispatchPriority = JobOpts.DispatchPriority;
      TO.Run = JobOpts.Run;
      R.Triage = triageWitness(R.Reduced, Job.Triage->Config,
                               Job.Triage->Opt, TO);
    }
  } catch (const std::exception &E) {
    // A reduction that dies (its backend failing to fork, or the
    // whole remote fleet unreachable) is one failed result, not a
    // dead hunt.
    R.Reduced = std::move(Job.Witness);
    R.Error = E.what();
  } catch (...) {
    R.Reduced = std::move(Job.Witness);
    R.Error = "unknown reduction failure";
  }
  Results.push_back(std::move(R));
  return true;
}

std::vector<ReductionResult> ReductionQueue::drain() {
  std::vector<ReductionResult> Out = std::move(Results);
  Results.clear();
  std::sort(Out.begin(), Out.end(),
            [](const ReductionResult &A, const ReductionResult &B) {
              return A.OrderKey != B.OrderKey ? A.OrderKey < B.OrderKey
                                              : A.Label < B.Label;
            });
  return Out;
}
