//===- ReductionQueue.h - Witness reduction job store -----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job store behind witness reduction: wrong-code witnesses are
/// shrunk while the campaign that found them keeps hunting, because
/// reduction is just another scheduled workload over the shared
/// backend machinery, not a blocking epilogue. A hunt submits every
/// witness here; its ReductionLaneTask (sched/Campaigns.h) runs one
/// job per scheduler grant via runNextPending(), on the scheduler's
/// thread and in the Reduction lane, so jobs never run concurrently
/// with each other or with a campaign shard. That is what makes
/// ReducerOptions::Backend safe to point at the campaign's backend, or
/// at a dedicated one (`--reduce-backend=procs` fork-isolates crashy
/// candidates; `remote` farms the probes to the `clfuzz worker`
/// fleet, exec/RemoteBackend.h). A backend failure (the whole fleet
/// unreachable, say) is contained: it surfaces as that job's
/// ReductionResult::Error, never as a dead campaign.
/// docs/reduction.md documents the full design.
///
/// Determinism: each job's reduction is bit-identical whichever
/// backend runs it and whenever (reduceTest's contract), and drain()
/// returns results sorted by (OrderKey, Label) - so a hunt's report is
/// byte-identical however the reductions interleave with the hunt.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_ORACLE_REDUCTIONQUEUE_H
#define CLFUZZ_ORACLE_REDUCTIONQUEUE_H

#include "oracle/Reducer.h"
#include "triage/Triage.h"

#include <deque>
#include <memory>
#include <optional>

namespace clfuzz {

/// Asks the queue to triage the reduced witness after reduction
/// succeeds (src/triage/): bisection probes ride the job's own
/// scheduling — the job's backend, priority and run settings.
struct TriageRequest {
  DeviceConfig Config; ///< the configuration the witness misbehaves on
  bool Opt = false;    ///< the misbehaving opt level
};

/// One witness awaiting reduction.
struct ReductionJob {
  /// Primary sort key for deterministic drain order (hunt uses the
  /// witness's test index).
  uint64_t OrderKey = 0;
  /// Human-readable witness tag ("seed 102 config 12+"); secondary
  /// sort key and the trace's "job" field.
  std::string Label;
  TestCase Witness;
  std::shared_ptr<const ReductionOracle> Oracle;
  /// When set, the reduced witness is triaged in the same job
  /// (`hunt --reduce --triage`, `clfuzz triage`).
  std::optional<TriageRequest> Triage;
};

/// A finished reduction.
struct ReductionResult {
  uint64_t OrderKey = 0;
  std::string Label;
  TestCase Reduced;
  ReduceStats Stats;
  /// The triage verdict, when the job requested one and reduction
  /// succeeded.
  std::optional<TriageResult> Triage;
  /// The job's JSONL trace (only when the queue captures traces).
  std::string Trace;
  /// Non-empty when the reduction aborted (e.g. its backend failed);
  /// Reduced is then the unreduced witness. A failed job never takes
  /// the campaign down.
  std::string Error;
};

/// A FIFO of witnesses awaiting reduction, run one job at a time by
/// whoever drives it (the scheduler's reduction lane).
class ReductionQueue {
public:
  /// Jobs reduce with \p Opts. When \p CaptureTrace is set, each
  /// job's JSONL trace is buffered and returned with its result (any
  /// ReducerOptions::Trace in \p Opts is replaced).
  explicit ReductionQueue(ReducerOptions Opts, bool CaptureTrace = false)
      : Opts(std::move(Opts)), CaptureTrace(CaptureTrace) {}

  /// Enqueues a witness; returns immediately.
  void submit(ReductionJob Job) { Pending.push_back(std::move(Job)); }

  /// True while at least one submitted job has not run yet.
  bool hasPending() const { return !Pending.empty(); }

  /// Runs the oldest pending job to completion on the calling thread;
  /// returns false if nothing was pending.
  bool runNextPending();

  /// Returns every result finished since the last drain, sorted by
  /// (OrderKey, Label). Jobs still pending are not run.
  std::vector<ReductionResult> drain();

private:
  ReducerOptions Opts;
  bool CaptureTrace;
  std::deque<ReductionJob> Pending;
  std::vector<ReductionResult> Results;
};

} // namespace clfuzz

#endif // CLFUZZ_ORACLE_REDUCTIONQUEUE_H
