//===- ExecBackend.cpp - Pluggable campaign execution backends ---------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/ExecBackend.h"
#include "exec/OutcomeCache.h"
#include "exec/ProcessPool.h"
#include "exec/RemoteBackend.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace clfuzz;

ExecBackend::~ExecBackend() = default;

std::vector<RunOutcome>
ExecBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  // Flatten-and-delegate default: correct for every backend, used
  // as-is by the caching wrapper (per-cell cache keys) and the remote
  // backend (per-job wire protocol).
  std::vector<ExecJob> Flat;
  for (const ExecColumn &Col : Columns)
    Flat.insert(Flat.end(), Col.Jobs.begin(), Col.Jobs.end());
  return run(Flat);
}

std::vector<RunOutcome>
ExecBackend::runColumnsPrioritized(const std::vector<ExecColumn> &Columns,
                                   const std::vector<unsigned> &Priorities) {
  assert(Priorities.size() == Columns.size() &&
         "one priority per column");
  // Fast path: uniform priorities permute to the identity.
  bool Uniform = true;
  for (size_t I = 1; I < Priorities.size(); ++I)
    if (Priorities[I] != Priorities[0]) {
      Uniform = false;
      break;
    }
  if (Uniform)
    return runColumns(Columns);

  // Dispatch permutation: stable-sort column indices by priority
  // descending, so equal-priority columns keep submission order and
  // the permutation is a pure function of (Priorities) — deterministic
  // across runs and backends.
  std::vector<size_t> Order(Columns.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Priorities[A] > Priorities[B];
  });

  std::vector<ExecColumn> Permuted;
  Permuted.reserve(Columns.size());
  for (size_t I : Order)
    Permuted.push_back(Columns[I]);
  std::vector<RunOutcome> PermutedOut = runColumns(Permuted);

  // Scatter outcomes back to submission order: compute each original
  // column's flat offset, then copy its slice out of the permuted
  // result vector.
  std::vector<size_t> FlatStart(Columns.size() + 1, 0);
  for (size_t I = 0; I != Columns.size(); ++I)
    FlatStart[I + 1] = FlatStart[I] + Columns[I].Jobs.size();
  std::vector<RunOutcome> Results(FlatStart.back());
  size_t Cursor = 0;
  for (size_t I : Order) {
    size_t N = Columns[I].Jobs.size();
    for (size_t J = 0; J != N; ++J)
      Results[FlatStart[I] + J] = std::move(PermutedOut[Cursor + J]);
    Cursor += N;
  }
  return Results;
}

void ExecBackend::forEachIndex(size_t N,
                               const std::function<void(size_t)> &Body) {
  // Same exception contract as the thread pool: every index runs, the
  // first exception is rethrown after the batch drains — so a caller
  // that catches and continues sees identical side-effect state on
  // every backend.
  std::exception_ptr FirstError;
  for (size_t I = 0; I != N; ++I) {
    try {
      Body(I);
    } catch (...) {
      if (!FirstError)
        FirstError = std::current_exception();
    }
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
}

std::vector<RunOutcome>
InlineBackend::run(const std::vector<ExecJob> &Jobs) {
  std::vector<RunOutcome> Results;
  Results.reserve(Jobs.size());
  for (const ExecJob &Job : Jobs)
    Results.push_back(runExecJob(Job));
  return Results;
}

std::vector<RunOutcome>
InlineBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  std::vector<RunOutcome> Results;
  for (const ExecColumn &Col : Columns) {
    std::vector<RunOutcome> ColResults = runExecColumn(Col);
    Results.insert(Results.end(),
                   std::make_move_iterator(ColResults.begin()),
                   std::make_move_iterator(ColResults.end()));
  }
  return Results;
}

ThreadPoolBackend::ThreadPoolBackend(const ExecOptions &Opts)
    : Engine(Opts) {}

std::vector<RunOutcome>
ThreadPoolBackend::run(const std::vector<ExecJob> &Jobs) {
  // Campaign cells can be timeout-heavy (a cell may burn its whole
  // step budget), so the batch claims one index per lock acquisition.
  // Results are keyed by submission index, never completion order.
  std::vector<RunOutcome> Results(Jobs.size());
  Engine.forEachIndex(Jobs.size(),
                      [&](size_t I) { Results[I] = runExecJob(Jobs[I]); });
  return Results;
}

std::vector<RunOutcome>
ThreadPoolBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  // One pool index per column so the shared front end stays on one
  // worker; per-column results land in their own slot and flatten in
  // submission order, keeping output keyed by index as always. Columns
  // contain timeout-heavy cells, so claim one at a time (the default).
  std::vector<std::vector<RunOutcome>> Per(Columns.size());
  Engine.forEachIndex(Columns.size(),
                      [&](size_t I) { Per[I] = runExecColumn(Columns[I]); });
  std::vector<RunOutcome> Results;
  for (std::vector<RunOutcome> &ColResults : Per)
    Results.insert(Results.end(),
                   std::make_move_iterator(ColResults.begin()),
                   std::make_move_iterator(ColResults.end()));
  return Results;
}

void ThreadPoolBackend::forEachIndex(
    size_t N, const std::function<void(size_t)> &Body) {
  // Generation-side work is cheap and uniform; claim chunks to cut
  // queue lock traffic.
  Engine.forEachIndex(N, Body, ExecutionEngine::CheapClaimChunk);
}

std::unique_ptr<ExecBackend> clfuzz::makeBackend(const ExecOptions &Opts) {
  std::unique_ptr<ExecBackend> Backend;
  switch (Opts.Backend) {
  case BackendKind::Inline:
    Backend = std::make_unique<InlineBackend>();
    break;
  case BackendKind::Threads:
    Backend = std::make_unique<ThreadPoolBackend>(Opts);
    break;
  case BackendKind::Procs:
    Backend = makeProcessPoolBackend(Opts);
    break;
  case BackendKind::Remote:
    Backend = makeRemoteBackend(Opts);
    break;
  }
  if (!Backend)
    Backend = std::make_unique<InlineBackend>();
  // With a cache configured, every backend is consulted
  // content-addressed: identical descriptors are served from cache or
  // coalesced within the batch instead of re-executing.
  return wrapWithOutcomeCache(std::move(Backend), Opts.Cache);
}
