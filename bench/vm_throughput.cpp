//===- vm_throughput.cpp - Uncached campaign-cell throughput -------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// Measures **uncached cells/sec** — the number the VM fast path
/// (docs/vm.md) exists to move. The workload is the same campaign
/// column shape as cache_throughput.cpp (N kernels × the paper's
/// above-threshold configuration columns, a reference run plus an
/// optimised configuration run per column), executed with no outcome
/// cache through `runColumns(groupIntoColumns(...))` — exactly the
/// path `runShardedCampaign` drives — so dispatch strategy,
/// superinstruction fusion, per-thread engine reuse, column front-end
/// sharing and the column launch memo (each distinct device binary
/// runs once per column; every column repeats the same reference run)
/// all contribute.
///
/// Phases: {switch, goto} dispatch × {serial inline, thread pool}.
/// Every phase is checked outcome-identical to the first (the knobs
/// must change wall-clock only), and per-phase VM counter deltas
/// (instructions, fused dispatches, launches, engine reuses, launches
/// the memo served) are reported.
///
/// Emits machine-readable `BENCH_vm.json`, including the frozen
/// pre-fast-path baseline measured at the seed commit on this same
/// workload (8 kernels, seed 100000, 160 cells: 78.1 cells/sec
/// serial, 79.1 with the thread backend) — the committed copy lives
/// at bench/BENCH_vm.json.
///
///   --kernels=N   kernels in the campaign (default 8)
///   --threads=N   workers for the thread-pool phases (default 4)
///   --seed=N      campaign seed base (default 100000)
///   --json=PATH   where to write BENCH_vm.json (default: CWD)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "device/DeviceConfig.h"
#include "gen/Generator.h"
#include "vm/VM.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace clfuzz;
using namespace clfuzz::bench;

namespace {

/// The seed-commit numbers for this exact workload (8 kernels, seed
/// 100000, 160 cells), kept in the JSON so trend tooling and the PR
/// acceptance check (>= 3x serial) need no second measurement.
constexpr double BaselineSerialCps = 78.1;
constexpr double BaselineThreadsCps = 79.1;

struct Phase {
  std::string Dispatch; ///< "switch" | "goto"
  std::string Sched;    ///< "serial" | "threads"
  double Seconds = 0.0;
  double CellsPerSec = 0.0;
  VmCounters Delta; ///< this process's VM counter movement
};

VmCounters counterDelta(const VmCounters &After, const VmCounters &Before) {
  VmCounters D;
  D.Instructions = After.Instructions - Before.Instructions;
  D.FusedExecuted = After.FusedExecuted - Before.FusedExecuted;
  D.Launches = After.Launches - Before.Launches;
  D.EngineReuses = After.EngineReuses - Before.EngineReuses;
  D.SharedLaunches = After.SharedLaunches - Before.SharedLaunches;
  return D;
}

bool sameOutcomes(const std::vector<RunOutcome> &A,
                  const std::vector<RunOutcome> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Status != B[I].Status || A[I].OutputHash != B[I].OutputHash ||
        A[I].Message != B[I].Message || A[I].Steps != B[I].Steps ||
        A[I].OutputHead != B[I].OutputHead)
      return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Peel off --json= (harness-local) before the shared flag parser
  // sees it.
  std::string JsonPath = "BENCH_vm.json";
  std::vector<char *> Rest = {Argv[0]};
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else
      Rest.push_back(Argv[I]);
  }
  HarnessArgs Args = parseArgs(static_cast<int>(Rest.size()), Rest.data());
  unsigned Kernels = Args.Kernels ? Args.Kernels : 8;
  unsigned Threads = Args.Threads > 1 ? Args.Threads : 4;

  // The campaign column workload, byte-for-byte the cache bench's:
  // per kernel, each above-threshold column carries the shared
  // reference run plus its own optimised configuration run.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Columns;
  for (int Id : paperAboveThresholdIds())
    Columns.push_back(configById(Registry, Id));

  std::vector<TestCase> Tests;
  for (unsigned K = 0; K != Kernels; ++K) {
    GenOptions GO;
    GO.Mode = GenMode::All;
    GO.Seed = Args.Seed + K;
    Tests.push_back(TestCase::fromGenerated(generateKernel(GO)));
  }
  std::vector<ExecJob> Jobs;
  for (const TestCase &T : Tests)
    for (const DeviceConfig &C : Columns) {
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/false, RunSettings()));
      Jobs.push_back(ExecJob::onConfig(T, C, /*Opt=*/true, RunSettings()));
    }

  std::vector<VmDispatch> Dispatches = {VmDispatch::Switch};
  if (vmHasGotoDispatch())
    Dispatches.push_back(VmDispatch::Goto);
  else
    std::fprintf(stderr,
                 "note: computed-goto dispatch not compiled in; "
                 "measuring switch only\n");

  std::printf("vm throughput: %u kernels x %zu columns = %zu cells, "
              "uncached, fusion=%s, threads phase = %u workers\n\n",
              Kernels, Columns.size(), Jobs.size(),
              vmFusionEnabled() ? "on" : "off", Threads);
  std::printf("%-8s %-8s %10s %14s %16s %12s %10s %10s  %s\n",
              "dispatch", "sched", "seconds", "cells/sec", "instructions",
              "fused", "reuses", "shared", "result");
  printRule();

  VmDispatch SavedDispatch = vmDispatchMode();
  std::vector<RunOutcome> First;
  std::vector<Phase> Phases;
  bool AllIdentical = true;

  for (VmDispatch D : Dispatches) {
    setVmDispatchMode(D);
    for (bool Parallel : {false, true}) {
      ExecOptions E = ExecOptions::withThreads(Parallel ? Threads : 1);
      E.Backend = Parallel ? BackendKind::Threads : BackendKind::Inline;
      E.Cache = nullptr; // uncached by definition
      std::unique_ptr<ExecBackend> Backend = makeBackend(E);

      VmCounters Before = vmCounters();
      auto Start = std::chrono::steady_clock::now();
      std::vector<RunOutcome> Outs =
          Backend->runColumns(groupIntoColumns(Jobs));
      std::chrono::duration<double> Elapsed =
          std::chrono::steady_clock::now() - Start;

      Phase P;
      P.Dispatch = vmDispatchName(D);
      P.Sched = Parallel ? "threads" : "serial";
      P.Seconds = Elapsed.count();
      P.CellsPerSec = static_cast<double>(Jobs.size()) / P.Seconds;
      P.Delta = counterDelta(vmCounters(), Before);

      if (First.empty())
        First = std::move(Outs);
      else if (!sameOutcomes(First, Outs))
        AllIdentical = false;

      std::printf(
          "%-8s %-8s %10.3f %14.1f %16llu %12llu %10llu %10llu  %s\n",
          P.Dispatch.c_str(), P.Sched.c_str(), P.Seconds, P.CellsPerSec,
          static_cast<unsigned long long>(P.Delta.Instructions),
          static_cast<unsigned long long>(P.Delta.FusedExecuted),
          static_cast<unsigned long long>(P.Delta.EngineReuses),
          static_cast<unsigned long long>(P.Delta.SharedLaunches),
          Phases.empty() ? "baseline for identity"
                         : (AllIdentical ? "identical" : "MISMATCH"));
      Phases.push_back(std::move(P));
    }
  }
  setVmDispatchMode(SavedDispatch);

  // Best serial / threaded numbers drive the headline speedups.
  double BestSerial = 0.0, BestThreads = 0.0;
  for (const Phase &P : Phases)
    (P.Sched == "serial" ? BestSerial : BestThreads) =
        std::max(P.Sched == "serial" ? BestSerial : BestThreads,
                 P.CellsPerSec);
  double SerialSpeedup = BestSerial / BaselineSerialCps;
  double ThreadsSpeedup = BestThreads / BaselineThreadsCps;
  std::printf("\nvs seed baseline: serial %.1f -> %.1f cells/sec "
              "(%.2fx), threads %.1f -> %.1f (%.2fx)  "
              "(acceptance target: >= 3x serial)\n",
              BaselineSerialCps, BestSerial, SerialSpeedup,
              BaselineThreadsCps, BestThreads, ThreadsSpeedup);

  std::FILE *J = std::fopen(JsonPath.c_str(), "w");
  if (!J) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  std::fprintf(J,
               "{\"bench\":\"vm_throughput\",\"kernels\":%u,"
               "\"columns\":%zu,\"cells\":%zu,\"threads\":%u,"
               "\"fusion\":%s,\"goto_available\":%s,"
               "\"baseline\":{\"serial_cells_per_sec\":%.1f,"
               "\"threads_cells_per_sec\":%.1f},\"phases\":[",
               Kernels, Columns.size(), Jobs.size(), Threads,
               vmFusionEnabled() ? "true" : "false",
               vmHasGotoDispatch() ? "true" : "false", BaselineSerialCps,
               BaselineThreadsCps);
  for (size_t I = 0; I != Phases.size(); ++I) {
    const Phase &P = Phases[I];
    std::fprintf(J,
                 "%s{\"dispatch\":\"%s\",\"sched\":\"%s\","
                 "\"seconds\":%.6f,\"cells_per_sec\":%.1f,"
                 "\"instructions\":%llu,\"fused\":%llu,"
                 "\"launches\":%llu,\"engine_reuses\":%llu,"
                 "\"launches_shared\":%llu}",
                 I ? "," : "", P.Dispatch.c_str(), P.Sched.c_str(),
                 P.Seconds, P.CellsPerSec,
                 static_cast<unsigned long long>(P.Delta.Instructions),
                 static_cast<unsigned long long>(P.Delta.FusedExecuted),
                 static_cast<unsigned long long>(P.Delta.Launches),
                 static_cast<unsigned long long>(P.Delta.EngineReuses),
                 static_cast<unsigned long long>(P.Delta.SharedLaunches));
  }
  std::fprintf(J,
               "],\"serial_speedup_vs_baseline\":%.2f,"
               "\"threads_speedup_vs_baseline\":%.2f,"
               "\"identical\":%s}\n",
               SerialSpeedup, ThreadsSpeedup,
               AllIdentical ? "true" : "false");
  std::fclose(J);
  std::printf("wrote %s\n", JsonPath.c_str());

  return AllIdentical ? 0 : 1;
}
