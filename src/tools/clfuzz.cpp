//===- clfuzz.cpp - Command-line front end --------------------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// The command-line driver (the analogue of the CLsmith/cl_launcher
/// pair the paper ships):
///
///   clfuzz gen    --mode=ALL --seed=N [--emi=K]   print a kernel
///   clfuzz run    --seed=N --config=ID [--opt]    run one kernel
///   clfuzz diff   --seed=N                        run on the whole zoo
///   clfuzz hunt   --mode=M --count=N              mini campaign
///   clfuzz reduce --seed=N --config=ID            shrink a witness
///   clfuzz triage --seed=N --config=ID            reduce, then bisect the
///                                                 pass pipeline + cluster
///   clfuzz sched  --campaigns=SPEC                N campaigns, one fleet
///   clfuzz worker --listen=PORT                   serve remote campaigns
///   clfuzz worker --connect=HOST:PORT             dial a coordinator's
///                                                 fleet registry instead
///                                                 (rendezvous mode,
///                                                 docs/fleet.md)
///   clfuzz configs                                list the zoo
///
/// `diff` and `hunt` run their campaign cells through the streaming
/// pipeline API and accept:
///
///   --backend=inline|threads|procs|remote  execution backend (procs
///                                    runs cells in crash-isolated
///                                    worker subprocesses; remote
///                                    farms them to `clfuzz worker`
///                                    processes over TCP)
///   --exec-threads=N                 workers (1 = serial, 0 = all
///                                    cores)
///   --workers=host:port,...          the worker fleet (remote only)
///   --shard-size=N                   kernels generated/held per shard
///   --format=text|csv|jsonl          hunt/diff report format
///   --cache=off|mem|disk             content-addressed outcome cache
///                                    (docs/caching.md); identical job
///                                    descriptors are served from
///                                    cache instead of re-executing,
///                                    with byte-identical output
///   --cache-dir=DIR                  disk store (implies --cache=disk)
///   --cache-mem-mb=N                 in-memory cache budget
///   --stats                          campaign counters on stderr
///                                    (cache_hits/cache_misses/
///                                    coalesced, a vm_* line: dispatch
///                                    mode, instructions, fused
///                                    dispatches, launches, engine
///                                    reuses, and a compile_* line:
///                                    per-phase parse/sema/clone/opt/
///                                    codegen/exec counts and ns)
///
/// Every command also accepts --vm-dispatch=switch|goto to pick the
/// interpreter's dispatch strategy (docs/vm.md) and
/// --compile-clone=on|off to toggle clone-based front-end sharing
/// (docs/compile-pipeline.md); output is byte-identical either way,
/// only wall-clock speed changes.
///
/// Triage (src/triage/, docs/triage.md) is post-reduction analysis:
/// `hunt --reduce --triage` bisects each reduced witness over the
/// optimisation pass pipeline to name the minimal faulty pass
/// combination and clusters witnesses by (pass set, kernel-feature
/// signature), reporting distinct-bug counts alongside raw witness
/// counts; `clfuzz triage` does the same for one witness. Bisection
/// probes are ordinary jobs — cached, remoted and prioritized like
/// any other — and the triage report is byte-identical across
/// backends, worker counts and cache states.
///
/// Reduction is a pipeline workload too: `reduce` evaluates its
/// speculative candidates on --reduce-backend with --reduce-jobs
/// workers (procs fork-isolates crashy candidates; remote farms them
/// to the worker fleet), and `hunt --reduce` queues every wrong-code
/// witness for a reduction lane that shrinks it between the hunt's
/// shards, on the campaign's backend or on --reduce-backend. Findings
/// and reductions are identical for every backend, worker count and
/// shard size. docs/architecture.md, docs/wire-protocol.md and
/// docs/reduction.md specify all of this.
///
/// `sched` multiplexes N of these campaigns over one shared backend
/// (src/sched/, docs/scheduler.md); a solo command is the same
/// schedule with one campaign, so each campaign's report is
/// byte-identical solo or interleaved, and `sched --stats` breaks
/// every counter down per campaign.
///
//===----------------------------------------------------------------------===//

#include "device/CompileCounters.h"
#include "device/DeviceConfig.h"
#include "device/Driver.h"
#include "exec/FleetRegistry.h"
#include "exec/OutcomeCache.h"
#include "exec/Pipeline.h"
#include "exec/RemoteBackend.h"
#include "exec/WorkerLoop.h"
#include "gen/Generator.h"
#include "oracle/Oracle.h"
#include "sched/CampaignScheduler.h"
#include "sched/CampaignSpec.h"
#include "sched/Campaigns.h"
#include "support/StringUtil.h"
#include "triage/Triage.h"
#include "vm/VM.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

using namespace clfuzz;

namespace {

struct CliArgs {
  std::string Command;
  std::map<std::string, std::string> Options;

  bool has(const std::string &Key) const { return Options.count(Key); }
  std::string get(const std::string &Key,
                  const std::string &Default = "") const {
    auto It = Options.find(Key);
    return It == Options.end() ? Default : It->second;
  }
  uint64_t getInt(const std::string &Key, uint64_t Default) const {
    auto It = Options.find(Key);
    return It == Options.end()
               ? Default
               : static_cast<uint64_t>(std::atoll(It->second.c_str()));
  }
};

CliArgs parse(int Argc, char **Argv) {
  CliArgs A;
  if (Argc > 1)
    A.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string S = Argv[I];
    if (S.rfind("--", 0) != 0)
      continue;
    size_t Eq = S.find('=');
    if (Eq == std::string::npos)
      A.Options[S.substr(2)] = "1";
    else
      A.Options[S.substr(2, Eq - 2)] = S.substr(Eq + 1);
  }
  return A;
}

GenMode modeByName(const std::string &Name) {
  for (unsigned M = 0; M != NumGenModes; ++M) {
    std::string N = genModeName(static_cast<GenMode>(M));
    std::string Compact;
    for (char C : N)
      if (C != ' ')
        Compact += C;
    if (Name == N || Name == Compact)
      return static_cast<GenMode>(M);
  }
  std::fprintf(stderr, "unknown mode '%s' (use BASIC, VECTOR, BARRIER, "
                       "ATOMICSECTION, ATOMICREDUCTION or ALL)\n",
               Name.c_str());
  std::exit(1);
}

GenOptions genOptionsFrom(const CliArgs &A) {
  GenOptions GO;
  GO.Mode = modeByName(A.get("mode", "ALL"));
  GO.Seed = A.getInt("seed", 1);
  GO.NumEmiBlocks = static_cast<unsigned>(A.getInt("emi", 0));
  return GO;
}

int cmdGen(const CliArgs &A) {
  GeneratedKernel K = generateKernel(genOptionsFrom(A));
  std::printf("// mode: %s, seed: %llu\n", genModeName(K.Mode),
              static_cast<unsigned long long>(K.Seed));
  std::printf("// NDRange: global (%u,%u,%u) local (%u,%u,%u)\n",
              K.Range.Global[0], K.Range.Global[1], K.Range.Global[2],
              K.Range.Local[0], K.Range.Local[1], K.Range.Local[2]);
  for (size_t I = 0; I != K.Buffers.size(); ++I)
    std::printf("// arg %zu: %s buffer, %zu bytes%s%s\n", I,
                addressSpaceName(K.Buffers[I].Space),
                K.Buffers[I].InitBytes.size(),
                K.Buffers[I].IsOutput ? " (output)" : "",
                K.Buffers[I].IsDeadArray ? " (EMI dead array)" : "");
  std::printf("\n%s", K.Source.c_str());
  return 0;
}

int cmdConfigs() {
  std::printf("%-5s %-34s %-12s %-18s %s\n", "id", "device", "type",
              "driver", "paper classification");
  for (const DeviceConfig &C : buildConfigRegistry())
    std::printf("%-5d %-34s %-12s %-18s %s\n", C.Id, C.Device.c_str(),
                C.typeName(), C.Driver.c_str(),
                C.PaperAboveThreshold ? "above threshold"
                                      : "below threshold");
  return 0;
}

void printCacheStats(const CliArgs &A, const ExecOptions &Opts,
                     const char *Campaign);

int cmdRun(const CliArgs &A) {
  TestCase T = TestCase::fromGenerated(generateKernel(genOptionsFrom(A)));
  int ConfigId = static_cast<int>(A.getInt("config", 0));
  bool Opt = A.has("opt");
  RunOutcome O;
  if (ConfigId == 0) {
    O = runTestOnReference(T, Opt);
    std::printf("reference%c: ", Opt ? '+' : '-');
  } else {
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    O = runTestOnConfig(T, configById(Zoo, ConfigId), Opt);
    std::printf("config %d%c: ", ConfigId, Opt ? '+' : '-');
  }
  std::printf("%s", runStatusName(O.Status));
  if (O.ok()) {
    std::printf("  output-hash=%s  out[0..%zu]=", toHex(O.OutputHash).c_str(),
                O.OutputHead.size());
    for (uint64_t W : O.OutputHead)
      std::printf(" %s", toHex(W).c_str());
  } else {
    std::printf("  (%s)", O.Message.c_str());
  }
  std::printf("\n");
  printCacheStats(A, ExecOptions(), "run");
  return O.ok() ? 0 : 1;
}

/// Validated --format value for diff/hunt ("text", "csv" or "jsonl").
std::string reportFormatFrom(const CliArgs &A) {
  std::string Format = A.get("format", "text");
  if (Format != "text" && Format != "csv" && Format != "jsonl") {
    std::fprintf(stderr,
                 "unknown format '%s' (use text, csv or jsonl)\n",
                 Format.c_str());
    std::exit(1);
  }
  return Format;
}

/// Validated --triage-format value ("csv" or "jsonl") for the
/// machine-readable triage sink (--triage-out).
std::string triageFormatFrom(const CliArgs &A) {
  std::string Format = A.get("triage-format", "csv");
  if (Format != "csv" && Format != "jsonl") {
    std::fprintf(stderr,
                 "unknown triage format '%s' (use csv or jsonl)\n",
                 Format.c_str());
    std::exit(1);
  }
  return Format;
}

/// Copies the remote-fleet options into \p Opts and validates that a
/// remote backend actually has workers to dial. \p WorkersKey lets
/// `hunt --reduce` keep separate fleets for the campaign
/// (--workers) and the background reductions (--reduce-workers).
void applyRemoteOptions(const CliArgs &A, ExecOptions &Opts,
                        const std::string &WorkersKey) {
  std::string Workers = A.get(WorkersKey, A.get("workers"));
  Opts.RemoteWorkers = splitWorkerList(Workers);
  Opts.RemoteTimeoutMs = static_cast<unsigned>(
      A.getInt("remote-timeout-ms", Opts.RemoteTimeoutMs));
  Opts.RemoteHeartbeatMs = static_cast<unsigned>(
      A.getInt("remote-heartbeat-ms", Opts.RemoteHeartbeatMs));
  // --fleet-listen opens a rendezvous registry on the campaign
  // backend (wired in execOptionsFrom), so a remote campaign may
  // start with no static workers at all and be populated entirely by
  // `clfuzz worker --connect=` joins.
  if (Opts.Backend == BackendKind::Remote && Opts.RemoteWorkers.empty() &&
      !A.has("fleet-listen")) {
    std::fprintf(stderr,
                 "the remote backend needs --workers=host:port,... "
                 "(start workers with `clfuzz worker --listen=PORT`) or "
                 "--fleet-listen=PORT for rendezvous workers\n");
    std::exit(1);
  }
}

/// Parses the outcome-cache flags and attaches the cache to \p Opts.
/// `--cache-dir=` without an explicit `--cache=` implies disk mode.
/// Exits with a message on a bad mode or an unusable directory.
void applyCacheOptions(const CliArgs &A, ExecOptions &Opts) {
  OutcomeCacheOptions CO;
  std::string Mode = A.get("cache", A.has("cache-dir") ? "disk" : "off");
  if (!parseCacheMode(Mode, CO.Mode)) {
    std::fprintf(stderr, "unknown cache mode '%s' (use off, mem or disk)\n",
                 Mode.c_str());
    std::exit(1);
  }
  CO.Dir = A.get("cache-dir");
  if (CO.Mode == CacheMode::Disk && CO.Dir.empty()) {
    std::fprintf(stderr, "--cache=disk needs --cache-dir=DIR\n");
    std::exit(1);
  }
  if (A.has("cache-mem-mb"))
    CO.MemBudgetBytes =
        static_cast<size_t>(A.getInt("cache-mem-mb", 64)) << 20;
  CO.KeySalt = cacheKeySalt(Opts);
  try {
    Opts.Cache = makeOutcomeCache(CO);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "%s\n", E.what());
    std::exit(1);
  }
}

/// The --stats epilogue: campaign output never changes with the cache
/// or the interpreter's tuning, so the counters go to stderr, on their
/// own lines, only when asked for. Every line is tagged with the
/// campaign it covers (`campaign=hunt`, or the per-campaign names
/// under `clfuzz sched`; `campaign=total` sums a sched run). The vm_*
/// counters cover launches this process executed — under procs/remote
/// backends the workers keep their own (the coordinator's line then
/// reports 0 launches).
/// One `compile_*` breakdown line: the per-phase compile profiler
/// (device/CompileCounters.h) for \p Campaign. The same formatter
/// serves the global counters and the scheduler's per-campaign deltas,
/// so the per-campaign lines sum field-by-field to the campaign=total
/// line (pinned by SchedulerConformanceTest).
void printCompileLine(const char *Campaign, const CompileCounters &C) {
  std::fprintf(
      stderr,
      "campaign=%s compile_clone=%s compile_parses=%llu "
      "compile_parse_ns=%llu compile_semas=%llu compile_sema_ns=%llu "
      "compile_clones=%llu compile_clone_ns=%llu compile_opts=%llu "
      "compile_opt_ns=%llu compile_codegens=%llu compile_codegen_ns=%llu "
      "compile_execs=%llu compile_exec_ns=%llu compile_total_ns=%llu\n",
      Campaign, compileCloneEnabled() ? "on" : "off",
      static_cast<unsigned long long>(C.Parses),
      static_cast<unsigned long long>(C.ParseNs),
      static_cast<unsigned long long>(C.Semas),
      static_cast<unsigned long long>(C.SemaNs),
      static_cast<unsigned long long>(C.Clones),
      static_cast<unsigned long long>(C.CloneNs),
      static_cast<unsigned long long>(C.Opts),
      static_cast<unsigned long long>(C.OptNs),
      static_cast<unsigned long long>(C.Codegens),
      static_cast<unsigned long long>(C.CodegenNs),
      static_cast<unsigned long long>(C.Execs),
      static_cast<unsigned long long>(C.ExecNs),
      static_cast<unsigned long long>(C.totalNs()));
}

/// One `triage_*` breakdown line: witnesses triaged, bisection probes
/// dispatched, first-seen bug clusters. Shared by the global counters
/// and the scheduler's per-campaign deltas, so the per-campaign lines
/// sum field-by-field to the campaign=total line.
void printTriageLine(const char *Campaign, const TriageCounters &T) {
  std::fprintf(stderr,
               "campaign=%s triage_witnesses=%llu triage_probes=%llu "
               "triage_clusters=%llu\n",
               Campaign, static_cast<unsigned long long>(T.Witnesses),
               static_cast<unsigned long long>(T.Probes),
               static_cast<unsigned long long>(T.Clusters));
}

/// One `fleet_*` breakdown line: rendezvous joins adopted, graceful
/// drains, evictions, redials, and requeued jobs on the remote
/// backend (exec/FleetRegistry.h). Shared by the global counters and
/// the scheduler's per-campaign deltas, so the per-campaign lines sum
/// field-by-field to the campaign=total line.
void printFleetLine(const char *Campaign, const FleetCounters &F) {
  std::fprintf(stderr,
               "campaign=%s fleet_joins=%llu fleet_leaves=%llu "
               "fleet_evictions=%llu fleet_redials=%llu "
               "fleet_requeues=%llu\n",
               Campaign, static_cast<unsigned long long>(F.Joins),
               static_cast<unsigned long long>(F.Leaves),
               static_cast<unsigned long long>(F.Evictions),
               static_cast<unsigned long long>(F.Redials),
               static_cast<unsigned long long>(F.Requeues));
}

void printCacheStats(const CliArgs &A, const ExecOptions &Opts,
                     const char *Campaign) {
  if (!A.has("stats"))
    return;
  OutcomeCacheStats S;
  if (Opts.Cache)
    S = Opts.Cache->stats();
  std::fprintf(stderr,
               "campaign=%s cache_hits=%llu cache_misses=%llu "
               "coalesced=%llu\n",
               Campaign, static_cast<unsigned long long>(S.Hits),
               static_cast<unsigned long long>(S.Misses),
               static_cast<unsigned long long>(S.Coalesced));
  VmCounters V = vmCounters();
  std::fprintf(stderr,
               "campaign=%s vm_dispatch=%s vm_instructions=%llu "
               "vm_fused=%llu vm_launches=%llu vm_engine_reuses=%llu\n",
               Campaign, vmDispatchName(vmDispatchMode()),
               static_cast<unsigned long long>(V.Instructions),
               static_cast<unsigned long long>(V.FusedExecuted),
               static_cast<unsigned long long>(V.Launches),
               static_cast<unsigned long long>(V.EngineReuses));
  printCompileLine(Campaign, compileCounters());
  printTriageLine(Campaign, triageCounters());
  printFleetLine(Campaign, fleetCounters());
}

ExecOptions execOptionsFrom(const CliArgs &A) {
  ExecOptions Opts = ExecOptions::withThreads(
      static_cast<unsigned>(A.getInt("exec-threads", 1)));
  Opts.ShardSize =
      static_cast<unsigned>(A.getInt("shard-size", Opts.ShardSize));
  if (A.has("backend") &&
      !parseBackendKind(A.get("backend"), Opts.Backend)) {
    std::fprintf(
        stderr,
        "unknown backend '%s' (use inline, threads, procs or remote)\n",
        A.get("backend").c_str());
    std::exit(1);
  }
  applyRemoteOptions(A, Opts, "workers");
  applyCacheOptions(A, Opts);
  if (A.has("fleet-listen")) {
    if (Opts.Backend != BackendKind::Remote) {
      std::fprintf(stderr,
                   "--fleet-listen only makes sense with --backend=remote\n");
      std::exit(1);
    }
    std::string FleetHost = A.get("fleet-host", "127.0.0.1");
    try {
      Opts.Fleet = makeFleetRegistry(
          FleetHost, static_cast<unsigned>(A.getInt("fleet-listen", 0)));
    } catch (const std::exception &E) {
      std::fprintf(stderr, "%s\n", E.what());
      std::exit(1);
    }
    // Scripts parse this line to learn an ephemeral registry port;
    // stderr, because campaign stdout is byte-compared across fleet
    // shapes. Keep the format stable.
    std::fprintf(stderr, "clfuzz fleet: listening on %s:%u\n",
                 FleetHost.c_str(), Opts.Fleet->port());
  }
  return Opts;
}

/// makeBackend with CLI-grade errors: a malformed --workers entry or
/// a platform without sockets exits with a message instead of an
/// unhandled exception.
std::unique_ptr<ExecBackend> makeBackendOrDie(const ExecOptions &Opts) {
  try {
    return makeBackend(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "%s\n", E.what());
    std::exit(1);
  }
}

//===----------------------------------------------------------------------===//
// Campaign spec builders: one per kind, shared by the solo commands and
// `clfuzz sched`. Each reads a solo command's flags or a sched
// declaration's params, which use the same keys. An invalid argument
// prints "<Who>: <message>" and yields no spec; the command exits 2.
// The backend a reduction runs on is the caller's to attach.
//===----------------------------------------------------------------------===//

DiffSpec diffSpecFrom(const CliArgs &A) {
  DiffSpec Spec;
  // Validate the report format before any cell runs.
  Spec.Format = reportFormatFrom(A);
  Spec.Gen = genOptionsFrom(A);
  return Spec;
}

/// The candidate budget every reducing campaign reads (--reduce-max).
ReducerOptions reducerOptionsFrom(const CliArgs &A) {
  ReducerOptions RO;
  RO.MaxCandidates =
      static_cast<unsigned>(A.getInt("reduce-max", RO.MaxCandidates));
  return RO;
}

std::optional<HuntSpec> huntSpecFrom(const CliArgs &A,
                                     const std::string &Who) {
  HuntSpec Spec;
  Spec.ModeName = A.get("mode", "ALL");
  Spec.Mode = modeByName(Spec.ModeName);
  Spec.Seed = A.getInt("seed", 1);
  Spec.Count = static_cast<unsigned>(A.getInt("count", 20));
  Spec.Format = reportFormatFrom(A);
  Spec.Reduce = A.has("reduce");
  Spec.ReduceTracePath = A.get("reduce-trace");
  Spec.Triage = A.has("triage");
  if (Spec.Triage && !Spec.Reduce) {
    std::fprintf(stderr,
                 "%s: --triage bisects *reduced* witnesses and needs "
                 "--reduce (add --reduce, or use `clfuzz triage` for a "
                 "single witness)\n",
                 Who.c_str());
    return std::nullopt;
  }
  Spec.TriageOut = A.get("triage-out");
  Spec.TriageFormat = triageFormatFrom(A);
  // Witnesses drain through the hunt's Reduction-lane task, whose
  // probes enter the backend ahead of priority-0 campaign work.
  Spec.ReduceOpts = reducerOptionsFrom(A);
  Spec.ReduceOpts.DispatchPriority = 1;
  return Spec;
}

/// True (after printing the error) when the witness's --config is
/// missing: `reduce` and `triage` need the misbehaving configuration.
bool missingConfig(const CliArgs &A, const std::string &Who) {
  if (A.has("config"))
    return false;
  std::fprintf(stderr, "%s: --config=ID is required (the configuration "
                       "the witness misbehaves on)\n",
               Who.c_str());
  return true;
}

std::optional<ReduceSpec> reduceSpecFrom(const CliArgs &A,
                                         const std::string &Who) {
  if (missingConfig(A, Who))
    return std::nullopt;
  ReduceSpec Spec;
  Spec.Expect = A.get("expect", "wrong");
  if (Spec.Expect != "wrong" && Spec.Expect != "crash" &&
      Spec.Expect != "timeout" && Spec.Expect != "build-failure") {
    std::fprintf(stderr,
                 "%s: unknown --expect '%s' (use wrong, crash, timeout or "
                 "build-failure)\n",
                 Who.c_str(), Spec.Expect.c_str());
    return std::nullopt;
  }
  Spec.Gen = genOptionsFrom(A);
  Spec.ConfigId = static_cast<int>(A.getInt("config", 0));
  Spec.Opt = A.has("opt");
  Spec.Opts = reducerOptionsFrom(A);
  Spec.TracePath = A.get("trace");
  return Spec;
}

std::optional<TriageSpec> triageSpecFrom(const CliArgs &A,
                                         const std::string &Who) {
  if (missingConfig(A, Who))
    return std::nullopt;
  TriageSpec Spec;
  Spec.Gen = genOptionsFrom(A);
  Spec.ConfigId = static_cast<int>(A.getInt("config", 0));
  Spec.Opt = A.has("opt");
  Spec.Opts = reducerOptionsFrom(A);
  Spec.Format = reportFormatFrom(A);
  return Spec;
}

/// The reduce backend's options: --reduce-backend with --reduce-jobs
/// workers; remote probes dial --reduce-workers, else --workers.
/// `reduce` and `triage` run on it, and so does `hunt --reduce` when
/// --reduce-backend is given.
ExecOptions reduceExecOptionsFrom(const CliArgs &A) {
  ExecOptions Opts = ExecOptions::withThreads(
      static_cast<unsigned>(A.getInt("reduce-jobs", 1)));
  if (A.has("reduce-backend") &&
      !parseBackendKind(A.get("reduce-backend"), Opts.Backend)) {
    std::fprintf(stderr,
                 "unknown reduce backend '%s' (use inline, threads, "
                 "procs or remote)\n",
                 A.get("reduce-backend").c_str());
    std::exit(1);
  }
  applyRemoteOptions(A, Opts, "reduce-workers");
  return Opts;
}

//===----------------------------------------------------------------------===//
// One grant loop: a solo command is a one-campaign schedule
//===----------------------------------------------------------------------===//

/// Runs \p Sched to completion; the exit code is the worst campaign's.
int runSchedule(CampaignScheduler &Sched) {
  Sched.runToCompletion();
  int Exit = 0;
  for (const ScheduledCampaign &C : Sched.campaigns())
    Exit = std::max(Exit, C.Task->exitCode());
  return Exit;
}

/// Adds a hunt's task, and its Reduction lane when it reduces.
void addHunt(CampaignScheduler &Sched, const std::string &Name,
             const HuntCampaign &C) {
  Sched.add(Name, *C.Main);
  if (C.Lane)
    Sched.add(Name + "/reduce", *C.Lane);
}

/// A solo command's campaign runs through the same grant loop as
/// `clfuzz sched`, as a schedule of one, reporting straight to stdout.
int runSolo(ExecBackend &Backend, const std::string &Name,
            CampaignTask &Task) {
  CampaignScheduler Sched(Backend);
  Sched.add(Name, Task);
  return runSchedule(Sched);
}

int cmdDiff(const CliArgs &A) {
  DiffSpec Spec = diffSpecFrom(A);
  ExecOptions Opts = execOptionsFrom(A);
  std::unique_ptr<ExecBackend> Backend = makeBackendOrDie(Opts);
  std::unique_ptr<CampaignTask> Task = makeDiffTask(Spec, *Backend, stdout);
  int Exit = runSolo(*Backend, "diff", *Task);
  printCacheStats(A, Opts, "diff");
  return Exit;
}

int cmdHunt(const CliArgs &A) {
  std::optional<HuntSpec> Spec = huntSpecFrom(A, "hunt");
  if (!Spec)
    return 2;
  ExecOptions Opts = execOptionsFrom(A);
  std::unique_ptr<ExecBackend> Backend = makeBackendOrDie(Opts);
  // Reductions run on the campaign's backend, as under `sched`, unless
  // --reduce-backend builds them one of their own. Campaign and
  // reductions share one cache either way: every witness's probes
  // start from the outcomes the hunt already paid for, and the --stats
  // counters cover both.
  std::unique_ptr<ExecBackend> ReduceBackend;
  Spec->ReduceOpts.Backend = Backend.get();
  if (Spec->Reduce && A.has("reduce-backend")) {
    ExecOptions RO = reduceExecOptionsFrom(A);
    RO.Cache = Opts.Cache;
    ReduceBackend = makeBackendOrDie(RO);
    Spec->ReduceOpts.Backend = ReduceBackend.get();
  }
  HuntCampaign C =
      makeHuntCampaign(*Spec, Opts.resolvedShardSize(), *Backend, stdout);
  CampaignScheduler Sched(*Backend);
  addHunt(Sched, "hunt", C);
  int Exit = runSchedule(Sched);
  printCacheStats(A, Opts, "hunt");
  return Exit;
}

/// `reduce` and `triage` evaluate every probe on one backend built
/// from the reduce flags, with its own outcome cache; the report is
/// backend-silent, byte-identical across --reduce-backend and
/// --reduce-jobs.
ExecOptions reduceCommandOptions(const CliArgs &A) {
  ExecOptions Opts = reduceExecOptionsFrom(A);
  // The descriptor-level cache subsumes the reducer's printed-form
  // cache across rounds: a re-probed candidate (crash and timeout
  // outcomes included) is answered without a fork.
  applyCacheOptions(A, Opts);
  return Opts;
}

int cmdReduce(const CliArgs &A) {
  std::optional<ReduceSpec> Spec = reduceSpecFrom(A, "reduce");
  if (!Spec)
    return 2;
  ExecOptions Opts = reduceCommandOptions(A);
  std::unique_ptr<ExecBackend> Backend = makeBackendOrDie(Opts);
  Spec->Opts.Backend = Backend.get();
  std::unique_ptr<CampaignTask> Task = makeReduceTask(*Spec, stdout);
  int Exit = runSolo(*Backend, "reduce", *Task);
  printCacheStats(A, Opts, "reduce");
  return Exit;
}

/// `clfuzz triage`: reduce one wrong-code witness, then bisect the
/// optimisation pass pipeline for the minimal faulty pass combination
/// and derive the witness's bug-cluster key (src/triage/,
/// docs/triage.md).
int cmdTriage(const CliArgs &A) {
  std::optional<TriageSpec> Spec = triageSpecFrom(A, "triage");
  if (!Spec)
    return 2;
  ExecOptions Opts = reduceCommandOptions(A);
  std::unique_ptr<ExecBackend> Backend = makeBackendOrDie(Opts);
  Spec->Opts.Backend = Backend.get();
  std::unique_ptr<CampaignTask> Task = makeTriageTask(*Spec, stdout);
  int Exit = runSolo(*Backend, "triage", *Task);
  printCacheStats(A, Opts, "triage");
  return Exit;
}

/// The multi-campaign driver: `clfuzz sched --campaigns=SPEC` parses
/// a declaration list (sched/CampaignSpec.h grammar), builds one
/// campaign per declaration through the spec builders the solo
/// commands use, and multiplexes them over ONE shared backend via
/// CampaignScheduler. Each campaign writes to its own stream
/// (--out-dir=DIR files, or tmpfiles replayed to stdout in
/// declaration order), so every report is byte-identical to the
/// campaign's solo run. hunt(...,reduce) campaigns drain their
/// witnesses through a Reduction-lane task on the shared backend at
/// elevated dispatch priority. docs/scheduler.md is the manual.
int cmdSched(const CliArgs &A) {
  if (!A.has("campaigns")) {
    std::fprintf(
        stderr,
        "sched: --campaigns=SPEC (or --campaigns=@FILE) is required, "
        "e.g. --campaigns='hunt(count=50,reduce);diff(seed=9)'\n");
    return 2;
  }
  std::vector<CampaignDecl> Decls;
  std::string SpecError;
  if (!parseCampaignSpec(A.get("campaigns"), Decls, SpecError)) {
    std::fprintf(stderr, "sched: %s\n", SpecError.c_str());
    return 2;
  }

  SchedOptions SO;
  if (A.has("sched-policy") &&
      !parseSchedPolicy(A.get("sched-policy"), SO.Policy)) {
    std::fprintf(stderr, "unknown sched policy '%s' (use rr or yield)\n",
                 A.get("sched-policy").c_str());
    return 2;
  }
  SO.YieldWindow =
      static_cast<unsigned>(A.getInt("yield-window", SO.YieldWindow));
  SO.YieldBoost =
      static_cast<unsigned>(A.getInt("yield-boost", SO.YieldBoost));

  ExecOptions Opts = execOptionsFrom(A);
  SO.Cache = Opts.Cache;
  std::unique_ptr<ExecBackend> Backend = makeBackendOrDie(Opts);

  // Per-campaign report streams: --out-dir=DIR writes
  // <dir>/<name>.txt; otherwise each campaign buffers into a tmpfile
  // replayed to stdout in declaration order after the run, so
  // interleaving never scrambles a report.
  std::string OutDir = A.get("out-dir");
  std::vector<std::FILE *> Files;
  std::vector<std::string> Paths;
  for (const CampaignDecl &D : Decls) {
    std::FILE *F = nullptr;
    std::string Path;
    if (!OutDir.empty()) {
      std::string Base;
      for (char Ch : D.Name)
        Base += (std::isalnum(static_cast<unsigned char>(Ch)) ||
                 Ch == '.' || Ch == '_' || Ch == '-')
                    ? Ch
                    : '_';
      Path = OutDir + "/" + Base + ".txt";
      F = std::fopen(Path.c_str(), "w");
    } else {
      F = std::tmpfile();
    }
    if (!F) {
      std::fprintf(stderr, "sched: cannot open report stream %s\n",
                   Path.empty() ? "(tmpfile)" : Path.c_str());
      for (std::FILE *Open : Files)
        std::fclose(Open);
      return 1;
    }
    Files.push_back(F);
    Paths.push_back(Path);
  }

  CampaignScheduler Sched(*Backend, SO);
  std::vector<HuntCampaign> Hunts;
  std::vector<std::unique_ptr<CampaignTask>> Tasks;
  for (size_t I = 0; I != Decls.size(); ++I) {
    const CampaignDecl &D = Decls[I];
    CliArgs Sub;
    Sub.Command = D.Type;
    Sub.Options = D.Params;
    std::string Who = "sched: campaign '" + D.Name + "'";
    std::FILE *Out = Files[I];
    unsigned ShardSize = static_cast<unsigned>(
        Sub.getInt("shard-size", Opts.resolvedShardSize()));
    if (D.Type == "diff") {
      Tasks.push_back(makeDiffTask(diffSpecFrom(Sub), *Backend, Out));
    } else if (D.Type == "hunt") {
      std::optional<HuntSpec> Spec = huntSpecFrom(Sub, Who);
      if (!Spec)
        return 2;
      Spec->ReduceOpts.Backend = Backend.get();
      Hunts.push_back(makeHuntCampaign(*Spec, ShardSize, *Backend, Out));
      addHunt(Sched, D.Name, Hunts.back());
      continue;
    } else if (D.Type == "emi") {
      EmiSpec Spec;
      Spec.Bases = static_cast<unsigned>(Sub.getInt("bases", Spec.Bases));
      Spec.MinBlocks =
          static_cast<unsigned>(Sub.getInt("min-blocks", Spec.MinBlocks));
      Spec.MaxBlocks =
          static_cast<unsigned>(Sub.getInt("max-blocks", Spec.MaxBlocks));
      Spec.SeedBase = Sub.getInt("seed", Spec.SeedBase);
      Tasks.push_back(makeEmiTask(Spec, ShardSize, *Backend, Out));
    } else if (D.Type == "triage") {
      std::optional<TriageSpec> Spec = triageSpecFrom(Sub, Who);
      if (!Spec)
        return 2;
      Spec->Opts.Backend = Backend.get();
      Tasks.push_back(makeTriageTask(*Spec, Out));
    } else { // "reduce" — parseCampaignSpec validated the type
      std::optional<ReduceSpec> Spec = reduceSpecFrom(Sub, Who);
      if (!Spec)
        return 2;
      Spec->Opts.Backend = Backend.get();
      Tasks.push_back(makeReduceTask(*Spec, Out));
    }
    Sched.add(D.Name, *Tasks.back());
  }

  int Exit = runSchedule(Sched);

  for (size_t I = 0; I != Decls.size(); ++I) {
    std::fflush(Files[I]);
    if (!OutDir.empty()) {
      std::printf("campaign %s: %s\n", Decls[I].Name.c_str(),
                  Paths[I].c_str());
    } else {
      std::printf("=== campaign %s ===\n", Decls[I].Name.c_str());
      std::rewind(Files[I]);
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), Files[I])) > 0)
        std::fwrite(Buf, 1, N, stdout);
    }
    std::fclose(Files[I]);
  }
  std::printf("sched: %zu campaigns completed on the %s backend "
              "(policy %s, %zu grants)\n",
              Decls.size(), Backend->name(), schedPolicyName(SO.Policy),
              Sched.allocationTrace().size());

  // The per-campaign --stats breakdown. Serialized steps make the
  // attribution exact: the breakdown's cache and vm sums equal the
  // campaign=total lines (pinned by SchedulerConformanceTest).
  if (A.has("stats")) {
    for (const ScheduledCampaign &C : Sched.campaigns()) {
      std::fprintf(stderr,
                   "campaign=%s lane=%s steps=%zu tests=%zu jobs=%zu "
                   "witnesses=%zu\n",
                   C.Name.c_str(), schedLaneName(C.Task->lane()),
                   C.Stats.Steps, C.Stats.Tests, C.Stats.Jobs,
                   C.Stats.Witnesses);
      std::fprintf(
          stderr,
          "campaign=%s cache_hits=%llu cache_misses=%llu coalesced=%llu\n",
          C.Name.c_str(),
          static_cast<unsigned long long>(C.Stats.Cache.Hits),
          static_cast<unsigned long long>(C.Stats.Cache.Misses),
          static_cast<unsigned long long>(C.Stats.Cache.Coalesced));
      std::fprintf(
          stderr,
          "campaign=%s vm_dispatch=%s vm_instructions=%llu vm_fused=%llu "
          "vm_launches=%llu vm_engine_reuses=%llu\n",
          C.Name.c_str(), vmDispatchName(vmDispatchMode()),
          static_cast<unsigned long long>(C.Stats.VmInstructions),
          static_cast<unsigned long long>(C.Stats.VmFused),
          static_cast<unsigned long long>(C.Stats.VmLaunches),
          static_cast<unsigned long long>(C.Stats.VmEngineReuses));
      printCompileLine(C.Name.c_str(), C.Stats.Compile);
      printTriageLine(C.Name.c_str(), C.Stats.Triage);
      printFleetLine(C.Name.c_str(), C.Stats.Fleet);
    }
    printCacheStats(A, Opts, "total");
  }
  return Exit;
}

/// Runs a `clfuzz worker` process: a TCP job server remote campaigns
/// dispatch cells to (see docs/wire-protocol.md).
int cmdWorker(const CliArgs &A) {
  WorkerOptions WO;
  WO.Host = A.get("host", WO.Host);
  WO.Port = static_cast<unsigned>(A.getInt("listen", 0));
  WO.Connect = A.get("connect");
  WO.Jobs = static_cast<unsigned>(A.getInt("jobs", 1));
  WO.ProcTimeoutMs =
      static_cast<unsigned>(A.getInt("proc-timeout-ms", 0));
  WO.DieAfterJobs =
      static_cast<unsigned>(A.getInt("die-after-jobs", 0));
  WO.IgnoreJobs = A.has("ignore-jobs");
  WO.DrainAfterJobs =
      static_cast<unsigned>(A.getInt("drain-after-jobs", 0));
  WO.FlapAfterJobs =
      static_cast<unsigned>(A.getInt("flap-after-jobs", 0));
  WO.StaleJoins = static_cast<unsigned>(A.getInt("stale-joins", 0));
  std::string Mode = A.get("cache", A.has("cache-dir") ? "disk" : "off");
  if (!parseCacheMode(Mode, WO.Cache)) {
    std::fprintf(stderr, "unknown cache mode '%s' (use off, mem or disk)\n",
                 Mode.c_str());
    return 2;
  }
  WO.CacheDir = A.get("cache-dir");
  if (WO.Cache == CacheMode::Disk && WO.CacheDir.empty()) {
    std::fprintf(stderr, "--cache=disk needs --cache-dir=DIR\n");
    return 2;
  }
  WO.CacheMemMb = static_cast<unsigned>(A.getInt("cache-mem-mb", 0));
  return runWorkerCommand(WO);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: clfuzz <command> [options]\n"
      "  gen     --mode=M --seed=N [--emi=K]      print a generated kernel\n"
      "  run     --seed=N [--mode=M] [--emi=K] [--config=ID] [--opt]\n"
      "                                           run one kernel\n"
      "  diff    --seed=N [--mode=M] [--emi=K]    run across the whole zoo\n"
      "  hunt    --mode=M --count=N [--seed=N]    mini differential campaign\n"
      "  reduce  --seed=N --config=ID [--opt]     shrink a witness kernel\n"
      "  triage  --seed=N --config=ID [--opt]     reduce a witness, bisect\n"
      "                                           the pass pipeline, derive\n"
      "                                           its bug-cluster key\n"
      "  sched   --campaigns=SPEC|@FILE           multiplex N campaigns\n"
      "                                           over one shared backend\n"
      "  worker  [--listen=PORT] [--host=H]       serve jobs to remote\n"
      "          [--connect=HOST:PORT]            campaigns over TCP (or\n"
      "                                           dial a coordinator's\n"
      "                                           fleet registry)\n"
      "  configs                                  list the 21 configurations\n"
      "diff/hunt: --backend=inline|threads|procs|remote --exec-threads=N\n"
      "  (1 = serial, 0 = all cores) --shard-size=N --format=text|csv|jsonl\n"
      "remote backend: --workers=host:port,... --remote-timeout-ms=N\n"
      "  --remote-heartbeat-ms=N (see `clfuzz worker`, docs/wire-protocol.md)\n"
      "  --fleet-listen=PORT (0 = ephemeral) --fleet-host=H open a\n"
      "  rendezvous registry: `clfuzz worker --connect=` workers join and\n"
      "  leave mid-campaign, output stays byte-identical (docs/fleet.md);\n"
      "  --stats adds a fleet_* counter line\n"
      "caching (diff/hunt/reduce/triage/worker): --cache=off|mem|disk\n"
      "  --cache-dir=DIR (implies disk) --cache-mem-mb=N; identical job\n"
      "  descriptors are served from cache, output stays byte-identical\n"
      "  (docs/caching.md); --stats prints cache_hits/cache_misses/\n"
      "  coalesced on stderr\n"
      "reduce: --expect=wrong|crash|timeout|build-failure\n"
      "  --reduce-backend=inline|threads|procs|remote --reduce-jobs=N\n"
      "  (the reduce backend's workers) --reduce-max=N --trace=FILE\n"
      "hunt --reduce: shrink witnesses between the hunt's shards on the\n"
      "  campaign backend, or on --reduce-backend with --reduce-jobs=N\n"
      "  workers; --reduce-max=N --reduce-trace=FILE; remote probes use\n"
      "  --reduce-workers or --workers\n"
      "triage (and hunt --reduce --triage): bisect each reduced witness\n"
      "  over the optimization pass pipeline for the minimal faulty pass\n"
      "  combination; cluster by (pass set, feature signature) and report\n"
      "  distinct bugs vs raw witnesses (docs/triage.md); --triage needs\n"
      "  --reduce; --triage-out=FILE --triage-format=csv|jsonl write a\n"
      "  machine-readable report; `triage` accepts the reduce flags and\n"
      "  --format=text|csv|jsonl; reports are byte-identical across\n"
      "  backends, worker counts and cache states\n"
      "sched: --campaigns='type(key=val,flag,...);...' with types hunt,\n"
      "  diff, emi, reduce, triage; keys mirror the solo flags (e.g.\n"
      "  hunt(mode=BASIC,count=50,reduce); name=ID labels a campaign);\n"
      "  --sched-policy=rr|yield (--yield-window=N --yield-boost=N)\n"
      "  --out-dir=DIR per-campaign report files (default: buffered and\n"
      "  replayed to stdout); reductions run in a priority lane on the\n"
      "  shared backend; --stats adds campaign=<name> breakdown lines on\n"
      "  stderr; every report is byte-identical to the campaign's solo\n"
      "  run (docs/scheduler.md)\n"
      "worker: --jobs=N executor slots (0 = all cores) --proc-timeout-ms=N\n"
      "  per-job deadline; --drain-after-jobs=N leave gracefully after N\n"
      "  cells; fault injection for tests (N counts cells):\n"
      "  --die-after-jobs=N --ignore-jobs\n"
      "  --flap-after-jobs=N (die/redial loop) --stale-joins=N (announce a\n"
      "  stale cache generation in the first N joins)\n"
      "all commands: --vm-dispatch=switch|goto interpreter dispatch\n"
      "  strategy (byte-identical output, wall-clock only; docs/vm.md);\n"
      "  --compile-clone=on|off clone-don't-reparse front-end sharing\n"
      "  (byte-identical output, wall-clock only; docs/compile-pipeline.md);\n"
      "  --stats adds vm_* and compile_* counter lines on stderr\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  CliArgs A = parse(Argc, Argv);
  // Interpreter tuning applies to every command (output is
  // byte-identical in either mode; only wall-clock speed changes).
  // The flag wins over the CLFUZZ_VM_DISPATCH environment variable.
  if (A.has("vm-dispatch")) {
    VmDispatch D;
    if (!parseVmDispatch(A.get("vm-dispatch").c_str(), D)) {
      std::fprintf(stderr, "unknown vm dispatch '%s' (use switch or goto)\n",
                   A.get("vm-dispatch").c_str());
      return 1;
    }
    setVmDispatchMode(D);
  }
  // Front-end sharing tuning, same contract as --vm-dispatch: output
  // is byte-identical on or off, only wall-clock speed changes. The
  // flag wins over the CLFUZZ_COMPILE_CLONE environment variable.
  if (A.has("compile-clone")) {
    std::string Mode = A.get("compile-clone");
    if (Mode != "on" && Mode != "off") {
      std::fprintf(stderr, "unknown compile-clone mode '%s' (use on or off)\n",
                   Mode.c_str());
      return 1;
    }
    setCompileCloneEnabled(Mode == "on");
  }
  // Campaign-time failures (the whole remote fleet unreachable, a
  // process pool that cannot fork) surface as exceptions from deep
  // inside a run; report them as errors, not as std::terminate.
  try {
    if (A.Command == "gen")
      return cmdGen(A);
    if (A.Command == "run")
      return cmdRun(A);
    if (A.Command == "diff")
      return cmdDiff(A);
    if (A.Command == "hunt")
      return cmdHunt(A);
    if (A.Command == "reduce")
      return cmdReduce(A);
    if (A.Command == "triage")
      return cmdTriage(A);
    if (A.Command == "sched")
      return cmdSched(A);
    if (A.Command == "worker")
      return cmdWorker(A);
    if (A.Command == "configs")
      return cmdConfigs();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "clfuzz %s: %s\n", A.Command.c_str(), E.what());
    return 1;
  }
  return usage();
}
