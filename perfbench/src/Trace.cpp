//===- Trace.cpp - Spans recorded around the calls into clfuzz ------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "exec/JobSerialize.h"

#include <stdexcept>

using namespace clfuzz;
using namespace perfbench;

namespace {

/// Closes a span on every exit path, exceptions included, so an
/// aborted campaign never leaves the span stack mis-nested.
struct SpanGuard {
  Recorder &Rec;
  size_t Id;
  ~SpanGuard() { Rec.end(Id); }
};

CompileCounters minus(const CompileCounters &A, const CompileCounters &B) {
  CompileCounters D;
  D.Parses = A.Parses - B.Parses;
  D.ParseNs = A.ParseNs - B.ParseNs;
  D.Semas = A.Semas - B.Semas;
  D.SemaNs = A.SemaNs - B.SemaNs;
  D.Clones = A.Clones - B.Clones;
  D.CloneNs = A.CloneNs - B.CloneNs;
  D.Opts = A.Opts - B.Opts;
  D.OptNs = A.OptNs - B.OptNs;
  D.Codegens = A.Codegens - B.Codegens;
  D.CodegenNs = A.CodegenNs - B.CodegenNs;
  D.Execs = A.Execs - B.Execs;
  D.ExecNs = A.ExecNs - B.ExecNs;
  return D;
}

void plus(CompileCounters &A, const CompileCounters &D) {
  A.Parses += D.Parses;
  A.ParseNs += D.ParseNs;
  A.Semas += D.Semas;
  A.SemaNs += D.SemaNs;
  A.Clones += D.Clones;
  A.CloneNs += D.CloneNs;
  A.Opts += D.Opts;
  A.OptNs += D.OptNs;
  A.Codegens += D.Codegens;
  A.CodegenNs += D.CodegenNs;
  A.Execs += D.Execs;
  A.ExecNs += D.ExecNs;
}

VmCounters minus(const VmCounters &A, const VmCounters &B) {
  VmCounters D;
  D.Instructions = A.Instructions - B.Instructions;
  D.FusedExecuted = A.FusedExecuted - B.FusedExecuted;
  D.Launches = A.Launches - B.Launches;
  D.EngineReuses = A.EngineReuses - B.EngineReuses;
  return D;
}

void plus(VmCounters &A, const VmCounters &D) {
  A.Instructions += D.Instructions;
  A.FusedExecuted += D.FusedExecuted;
  A.Launches += D.Launches;
  A.EngineReuses += D.EngineReuses;
}

bool sameOutcome(const RunOutcome &A, const RunOutcome &B) {
  return A.Status == B.Status && A.OutputHash == B.OutputHash &&
         A.Message == B.Message && A.Steps == B.Steps &&
         A.OutputHead == B.OutputHead;
}

} // namespace

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

Snapshot Snapshot::take(const OutcomeCache *Cache) {
  Snapshot S;
  S.Compile = compileCounters();
  S.Vm = vmCounters();
  if (Cache)
    S.Cache = Cache->stats();
  S.Triage = triageCounters();
  S.Fleet = fleetCounters();
  return S;
}

Snapshot Snapshot::delta(const Snapshot &After, const Snapshot &Before) {
  Snapshot D;
  D.Compile = minus(After.Compile, Before.Compile);
  D.Vm = minus(After.Vm, Before.Vm);
  D.Cache.Hits = After.Cache.Hits - Before.Cache.Hits;
  D.Cache.Misses = After.Cache.Misses - Before.Cache.Misses;
  D.Cache.Coalesced = After.Cache.Coalesced - Before.Cache.Coalesced;
  D.Cache.DiskHits = After.Cache.DiskHits - Before.Cache.DiskHits;
  D.Cache.BadEntries = After.Cache.BadEntries - Before.Cache.BadEntries;
  D.Triage.Witnesses = After.Triage.Witnesses - Before.Triage.Witnesses;
  D.Triage.Probes = After.Triage.Probes - Before.Triage.Probes;
  D.Triage.Clusters = After.Triage.Clusters - Before.Triage.Clusters;
  D.Fleet.Joins = After.Fleet.Joins - Before.Fleet.Joins;
  D.Fleet.Leaves = After.Fleet.Leaves - Before.Fleet.Leaves;
  D.Fleet.Evictions = After.Fleet.Evictions - Before.Fleet.Evictions;
  D.Fleet.Redials = After.Fleet.Redials - Before.Fleet.Redials;
  D.Fleet.Requeues = After.Fleet.Requeues - Before.Fleet.Requeues;
  return D;
}

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

size_t Recorder::begin(const char *Name, uint64_t Items) {
  if (std::this_thread::get_id() != Owner)
    throw std::logic_error("perfbench: span opened off the coordinator "
                           "thread");
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : static_cast<long>(Stack.back());
  S.Grant = CurGrant;
  S.Campaign = CurCampaign;
  S.Items = Items;
  S.Delta = Snapshot::take(Cache); // the start snapshot until end()
  S.Start = nowNs();
  Spans.push_back(S);
  Stack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void Recorder::end(size_t Id) {
  uint64_t End = nowNs();
  // Close any span left open above Id (only an exception unwinding
  // through unguarded code could do that).
  while (!Stack.empty()) {
    size_t Top = Stack.back();
    Stack.pop_back();
    Span &S = Spans[Top];
    S.End = End;
    S.Delta = Snapshot::delta(Snapshot::take(Cache), S.Delta);
    if (Top == Id)
      break;
  }
}

size_t Recorder::beginGrant() {
  CurGrant = ++Grants;
  CurCampaign = -1;
  GrantSpan = begin("sched.stepOnce");
  return GrantSpan;
}

void Recorder::endGrant(size_t Id) {
  end(Id);
  CurGrant = 0;
  CurCampaign = -1;
}

void Recorder::setCampaign(int Campaign) {
  CurCampaign = Campaign;
  if (CurGrant != 0 && GrantSpan < Spans.size())
    Spans[GrantSpan].Campaign = Campaign;
}

int Recorder::addCampaign(std::string Name, bool ReductionLane) {
  Names.push_back(std::move(Name));
  Lanes.push_back(ReductionLane);
  return static_cast<int>(Names.size()) - 1;
}

void Recorder::write(std::FILE *Out) const {
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    const char *Camp =
        S.Campaign >= 0 ? Names[static_cast<size_t>(S.Campaign)].c_str()
                        : "";
    std::fprintf(
        Out,
        "{\"id\":%zu,\"name\":\"%s\",\"parent\":%ld,\"start_ns\":%llu,"
        "\"end_ns\":%llu,\"grant\":%u,\"campaign\":\"%s\",\"items\":%llu,"
        "\"parses\":%llu,\"opts\":%llu,\"codegens\":%llu,"
        "\"vm_instructions\":%llu,\"cache_hits\":%llu,"
        "\"cache_misses\":%llu,\"triage_probes\":%llu}\n",
        I, S.Name, S.Parent, static_cast<unsigned long long>(S.Start),
        static_cast<unsigned long long>(S.End), S.Grant, Camp,
        static_cast<unsigned long long>(S.Items),
        static_cast<unsigned long long>(S.Delta.Compile.Parses),
        static_cast<unsigned long long>(S.Delta.Compile.Opts),
        static_cast<unsigned long long>(S.Delta.Compile.Codegens),
        static_cast<unsigned long long>(S.Delta.Vm.Instructions),
        static_cast<unsigned long long>(S.Delta.Cache.Hits),
        static_cast<unsigned long long>(S.Delta.Cache.Misses),
        static_cast<unsigned long long>(S.Delta.Triage.Probes));
  }
}

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

Replayer::Replayer(bool Execute, unsigned Threads) : Execute(Execute) {
  if (Execute)
    Engine = std::make_unique<ExecutionEngine>(
        ExecOptions::withThreads(Threads));
}

Replayer::~Replayer() = default;

void Replayer::replay(const std::vector<ExecColumn> &Columns,
                      const std::vector<RunOutcome> &Got) {
  std::vector<OwnedExecColumn> Owned(Columns.size());
  uint64_t HashSink = 0;
  for (size_t I = 0; I != Columns.size(); ++I) {
    uint64_t T0 = nowNs();
    WireWriter W;
    serializeExecColumn(W, Columns[I]);
    uint64_t T1 = nowNs();
    WireReader R(W.buffer().data(), W.buffer().size());
    Owned[I] = deserializeExecColumn(R);
    uint64_t T2 = nowNs();
    for (const ExecJob &J : Columns[I].Jobs)
      HashSink ^= hashDescriptor(J);
    uint64_t T3 = nowNs();
    Stats.EncodeNs += T1 - T0;
    Stats.DecodeNs += T2 - T1;
    Stats.HashNs += T3 - T2;
    Stats.Bytes += W.buffer().size();
    Stats.Cells += Columns[I].Jobs.size();
  }
  // Keeps the hashing observable so it cannot be optimised away.
  if (HashSink == 0x5eedULL)
    std::fputc(' ', stderr);

  const std::vector<RunOutcome> *Outcomes = &Got;
  std::vector<RunOutcome> Rerun;
  if (Execute) {
    CompileCounters C0 = compileCounters();
    VmCounters V0 = vmCounters();
    std::vector<std::vector<RunOutcome>> Per(Owned.size());
    Engine->forEachIndex(Owned.size(), [&](size_t I) {
      Per[I] = runExecColumn(Owned[I].view());
    });
    plus(Stats.Compile, minus(compileCounters(), C0));
    plus(Stats.Vm, minus(vmCounters(), V0));
    for (std::vector<RunOutcome> &P : Per)
      for (RunOutcome &O : P)
        Rerun.push_back(std::move(O));
    if (Rerun.size() != Got.size())
      Stats.Mismatches += std::max(Rerun.size(), Got.size());
    else
      for (size_t I = 0; I != Got.size(); ++I)
        Stats.Mismatches += !sameOutcome(Rerun[I], Got[I]);
    Outcomes = &Rerun;
  }

  for (const RunOutcome &O : *Outcomes) {
    uint64_t T0 = nowNs();
    WireWriter W;
    serializeRunOutcome(W, O);
    uint64_t T1 = nowNs();
    WireReader R(W.buffer().data(), W.buffer().size());
    RunOutcome Back = deserializeRunOutcome(R);
    uint64_t T2 = nowNs();
    Stats.EncodeNs += T1 - T0;
    Stats.DecodeNs += T2 - T1;
    Stats.Bytes += W.buffer().size();
    if (Back.OutputHash != O.OutputHash)
      ++Stats.Mismatches;
  }
}

//===----------------------------------------------------------------------===//
// TracingBackend / TracedTask
//===----------------------------------------------------------------------===//

TracingBackend::TracingBackend(std::unique_ptr<ExecBackend> Inner,
                               Recorder &Rec, bool Outer, Replayer *Replay)
    : Inner(std::move(Inner)), Rec(Rec), Outer(Outer), Replay(Replay) {}

std::vector<RunOutcome>
TracingBackend::run(const std::vector<ExecJob> &Jobs) {
  std::vector<RunOutcome> Out;
  {
    SpanGuard G{Rec, Rec.begin(Outer ? "exec.outer.run" : "exec.inner.run",
                               Jobs.size())};
    Out = Inner->run(Jobs);
  }
  if (Replay && !Jobs.empty()) {
    SpanGuard G{Rec, Rec.begin("replay", Jobs.size())};
    Replay->replay(groupIntoColumns(Jobs), Out);
  }
  return Out;
}

std::vector<RunOutcome>
TracingBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  uint64_t Cells = 0;
  for (const ExecColumn &C : Columns)
    Cells += C.Jobs.size();
  std::vector<RunOutcome> Out;
  {
    SpanGuard G{Rec,
                Rec.begin(Outer ? "exec.outer.runColumns"
                                : "exec.inner.runColumns",
                          Cells)};
    Out = Inner->runColumns(Columns);
  }
  if (Replay && Cells) {
    SpanGuard G{Rec, Rec.begin("replay", Cells)};
    Replay->replay(Columns, Out);
  }
  return Out;
}

void TracingBackend::forEachIndex(size_t N,
                                  const std::function<void(size_t)> &Body) {
  SpanGuard G{Rec, Rec.begin(Outer ? "exec.outer.forEachIndex"
                                   : "exec.inner.forEachIndex",
                             N)};
  Inner->forEachIndex(N, Body);
}

void TracedTask::step() {
  Rec.setCampaign(Campaign);
  SpanGuard G{Rec, Rec.begin("task.step")};
  Task.step();
}
