//===- RemoteBackend.h - Socket-fed multi-host execution backend -*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator half of multi-host campaign execution: an
/// ExecBackend that multiplexes a batch of campaign cells over N
/// `clfuzz worker` connections (exec/WorkerLoop.h), speaking the
/// framed protocol of exec/WireProtocol.h (docs/wire-protocol.md).
/// This is the ROADMAP's "point the job frames at a TCP stream" step:
/// the descriptors already crossed a process boundary for the process
/// pool, so crossing a machine boundary changes scheduling and
/// failure handling, never results.
///
/// Scheduling: runColumns() sends each campaign column as one job
/// frame — the kernel crosses the wire once, and the worker's slot
/// parses it once and clones per cell (exec/ExecutionEngine.h's
/// runExecColumn) — while run() sends every job as a one-cell column.
/// A batch with fewer columns than the fleet has slots splits its
/// columns into consecutive pieces so every slot gets a frame. Each
/// worker advertises its slot count in the handshake; the coordinator
/// keeps an in-flight window of twice that many frames per connection
/// (enough to hide one round trip, small enough that a dying worker
/// strands little) and sends each frame to the least-loaded link. Everything else is per cell: the
/// worker answers every cell with its own outcome frame, tagged with
/// the cell's submission index, in whatever order its slots finish,
/// and results reassemble into Results[I] == outcome of Jobs[I] — the
/// pipeline's bit-identity contract survives the network because job
/// descriptors are pure (exec/JobSerialize.h) and reassembly is
/// index-keyed, so `--backend=remote` output is byte-identical to
/// `--backend=inline` at any worker count.
///
/// Failure handling mirrors the process pool, one level up:
///
///  * a worker that dies (EOF, reset, garbage frame) has its
///    unanswered cells requeued onto the surviving workers, each as a
///    one-cell frame; a cell whose worker dies twice is recorded as
///    that cell's Crash outcome, never silently dropped;
///  * ExecOptions::RemoteTimeoutMs arms a per-cell deadline at
///    dispatch; a worker that blows it is disconnected and the cell
///    requeued (second expiry = Timeout outcome). With a deadline set,
///    every cell travels as a one-cell frame, so the deadline covers
///    exactly one cell, as it did before columns crossed the wire;
///  * a busy worker that goes quiet is probed with heartbeat frames
///    (ExecOptions::RemoteHeartbeatMs); a missed probe counts as
///    worker death — this is how a wedged-but-connected worker is
///    distinguished from a slow one;
///  * dead endpoints are re-dialled at every batch boundary (and
///    immediately when no worker is left), so a restarted worker
///    rejoins the campaign without coordinator restart.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_REMOTEBACKEND_H
#define CLFUZZ_EXEC_REMOTEBACKEND_H

#include "exec/ExecBackend.h"

#include <string>
#include <vector>

namespace clfuzz {

/// Splits a `--workers=host:port,host:port,...` value. Entries are
/// not validated here (makeRemoteBackend rejects malformed ones).
std::vector<std::string> splitWorkerList(const std::string &List);

/// Builds the remote backend from ExecOptions::RemoteWorkers
/// ("host:port" each), RemoteTimeoutMs and RemoteHeartbeatMs. Throws
/// std::runtime_error when the worker list is empty or malformed, or
/// when this platform has no socket support; workers themselves are
/// dialled lazily (first run()), so a not-yet-started worker fleet is
/// an execution-time error, not a construction-time one.
std::unique_ptr<ExecBackend> makeRemoteBackend(const ExecOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_REMOTEBACKEND_H
