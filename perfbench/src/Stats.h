//===- Stats.h - The benchmark's own arithmetic ------------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics and span arithmetic used by perfbench. Every
/// function here is pure and unit-tested (perfbench/tests/StatsTest.cpp):
///
///   - median and quartiles, the quartiles matching Python's
///     `statistics.quantiles(values, n=4)` (the "exclusive" method), so
///     the quartiles the benchmark prints are the ones a reader
///     recomputes from its samples;
///   - the tail rule: a percentile is reported only once at least ten
///     samples lie beyond it;
///   - span self time (duration minus the part of the interval its
///     children cover) and the trace residual (the root's self time as
///     a share of its duration).
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_PERFBENCH_STATS_H
#define CLFUZZ_PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of \p V (the mean of the two middle values for an even count);
/// 0 for an empty input.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(V, n=4)` does with its default "exclusive"
/// method. A single value is its own quartiles; an empty input gives
/// zeros.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  std::array<double, 3> Q{0.0, 0.0, 0.0};
  if (V.empty())
    return Q;
  std::sort(V.begin(), V.end());
  long Ld = static_cast<long>(V.size());
  if (Ld == 1)
    return {V[0], V[0], V[0]};
  const long N = 4, M = Ld + 1;
  for (long I = 1; I < N; ++I) {
    long J = I * M / N;
    J = J < 1 ? 1 : (J > Ld - 1 ? Ld - 1 : J);
    long Delta = I * M - J * N;
    Q[I - 1] = (V[J - 1] * static_cast<double>(N - Delta) +
                V[J] * static_cast<double>(Delta)) /
               static_cast<double>(N);
  }
  return Q;
}

/// Nearest-rank percentile \p P (0 < P <= 100) of \p V.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size());
  size_t Idx = static_cast<size_t>(Rank);
  if (static_cast<double>(Idx) < Rank)
    ++Idx; // ceil
  if (Idx == 0)
    Idx = 1;
  return V[std::min(Idx, V.size()) - 1];
}

/// The highest of the percentiles 99.9, 99 and 90 with at least ten of
/// \p N samples beyond it, or 0 when even p90 has fewer than ten (then
/// no tail is reported at all).
inline double tailPercentileFor(size_t N) {
  // Samples beyond p = N * (100 - p) / 100; compare in integers
  // (tenths of a percent) so p99.9 with N = 10000 counts exactly 10.
  for (unsigned TenthsBeyond : {1u, 10u, 100u})
    if (static_cast<uint64_t>(N) * TenthsBeyond >= 10u * 1000u)
      return 100.0 - TenthsBeyond / 10.0;
  return 0.0;
}

/// One traced interval. Parent indexes the enclosing span in the same
/// vector (-1 for a root); children start no earlier than their parent.
struct Interval {
  uint64_t Start = 0;
  uint64_t End = 0;
  long Parent = -1;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each child clipped to the parent's interval.
inline std::vector<uint64_t> selfTimes(const std::vector<Interval> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const Interval &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Kids[static_cast<size_t>(S.Parent)].push_back({S.Start, S.End});
  std::vector<uint64_t> Self(Spans.size(), 0);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Interval &P = Spans[I];
    uint64_t Dur = P.End > P.Start ? P.End - P.Start : 0;
    std::vector<std::pair<uint64_t, uint64_t>> &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, CurStart = 0, CurEnd = 0;
    bool Open = false;
    for (auto [S, E] : K) {
      S = std::max(S, P.Start);
      E = std::min(E, P.End);
      if (E <= S)
        continue;
      if (Open && S <= CurEnd) {
        CurEnd = std::max(CurEnd, E);
        continue;
      }
      if (Open)
        Covered += CurEnd - CurStart;
      CurStart = S;
      CurEnd = E;
      Open = true;
    }
    if (Open)
      Covered += CurEnd - CurStart;
    Self[I] = Dur - std::min(Dur, Covered);
  }
  return Self;
}

/// Trace residual: the share of root span \p Root's duration that no
/// child span accounts for (its self time over its duration).
inline double residualFrac(const std::vector<Interval> &Spans, size_t Root) {
  if (Root >= Spans.size())
    return 0.0;
  const Interval &R = Spans[Root];
  uint64_t Dur = R.End > R.Start ? R.End - R.Start : 0;
  if (Dur == 0)
    return 0.0;
  return static_cast<double>(selfTimes(Spans)[Root]) /
         static_cast<double>(Dur);
}

} // namespace perfbench

#endif // CLFUZZ_PERFBENCH_STATS_H
