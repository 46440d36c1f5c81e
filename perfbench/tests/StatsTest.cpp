//===- StatsTest.cpp - Tests of perfbench's own arithmetic ----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
// Expected quartiles were computed with Python's
// `statistics.quantiles(values, n=4)`, the spread the benchmark's bounds
// are checked with. Runs under ctest in the perfbench build; exits
// non-zero on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "StatsTest.cpp:%d: check failed: %s\n", Line, What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

#define CHECK(X) check((X), #X, __LINE__)

void testMedian() {
  CHECK(median({}) == 0.0);
  CHECK(median({3.0}) == 3.0);
  CHECK(median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void testQuartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto Q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  CHECK(near(Q[0], 2.75) && near(Q[1], 5.5) && near(Q[2], 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  Q = quartiles({2, 1});
  CHECK(near(Q[0], 0.75) && near(Q[1], 1.5) && near(Q[2], 2.25));
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  Q = quartiles({1, 2, 3, 4, 5});
  CHECK(near(Q[0], 1.5) && near(Q[1], 3.0) && near(Q[2], 4.5));
  Q = quartiles({7});
  CHECK(Q[0] == 7 && Q[2] == 7);
  Q = quartiles({});
  CHECK(Q[0] == 0 && Q[2] == 0);
}

void testPercentile() {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  CHECK(percentile(V, 90) == 90);
  CHECK(percentile(V, 50) == 50);
  CHECK(percentile({5, 1, 3}, 100) == 5);
  CHECK(percentile({5, 1, 3}, 1) == 1);
}

void testTailRule() {
  // Fewer than 100 samples: not even p90 has ten beyond it.
  CHECK(tailPercentileFor(0) == 0.0);
  CHECK(tailPercentileFor(99) == 0.0);
  CHECK(tailPercentileFor(100) == 90.0);
  CHECK(tailPercentileFor(999) == 90.0);
  CHECK(tailPercentileFor(1000) == 99.0);
  CHECK(tailPercentileFor(9999) == 99.0);
  CHECK(near(tailPercentileFor(10000), 99.9));
}

void testSelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [60,70); grandchild [12,18) under the first child.
  std::vector<Interval> S = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {60, 70, 0}, {12, 18, 1}};
  std::vector<uint64_t> Self = selfTimes(S);
  CHECK(Self[0] == 100 - 40 - 10); // union of children = [10,50) + [60,70)
  CHECK(Self[1] == 20 - 6);
  CHECK(Self[2] == 30);
  CHECK(Self[4] == 6);
  // A child running past its parent is clipped to the parent.
  std::vector<uint64_t> Clip = selfTimes({{0, 10, -1}, {5, 20, 0}});
  CHECK(Clip[0] == 5);
}

void testResidual() {
  std::vector<Interval> S = {{0, 200, -1}, {0, 50, 0}, {100, 150, 0}};
  CHECK(near(residualFrac(S, 0), 0.5));
  CHECK(residualFrac({{5, 5, -1}}, 0) == 0.0);
  CHECK(residualFrac(S, 7) == 0.0);
}

} // namespace

int main() {
  testMedian();
  testQuartiles();
  testPercentile();
  testTailRule();
  testSelfTime();
  testResidual();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench stats tests passed\n");
  return EXIT_SUCCESS;
}
