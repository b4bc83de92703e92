// Unit tests of the benchmark's own arithmetic: nearest-rank percentile
// selection, span self time and the coverage ratio. Exits non-zero on the
// first failed expectation; perfbench/run.py runs it before every
// benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "stats_test.cpp:%d: expectation failed: %s\n", line,
               what);
  ++failures;
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::Span;

void percentile_selection() {
  using perfbench::percentile;
  // 1..100 permuted (37 is coprime to 100): nearest rank picks the
  // ceil(q*n)-th smallest.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back((i * 37) % 100 + 1);
  const std::vector<double> original = v;
  EXPECT(near(percentile(v, 0.5), 50.0));
  EXPECT(near(percentile(v, 0.99), 99.0));
  EXPECT(near(percentile(v, 1.0), 100.0));
  EXPECT(near(percentile(v, 0.001), 1.0));
  EXPECT(v == original);  // the caller's samples are untouched
  // Odd count, duplicates, and a single sample.
  EXPECT(near(percentile({3, 1, 2}, 0.5), 2.0));
  EXPECT(near(percentile({5, 5, 5, 9}, 0.75), 5.0));
  EXPECT(near(percentile({5, 5, 5, 9}, 0.76), 9.0));
  EXPECT(near(percentile({7}, 0.99), 7.0));
  EXPECT(near(percentile({}, 0.5), 0.0));
  // Sub-microsecond samples keep their value: no histogram buckets.
  EXPECT(near(perfbench::median({0.03, 0.93, 0.04}), 0.04));
  bool threw = false;
  try {
    (void)percentile({1, 2}, 0.0);
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

void self_time_arithmetic() {
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) is clipped to the root -> covers [90,100).
  // child 1 has a grandchild [12,18).
  std::vector<Span> spans = {
      {0, 0, -1, 0, 100},  {1, 0, 0, 10, 30}, {1, 0, 0, 20, 50},
      {1, 0, 0, 90, 120},  {2, 0, 1, 12, 18},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  EXPECT(self.size() == 5);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);
  // Sequential children sum exactly: the tree's self times add up to the
  // root's duration.
  std::vector<Span> tiled = {
      {0, 0, -1, 0, 10}, {1, 0, 0, 0, 4}, {1, 0, 0, 4, 10}};
  const std::vector<std::int64_t> t = perfbench::self_times(tiled);
  EXPECT(t[0] == 0 && t[1] + t[2] == 10);
}

void span_log_nesting_and_totals() {
  perfbench::SpanLog log;
  const std::uint32_t outer = log.intern("outer");
  const std::uint32_t inner = log.intern("inner");
  EXPECT(log.intern("outer") == outer);
  const std::size_t a = log.open(outer, 7);
  const std::size_t b = log.open(inner, 7);
  log.close(b);
  const std::size_t c = log.open(inner, 7);
  log.close(c);
  log.close(a);
  EXPECT(log.spans()[b].parent == static_cast<std::int64_t>(a));
  EXPECT(log.spans()[a].parent == -1);
  EXPECT(log.spans()[c].run == 7);
  const auto totals = perfbench::totals_by_name(log);
  EXPECT(totals[outer].count == 1 && totals[inner].count == 2);
  EXPECT(totals[outer].self_ns + totals[inner].self_ns ==
         log.spans()[a].duration_ns());
  bool threw = false;
  const std::size_t d = log.open(outer, 0);
  log.open(inner, 0);
  try {
    log.close(d);  // not the innermost open span
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

void coverage() {
  EXPECT(near(perfbench::coverage_ratio(750, 1000), 0.75));
  EXPECT(near(perfbench::coverage_ratio(0, 1000), 0.0));
  EXPECT(near(perfbench::coverage_ratio(10, 0), 0.0));
  // Attributed time is the sum of root spans' self + descendants' self.
  std::vector<Span> spans = {{0, 0, -1, 0, 40}, {1, 0, 0, 5, 25},
                             {0, 0, -1, 60, 90}};
  std::int64_t attributed = 0;
  for (const std::int64_t s : perfbench::self_times(spans)) attributed += s;
  EXPECT(attributed == 70);
  EXPECT(near(perfbench::coverage_ratio(attributed, 100), 0.7));
}

}  // namespace

int main() {
  percentile_selection();
  self_time_arithmetic();
  span_log_nesting_and_totals();
  coverage();
  if (failures != 0) return 1;
  std::puts("perfbench self-test: ok");
  return 0;
}
