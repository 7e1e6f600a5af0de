// Tests of the benchmark's own arithmetic (arith.h). Built with the
// benchmark; hostbench/run.py runs it after every build and refuses to
// report numbers if it fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++failures;
  }
}

void test_median_and_quartiles() {
  using hostbench::quartiles;
  expect_near(hostbench::median({3, 1, 2}), 2, "median odd");
  expect_near(hostbench::median({4, 1, 3, 2}), 2.5, "median even");
  // Reference values from Python: statistics.quantiles([1..10], n=4)
  // == [2.75, 5.5, 8.25]; statistics.quantiles([1, 2, 3, 4, 5], n=4)
  // == [1.5, 3.0, 4.5].
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect_near(q.q1, 2.75, "q1 of 1..10");
  expect_near(q.q2, 5.5, "q2 of 1..10");
  expect_near(q.q3, 8.25, "q3 of 1..10");
  const auto q5 = quartiles({1, 2, 3, 4, 5});
  expect_near(q5.q1, 1.5, "q1 of 1..5");
  expect_near(q5.q3, 4.5, "q3 of 1..5");
  const auto q2 = quartiles({1, 2});  // Python: [0.75, 1.5, 2.25]
  expect_near(q2.q1, 0.75, "q1 of 1,2");
  expect_near(q2.q3, 2.25, "q3 of 1,2");
}

void test_tail_percentile_choice() {
  using hostbench::tail_percentile_for;
  expect_near(tail_percentile_for(10000), 99.9, "10000 samples support p99.9");
  expect_near(tail_percentile_for(9999), 99.0, "9999 samples leave <10 beyond p99.9");
  expect_near(tail_percentile_for(1000), 99.0, "1000 samples support p99");
  expect_near(tail_percentile_for(999), 95.0, "999 samples fall back to p95");
  expect_near(tail_percentile_for(100), 90.0, "100 samples support p90");
  expect_near(tail_percentile_for(50), 50.0, "50 samples: median only");
  expect_near(hostbench::percentile({1, 2, 3, 4, 5}, 25), 2, "interpolated p25");
  expect_near(hostbench::percentile({0, 10}, 99), 9.9, "interpolated p99");
}

void test_self_time_nested() {
  // dispatch [0, 100) > deliver [10, 60) > send [20, 30); plus a sibling
  // timer [70, 90) under dispatch.
  std::vector<hostbench::Span> spans(4);
  spans[0] = {0, 100, -1, 12};
  spans[1] = {10, 60, 0, 7};
  spans[2] = {20, 30, 1, 2};
  spans[3] = {70, 90, 0, 1};
  const auto self = hostbench::self_costs(spans);
  expect_near(static_cast<double>(self.ns[0]), 100 - 50 - 20, "dispatch self time");
  expect_near(static_cast<double>(self.ns[1]), 50 - 10, "deliver self time");
  expect_near(static_cast<double>(self.ns[2]), 10, "send self time");
  expect_near(static_cast<double>(self.ns[3]), 20, "timer self time");
  expect_near(static_cast<double>(self.allocs[0]), 12 - 7 - 1, "dispatch self allocs");
  expect_near(static_cast<double>(self.allocs[1]), 7 - 2, "deliver self allocs");
  std::int64_t sum = 0;
  for (const auto ns : self.ns) sum += ns;
  expect_near(static_cast<double>(sum), 100, "self times tile the root span");
}

void test_open_loop_from_due_time() {
  // 1 ms interval starting at t = 1000 ns, 5 commands.
  hostbench::OpenLoopSchedule s(1000, 1'000'000, 5);
  expect_near(static_cast<double>(s.take_due(999)), 0, "nothing due before start");
  expect_near(static_cast<double>(s.take_due(1000)), 1, "first command due at start");
  // The generator stalls for 3.5 ms: the three commands that fell due in
  // the meantime go out together on the late tick.
  expect_near(static_cast<double>(s.take_due(1000 + 3'500'000)), 3, "late tick catches up");
  // Command 1 was due at 1 ms but sent on the 3.5 ms tick. Its due time
  // stays 1 ms, so acknowledged at 5 ms its latency is 4 ms, not the 1.5 ms
  // since it was sent.
  expect_near(static_cast<double>(s.due_ns(1)), 1000 + 1'000'000,
              "due time survives a late tick");
  expect_near(static_cast<double>((1000 + 5'000'000) - s.due_ns(1)), 4'000'000,
              "latency counts from the due time");
  expect_near(static_cast<double>(s.take_due(1000 + 100'000'000)), 1, "capped at total");
  expect_near(s.done() ? 1 : 0, 1, "schedule done");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_percentile_choice();
  test_self_time_nested();
  test_open_loop_from_due_time();
  if (failures == 0) std::printf("hostbench arithmetic: all tests passed\n");
  return failures == 0 ? 0 : 1;
}
