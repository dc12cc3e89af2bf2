// Tests of the benchmark's own logic: the tail-percentile rule, span
// self-time arithmetic, and failure counting.
#include <gtest/gtest.h>

#include <numeric>

#include "harness.h"

namespace {

using namespace ascbench;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(39), 50.0);
  EXPECT_EQ(highest_supported_percentile(40), 75.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Percentile, TailIsCappedAndLowered) {
  // 1000 samples support p99: exactly ten samples lie beyond it.
  const Tail t = tail(one_to(1000), 99.0);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  // 10000 samples would support p99.9, but the caller asked for p99.
  EXPECT_EQ(tail(one_to(10000), 99.0).percentile, 99.0);
  // 999 samples drop to p95.
  const Tail low = tail(one_to(999), 99.0);
  EXPECT_EQ(low.percentile, 95.0);
  EXPECT_EQ(low.value, 950.0);
  // Too few samples for any percentile.
  EXPECT_EQ(tail(one_to(5), 99.0).percentile, 0.0);
}

TEST(Percentile, NearestRankAndMedian) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(quantile({5.0}, 0.99), 5.0);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Tracer, SelfTimeIsDurationMinusDirectChildren) {
  Tracer tr;
  const int run = tr.id("vm.run");
  const int enforce = tr.id("os.enforce");
  const int dispatch = tr.id("os.dispatch");
  tr.begin(run, 0);
  tr.begin(enforce, 10);
  tr.end(25);  // enforce: 15
  tr.begin(dispatch, 25);
  tr.begin(enforce, 30);  // a nested trap inside dispatch
  tr.end(34);             // enforce: 4
  tr.end(45);             // dispatch: 20, self 16
  tr.end(100);            // run: 100, self 100 - 15 - 20 = 65

  const auto r = tr.totals("vm.run");
  const auto e = tr.totals("os.enforce");
  const auto d = tr.totals("os.dispatch");
  EXPECT_EQ(r.busy_ns, 100u);
  EXPECT_EQ(r.self_ns, 65u);
  EXPECT_EQ(e.count, 2u);
  EXPECT_EQ(e.busy_ns, 19u);
  EXPECT_EQ(e.self_ns, 19u);
  EXPECT_EQ(d.busy_ns, 20u);
  EXPECT_EQ(d.self_ns, 16u);
  // Self times of the tree sum to the root's duration.
  EXPECT_EQ(r.self_ns + e.self_ns + d.self_ns, r.busy_ns);
}

TEST(Tracer, EndToClosesSpansLeftOpen) {
  // A trap killed after Enforce never reaches Dispatch: its dispatch span is
  // still open when the run returns, and the run's span closes it.
  Tracer tr;
  const int run = tr.id("vm.run");
  const int dispatch = tr.id("os.dispatch");
  const std::size_t depth = tr.begin(run, 0);
  tr.begin(dispatch, 40);
  tr.end_to(depth, 50);
  EXPECT_EQ(tr.depth(), 0u);
  EXPECT_EQ(tr.totals("os.dispatch").busy_ns, 10u);
  EXPECT_EQ(tr.totals("vm.run").busy_ns, 50u);
  EXPECT_EQ(tr.totals("vm.run").self_ns, 40u);
  EXPECT_EQ(tr.totals("never.opened").count, 0u);
}

TEST(Tracer, NullTracerSpanIsNoOp) {
  const Span s(nullptr, 0);
  SUCCEED();
}

TEST(FailRatio, CountsAgainstAttempted) {
  Tally t;
  EXPECT_EQ(t.fail_ratio(), 0.0);
  t.record(true, "a");
  t.record(false, "b");
  t.record(true, "c");
  t.record(false, "d");
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.fail_ratio(), 0.5);
  ASSERT_EQ(t.first_failures.size(), 2u);
  EXPECT_EQ(t.first_failures[0], "b");
}

asc::vm::RunResult clean_run() {
  asc::vm::RunResult r;
  r.completed = true;
  r.exit_code = 0;
  r.stdout_data = "ok\n";
  return r;
}

TEST(FailRatio, CycleLimitedRunFails) {
  const Reference ref{0, "ok\n"};
  EXPECT_TRUE(run_matches(clean_run(), ref));
  // Stopped by the cycle limit: a failure, even with matching output so far.
  asc::vm::RunResult limited = clean_run();
  limited.cycle_limit_hit = true;
  EXPECT_FALSE(run_matches(limited, ref));
  limited.completed = false;
  EXPECT_FALSE(run_matches(limited, ref));
}

TEST(FailRatio, OutputOrExitMismatchOrVerdictFails) {
  const Reference ref{0, "ok\n"};
  asc::vm::RunResult r = clean_run();
  r.stdout_data = "ok?\n";
  EXPECT_FALSE(run_matches(r, ref));
  r = clean_run();
  r.exit_code = 1;
  EXPECT_FALSE(run_matches(r, ref));
  r = clean_run();
  r.violation = asc::os::Violation::BadCallMac;
  EXPECT_FALSE(run_matches(r, ref));
}

TEST(FailRatio, TamperedTenantCountsAsDetected) {
  asc::fleet::TenantVerdict tv;
  EXPECT_TRUE(tenant_sound(tv));  // clean, no verdict
  tv.tampered = true;
  EXPECT_FALSE(tenant_sound(tv));  // tampered but nothing stopped it
  tv.violation = asc::os::Violation::BadCallMac;
  EXPECT_TRUE(tenant_sound(tv));  // tampered and fail-stopped: detected
  tv.trips.push_back("tamper detected but did not fail-stop");
  EXPECT_FALSE(tenant_sound(tv));

  asc::fleet::TenantVerdict clean_killed;
  clean_killed.violation = asc::os::Violation::BadCallMac;
  EXPECT_FALSE(tenant_sound(clean_killed));  // a clean tenant must not be stopped

  Tally t;
  asc::fleet::TenantVerdict detected;
  detected.tampered = true;
  detected.violation = asc::os::Violation::BadCallMac;
  t.record(tenant_sound(detected), "detected");
  t.record(tenant_sound(asc::fleet::TenantVerdict{}), "clean");
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.attempted, 2u);
}

}  // namespace
