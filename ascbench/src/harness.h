// Measurement primitives of the benchmark: order statistics, the span
// tracer, the failure tally, and host resource usage. Header-only so the
// logic tests (tests/test_harness.cpp) link it without the workloads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "vm/machine.h"

namespace ascbench {

using Metrics = std::map<std::string, double>;

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---- order statistics ----

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. `q` in [0, 1]; NaN for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail percentiles a timing may be reported at, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// Highest percentile of kTailLadder that still has at least ten samples
/// beyond it among `n` samples (0 when even the median has fewer).
inline double highest_supported_percentile(std::size_t n) {
  for (const double p : kTailLadder) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// A tail timing: the value at `percentile`, capped at `want` and lowered to
/// the highest percentile the sample count supports.
struct Tail {
  double percentile = 0;  // 0 = too few samples for any supported percentile
  double value = 0;
  std::size_t samples = 0;
};

inline Tail tail(const std::vector<double>& v, double want) {
  Tail t;
  t.samples = v.size();
  t.percentile = std::min(want, highest_supported_percentile(v.size()));
  if (t.percentile > 0) t.value = quantile(v, t.percentile / 100.0);
  return t;
}

// ---- span tracer ----

/// In-memory span recorder with self-time accounting. Spans nest on a stack;
/// a span's self time is its duration minus the durations of its direct
/// children, so the self times of a tree sum to its root's duration. Each
/// name keeps a count, the summed duration (busy) and the summed self time.
/// Time comes from the caller (tests pass synthetic instants); the
/// benchmark passes now_ns().
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Id for `name`, stable for the tracer's lifetime.
  int id(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<int>(names_.size() - 1);
  }

  /// Open span `id` at `t`; returns its depth (the stack size before it).
  std::size_t begin(int span_id, std::uint64_t t) {
    stack_.push_back(Open{span_id, t, 0});
    return stack_.size() - 1;
  }

  /// Close the innermost open span at `t`.
  void end(std::uint64_t t) {
    if (stack_.empty()) return;
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t >= o.start ? t - o.start : 0;
    Totals& tot = totals_[static_cast<std::size_t>(o.id)];
    ++tot.count;
    tot.busy_ns += dur;
    tot.self_ns += dur >= o.children ? dur - o.children : 0;
    if (!stack_.empty()) stack_.back().children += dur;
  }

  /// Close every span opened at `depth` or deeper (a trap killed between
  /// two stage hooks leaves its stage span open; the enclosing span ends it).
  void end_to(std::size_t depth, std::uint64_t t) {
    while (stack_.size() > depth) end(t);
  }

  std::size_t depth() const { return stack_.size(); }
  Totals totals(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return totals_[i];
    }
    return {};
  }

 private:
  struct Open {
    int id = 0;
    std::uint64_t start = 0;
    std::uint64_t children = 0;  // summed duration of closed direct children
  };
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
};

/// RAII span on the live clock; a no-op when `tracer` is null (untraced
/// runs pay one branch per call into a layer).
class Span {
 public:
  Span(Tracer* tracer, int span_id) : tracer_(tracer) {
    if (tracer_ != nullptr) depth_ = tracer_->begin(span_id, now_ns());
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end_to(depth_, now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t depth_ = 0;
};

// ---- failure tally (fail_ratio) ----

/// Failed operations counted against attempted ones. The first few failure
/// descriptions are kept for the run's diagnostics.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failures.size() < 8) first_failures.push_back(what);
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// What a guest must reproduce: its unmonitored run's observable output.
struct Reference {
  int exit_code = 0;
  std::string out;
};

/// Oracle for one guest run under ASC: it completed without a monitor
/// verdict and printed exactly what the unmonitored run printed. A run
/// stopped by the cycle limit always fails, however it ended.
inline bool run_matches(const asc::vm::RunResult& r, const Reference& ref) {
  return r.completed && !r.cycle_limit_hit && r.violation == asc::os::Violation::None &&
         r.exit_code == ref.exit_code && r.stdout_data == ref.out;
}

/// Oracle for one fleet tenant: no invariant trip, a tampered tenant was
/// stopped by a monitor verdict, and an untampered one was not.
inline bool tenant_sound(const asc::fleet::TenantVerdict& tv) {
  if (!tv.trips.empty()) return false;
  return tv.tampered == (tv.violation != asc::os::Violation::None);
}

// ---- host resource usage ----

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double max_rss_mb = 0;
  double wall_s = 0;
};

inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  u.wall_s = now_s();
  return u;
}

/// Resource use between two readings (max_rss_mb is the later high-water).
inline Usage usage_delta(const Usage& a, const Usage& b) {
  Usage d;
  d.user_s = b.user_s - a.user_s;
  d.sys_s = b.sys_s - a.sys_s;
  d.minor_faults = b.minor_faults - a.minor_faults;
  d.max_rss_mb = b.max_rss_mb;
  d.wall_s = b.wall_s - a.wall_s;
  return d;
}

}  // namespace ascbench
