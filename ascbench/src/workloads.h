// The four workloads and the interface main.cpp runs them through. Each
// workload owns its inputs (made from the seed in setup()), its oracles, and
// the per-layer numbers only it can see.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/asc.h"
#include "harness.h"
#include "util/executor.h"
#include "util/rng.h"

namespace ascbench {

/// Executor width for every parallel pipeline the benchmark drives.
inline constexpr int kJobs = 2;

/// A seeded permutation of 0..n-1: the order a round visits its jobs in.
inline std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  asc::util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

/// Span ids of the layer boundaries, registered once per tracer.
struct SpanIds {
  int analyze = 0;
  int rewrite = 0;
  int rekey = 0;
  int vm_run = 0;
  int enforce = 0;
  int dispatch = 0;
  int fleet_run = 0;

  explicit SpanIds(Tracer& t)
      : analyze(t.id("installer.analyze")),
        rewrite(t.id("installer.rewrite")),
        rekey(t.id("installer.rekey")),
        vm_run(t.id("vm.run")),
        enforce(t.id("os.enforce")),
        dispatch(t.id("os.dispatch")),
        fleet_run(t.id("fleet.run")) {}
};

/// Tracing context handed to a workload: null tracer = untraced.
struct Trace {
  Tracer* tracer = nullptr;
  const SpanIds* ids = nullptr;
};

/// One round's work: the workload's fixed job list, run once.
struct Round {
  double ops = 0;          // primary operations completed
  double ops_busy_s = 0;   // host seconds spent on them
  double aux_ops = 0;      // secondary operations completed
  double aux_busy_s = 0;   // host seconds spent on them
  std::uint64_t modeled_cycles = 0;  // exact, so the metric is seed-order free
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything a run does before its timed phase: build every input from
  /// `seed`, install, and take the oracle references (unmonitored runs of
  /// the same guests, fresh installs under the new keys). Called several
  /// times per run (setup_s is their median); each call starts from scratch.
  virtual void setup(std::uint64_t seed, const Trace& trace, Tally& tally) = 0;
  /// One round of the job list; records every checked operation in `tally`.
  virtual Round round(const Trace& trace, Tally& tally) = 0;
  /// Traced run only: calibrations, per-layer counters, and the spans the
  /// workload recorded into `tracer`.
  virtual void layer_metrics(const Tracer& tracer, Metrics& layer) = 0;

  /// Names the primary and secondary rates of the untraced half of a
  /// traced run with their workload-specific e2e.* metrics.
  virtual void name_rates(double ops_per_s, double aux_per_s, Metrics& layer) const = 0;
  /// Worker threads the timed phase uses (for util.executor.cpu_util).
  virtual int jobs() const { return 1; }
};

std::unique_ptr<Workload> make_syscall_mix();
std::unique_ptr<Workload> make_cpu_macro();
std::unique_ptr<Workload> make_fleet_churn();
std::unique_ptr<Workload> make_install_rekey();

/// Shared guest machinery for the two workloads that run guests.
namespace guests {

/// Explicit cycle limit, five times the Machine default: a whole
/// syscall_mix round takes 2.2e9 modeled cycles, so no single guest comes
/// near it, and a run that does reach it fails its oracle.
inline constexpr std::uint64_t kCycleLimit = 20'000'000'000ull;

/// Pins every knob the environment could otherwise change: dispatch engine,
/// cycle limit, and the full tier lattice (cache + shadow + inline).
void pin_system(asc::System& sys);

/// Install `img` on `sys` through analyze + rewrite (spans when traced).
asc::installer::InstallResult install(asc::System& sys, const asc::binary::Image& img,
                                      std::uint16_t program_id, asc::util::Executor& exec,
                                      const Trace& trace);

/// Run under a `vm.run` span; when traced, the kernel's stage hook records
/// the enforce (Trap->Enforce) and dispatch (Enforce->Dispatch) spans of
/// top-level traps and their modeled cycles.
struct TrapProbe {
  std::uint64_t traps = 0;            // Trap-stage hooks (hooked traps)
  std::uint64_t enforce_spans = 0;    // top-level traps with an enforce span
  std::uint64_t enforce_cycles = 0;   // modeled cycles inside enforce spans
  std::uint64_t dispatch_spans = 0;
  std::uint64_t instructions = 0;
  asc::vm::PredecodeStats predecode;
  asc::os::TierStats tiers;

  /// Per-layer os.* and vm.* metrics from these counts and the spans.
  void report(const Tracer& tracer, Metrics& layer) const;
};

/// Host microseconds to build one guest address space and load an image
/// into it (vm::Memory() + load_image), median over the given images.
double memory_setup_us(const std::vector<asc::binary::Image>& images);

asc::vm::RunResult run(asc::System& sys, const asc::binary::Image& img,
                       const std::vector<std::string>& argv, const Trace& trace,
                       TrapProbe& probe);

}  // namespace guests

}  // namespace ascbench
