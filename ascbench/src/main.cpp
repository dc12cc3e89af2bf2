// ascbench: the repository's benchmark program.
//
//   ascbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up five
// times (setup_s is the median; set-up includes the oracle references),
// then rounds of the workload's job list until --seconds have passed. --trace 1 sets up
// once with spans on, runs half the time untraced (the e2e.* rates and the
// host shares) and half traced (spans + counters), and reports the per-layer
// metrics with the tracing overhead between the two halves.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (every metric of the selected set, by name, with its unit).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "crypto/aes.h"
#include "workloads.h"

namespace {

using namespace ascbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, every workload, tracing off (see README.md for what
/// an "op" is on each workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},     {"aux_ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},      {"modeled_mcycles", "Mcycles"},
};

/// Per-layer metrics of a traced run. A layer the workload does not
/// exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"e2e.verified_syscalls_per_s", "1/s"},
    {"e2e.guest_mips", "MIPS"},
    {"e2e.tenants_per_s", "1/s"},
    {"e2e.installs_per_s", "1/s"},
    {"e2e.rekeys_per_s", "1/s"},
    {"e2e.install_p50_ms", "ms"},
    {"e2e.install_p99_ms", "ms"},
    {"e2e.install_p99_percentile", "%"},
    {"e2e.install_samples", "count"},
    {"e2e.modeled_overhead_pct", "%"},
    {"e2e.fail_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"installer.analyze.busy_s", "s"},
    {"installer.rewrite.busy_s", "s"},
    {"installer.sites", "count"},
    {"installer.macs_signed", "count"},
    {"installer.rekey.busy_s", "s"},
    {"installer.rekey.macs", "count"},
    {"crypto.rekey_macs_per_s", "1/s"},
    {"vm.run.busy_s", "s"},
    {"vm.guest.self_s", "s"},
    {"vm.ns_per_instr", "ns"},
    {"vm.instructions", "count"},
    {"vm.predecode.blocks", "count"},
    {"vm.predecode.superinstructions", "count"},
    {"vm.predecode.invalidations", "count"},
    {"vm.memory.setup_us", "us"},
    {"host.minor_faults_per_tenant", "count"},
    {"host.setup_minor_faults_per_tenant", "count"},
    {"host.sys_share", "ratio"},
    {"os.traps", "count"},
    {"os.enforce.busy_s", "s"},
    {"os.enforce.ns_per_trap", "ns"},
    {"os.enforce.modeled_cycles_per_trap", "cycles"},
    {"os.dispatch.busy_s", "s"},
    {"os.dispatch.ns_per_trap", "ns"},
    {"os.tier.eager", "count"},
    {"os.tier.cached", "count"},
    {"os.tier.shadowed", "count"},
    {"os.tier.inline", "count"},
    {"os.tier.fast_ratio", "ratio"},
    {"os.tier.promotions", "count"},
    {"os.tier.demotions", "count"},
    {"fleet.run.busy_s", "s"},
    {"fleet.lifecycles", "count"},
    {"fleet.rotations", "count"},
    {"fleet.respawns", "count"},
    {"fleet.swaps", "count"},
    {"fleet.shard_bytes_per_tenant", "bytes"},
    {"fleet.tamper_detected_ratio", "ratio"},
    {"fleet.trips", "count"},
    {"util.executor.cpu_util", "ratio"},
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Fewest rounds a timed phase runs, however long they take.
constexpr int kMinRounds = 3;
/// Quantile of the per-round rates a rate metric reports: the rate four
/// rounds in five reach. On a shared host the rounds alternate between a
/// fast and a slow phase (all jobs of a round slow down together, by up to
/// 40%); every run contains the slow phase, so this quantile is steady
/// across runs, while the median flips with the share of fast rounds.
constexpr double kRateQuantile = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ascbench: %s\nusage: ascbench --workload "
               "{syscall_mix|cpu_macro|fleet_churn|install_rekey} --seed N --seconds S "
               "--trace {0|1}\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "syscall_mix") return make_syscall_mix();
  if (name == "cpu_macro") return make_cpu_macro();
  if (name == "fleet_churn") return make_fleet_churn();
  if (name == "install_rekey") return make_install_rekey();
  return nullptr;
}

/// Fix every process-wide knob the environment could change, so ASC_AES,
/// ASC_DISPATCH or ASC_JOBS cannot alter the program being measured. The
/// dispatch engine is also pinned per System (guests::pin_system); the
/// fleet's own Systems read the default, hence the unsetenv.
void pin_configuration() {
  unsetenv("ASC_DISPATCH");
  unsetenv("ASC_AES");
  unsetenv("ASC_JOBS");
  asc::crypto::Aes128::set_backend_policy(asc::crypto::Aes128::BackendPolicy::Auto);
  asc::util::Executor::set_global_jobs(kJobs);
}

struct Phase {
  double ops_per_s = 0;
  double aux_per_s = 0;
  double modeled_mcycles = 0;
};

/// One untimed warm-up round, then rounds until `seconds` have passed (at
/// least kMinRounds). Rates report kRateQuantile of their per-round rates;
/// modeled cycles are the same in every round.
Phase timed(Workload& w, double seconds, const Trace& trace, Tally& tally) {
  w.round(trace, tally);
  std::vector<double> ops;
  std::vector<double> aux;
  std::vector<double> modeled;
  const double start = now_s();
  while (ops.size() < static_cast<std::size_t>(kMinRounds) || now_s() - start < seconds) {
    const Round r = w.round(trace, tally);
    ops.push_back(r.ops_busy_s > 0 ? r.ops / r.ops_busy_s : 0.0);
    aux.push_back(r.aux_busy_s > 0 ? r.aux_ops / r.aux_busy_s : 0.0);
    modeled.push_back(static_cast<double>(r.modeled_cycles) / 1e6);
  }
  std::fprintf(stderr, "ascbench: %s%zu rounds, ops/s min %.6g p20 %.6g median %.6g max %.6g\n",
               trace.tracer != nullptr ? "traced, " : "", ops.size(), quantile(ops, 0),
               quantile(ops, kRateQuantile), median(ops), quantile(ops, 1));
  return Phase{quantile(ops, kRateQuantile), quantile(aux, kRateQuantile), median(modeled)};
}

void print_result(const Tally& tally, const Metrics& values, const MetricDef* defs,
                  std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 && tally.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it != values.end() ? it->second : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  pin_configuration();
  const std::unique_ptr<Workload> w = make(args.workload);
  if (!w) usage(("unknown workload " + args.workload).c_str());

  const bool aesni = asc::crypto::Aes128::aesni_supported();
  std::printf("{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"host_cpus\": %u, \"build_type\": \"%s\", "
              "\"aes_backend\": \"%s\", \"dispatch\": \"threaded\", \"jobs\": %d, "
              "\"tiers\": \"cache+shadow+inline (fleet_churn: cache+shadow)\"}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(), ASCBENCH_BUILD_TYPE,
              aesni ? "aesni" : "scratch", kJobs);

  Tally tally;
  Metrics out;
  try {
    if (!args.trace) {
      std::vector<double> setups;
      for (int i = 0; i < kSetups; ++i) {
        const double t0 = now_s();
        w->setup(args.seed, Trace{}, tally);
        setups.push_back(now_s() - t0);
      }
      const Phase ph = timed(*w, args.seconds, Trace{}, tally);
      out["setup_s"] = median(setups);
      out["ops_per_s"] = ph.ops_per_s;
      out["aux_ops_per_s"] = ph.aux_per_s;
      out["modeled_mcycles"] = ph.modeled_mcycles;
      out["peak_rss_mb"] = usage_now().max_rss_mb;
    } else {
      Tracer tracer;
      const SpanIds ids(tracer);
      const Trace traced{&tracer, &ids};
      w->setup(args.seed, traced, tally);
      const Usage u0 = usage_now();
      const Phase plain = timed(*w, args.seconds / 2, Trace{}, tally);
      const Usage du = usage_delta(u0, usage_now());
      const Phase spans = timed(*w, args.seconds / 2, traced, tally);

      w->name_rates(plain.ops_per_s, plain.aux_per_s, out);
      out["trace.overhead_pct"] =
          spans.ops_per_s > 0 ? (plain.ops_per_s / spans.ops_per_s - 1.0) * 100.0 : 0.0;
      const double cpu = du.user_s + du.sys_s;
      out["host.sys_share"] = cpu > 0 ? du.sys_s / cpu : 0.0;
      out["util.executor.cpu_util"] = du.wall_s > 0 ? cpu / (du.wall_s * w->jobs()) : 0.0;
      for (const char* span : {"installer.analyze", "installer.rewrite", "installer.rekey",
                               "vm.run", "os.enforce", "os.dispatch", "fleet.run"}) {
        out[std::string(span) + ".busy_s"] =
            static_cast<double>(tracer.totals(span).busy_ns) / 1e9;
      }
      w->layer_metrics(tracer, out);
      out["e2e.fail_ratio"] = tally.fail_ratio();
    }
  } catch (const std::exception& e) {
    // The program under test threw: the run is not a measurement.
    std::fprintf(stderr, "ascbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& f : tally.first_failures) {
    std::fprintf(stderr, "ascbench: FAILED %s\n", f.c_str());
  }
  if (args.trace) {
    print_result(tally, out, kPerLayer, std::size(kPerLayer));
  } else {
    print_result(tally, out, kEndToEnd, std::size(kEndToEnd));
  }
  return 0;
}
