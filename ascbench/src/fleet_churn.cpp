// fleet_churn: fleet::Driver with the default churn cadences, per-tenant
// keys, a seeded tamper set of about 2% of tenants, and jobs = 2.
//
// Why: host time goes into building and tearing down guest address spaces
// and into per-tenant rekeys and eager first-call verification after key
// rotations -- the cost the sparse-memory work targets. It is also the only
// workload that runs the tamper -> fail-stop path next to clean calls.
#include "util/rng.h"
#include "workloads.h"

namespace ascbench {
namespace {

using namespace asc;

/// Tenants per timed fleet and per set-up warm-up fleet.
constexpr int kTenants = 1000;
constexpr int kWarmupTenants = 250;
/// One tenant in kTamperOneIn runs a tampered lifecycle.
constexpr std::uint64_t kTamperOneIn = 50;

class FleetChurn final : public Workload {
 public:
  void setup(std::uint64_t seed, const Trace& trace, Tally&) override {
    seed_ = seed;
    tamper_.clear();
    util::Rng rng(seed ^ 0x7A3BE5ULL);
    for (int t = 0; t < kTenants; ++t) {
      if (rng.next_below(kTamperOneIn) == 0) tamper_.push_back(t);
    }
    // Warm-up: the first fleet in a process pays for growing the heap (about
    // half a million minor faults per thousand tenants); later fleets reuse
    // it. The warm-up takes that cost here, inside setup_s, so every timed
    // fleet sees the same allocator state.
    const Usage before = usage_now();
    run_fleet(kWarmupTenants, trace);
    if (cold_faults_per_tenant_ < 0) {
      cold_faults_per_tenant_ =
          usage_delta(before, usage_now()).minor_faults / static_cast<double>(kWarmupTenants);
    }
  }

  Round round(const Trace& trace, Tally& tally) override {
    const Usage before = usage_now();
    const double t0 = now_s();
    last_ = run_fleet(kTenants, trace);
    Round rd;
    rd.ops_busy_s = now_s() - t0;
    faults_ += usage_delta(before, usage_now()).minor_faults;
    tenants_run_ += kTenants;
    rd.ops = static_cast<double>(last_.tenants.size());
    rd.aux_ops = static_cast<double>(last_.total_syscalls);
    rd.aux_busy_s = rd.ops_busy_s;
    rd.modeled_cycles = last_.total_cycles;
    for (const fleet::TenantVerdict& tv : last_.tenants) {
      tally.record(tenant_sound(tv), "fleet tenant " + std::to_string(tv.tenant) + " " +
                                         tv.guest + " " + tv.plan_repr);
    }
    // A fleet that came back short is missing tenants: count each missing one.
    for (std::size_t t = last_.tenants.size(); t < static_cast<std::size_t>(kTenants); ++t) {
      tally.record(false, "fleet tenant " + std::to_string(t) + " missing");
    }
    return rd;
  }

  void layer_metrics(const Tracer&, Metrics& layer) override {
    const double n = static_cast<double>(last_.tenants.size());
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    layer["fleet.lifecycles"] = n;
    layer["fleet.rotations"] = last_.rotations;
    layer["fleet.respawns"] = last_.respawns;
    layer["fleet.swaps"] = last_.swaps;
    layer["fleet.shard_bytes_per_tenant"] = per(static_cast<double>(last_.total_shard_bytes), n);
    layer["fleet.tamper_detected_ratio"] =
        per(static_cast<double>(last_.tamper_detected), static_cast<double>(last_.tampered));
    layer["fleet.trips"] = static_cast<double>(last_.trips.size());
    layer["host.minor_faults_per_tenant"] = per(faults_, tenants_run_);
    layer["host.setup_minor_faults_per_tenant"] = cold_faults_per_tenant_;
    // Address-space set-up on the fleet's own installed guests.
    std::vector<binary::Image> images;
    for (const fault::GuestProgram& g : fleet::default_fleet_guests(os::Personality::LinuxSim)) {
      System sys(os::Personality::LinuxSim);
      images.push_back(sys.install(g.image).image);
    }
    layer["vm.memory.setup_us"] = guests::memory_setup_us(images);
  }

  void name_rates(double ops_per_s, double aux_per_s, Metrics& layer) const override {
    layer["e2e.tenants_per_s"] = ops_per_s;
    layer["e2e.verified_syscalls_per_s"] = aux_per_s;
  }
  int jobs() const override { return kJobs; }

 private:
  fleet::FleetResult run_fleet(int tenants, const Trace& trace) {
    fleet::FleetConfig cfg;
    cfg.seed = seed_;
    cfg.tenants = tenants;
    cfg.executor = &exec_;
    cfg.per_tenant_keys = true;
    cfg.inline_tier = false;
    for (const int t : tamper_) {
      if (t < tenants) cfg.tamper_tenants.push_back(t);
    }
    const Span s(trace.tracer, trace.ids != nullptr ? trace.ids->fleet_run : 0);
    return fleet::Driver(cfg).run();
  }

  util::Executor exec_{kJobs};
  std::uint64_t seed_ = 0;
  std::vector<int> tamper_;
  fleet::FleetResult last_;
  double faults_ = 0;
  double tenants_run_ = 0;
  double cold_faults_per_tenant_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_churn() { return std::make_unique<FleetChurn>(); }

}  // namespace ascbench
