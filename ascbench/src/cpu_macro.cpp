// cpu_macro: the CPU-bound Table 5 stand-ins, each run on its own System.
//
// Why: almost all host time is guest execution in vm (the threaded engine
// and predecode), with about a hundred traps per program. A trap-path change
// should leave this workload unchanged; an engine change shows here first.
#include "workloads.h"

namespace ascbench {
namespace {

using namespace asc;

struct Program {
  const char* name;
  binary::Image (*build)(os::Personality);
  std::vector<std::string> argv;  // the Table 6 inputs
};

const Program kPrograms[] = {
    {"gzip-spec", apps::build_gzip_spec, {"150"}},
    {"crafty", apps::build_crafty, {"2000000"}},
    {"mcf", apps::build_mcf, {"3000"}},
    {"vpr", apps::build_vpr, {"1500000"}},
    {"twolf", apps::build_twolf, {"1500000"}},
};

struct Guest {
  const Program* prog = nullptr;
  binary::Image image;
  binary::Image installed;
  Reference ref;
  std::uint64_t ref_cycles = 0;
  std::uint64_t asc_cycles = 0;
};

class CpuMacro final : public Workload {
 public:
  void setup(std::uint64_t seed, const Trace& trace, Tally& tally) override {
    const auto pers = os::Personality::LinuxSim;
    guests_.clear();
    // One installer for the suite (the administrator's); each timed run
    // then gets a fresh System of its own.
    System installer_sys(pers);
    for (const Program& p : kPrograms) {
      Guest g;
      g.prog = &p;
      g.image = p.build(pers);
      g.installed = guests::install(installer_sys, g.image,
                                    static_cast<std::uint16_t>(guests_.size() + 1), exec_, trace)
                        .image;
      guests_.push_back(std::move(g));
    }
    order_ = seeded_order(guests_.size(), seed);
    // Oracle: every guest's unmonitored run (Enforcement::Off, original
    // image), which never goes through the checker.
    for (Guest& g : guests_) {
      System off(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
      guests::pin_system(off);
      const vm::RunResult r = off.machine().run(g.image, g.prog->argv);
      tally.record(r.completed && !r.cycle_limit_hit,
                   std::string("unmonitored reference ") + g.prog->name);
      g.ref = Reference{r.exit_code, r.stdout_data};
      g.ref_cycles = r.cycles;
    }
  }

  Round round(const Trace& trace, Tally& tally) override {
    Round rd;
    for (const std::size_t i : order_) {
      Guest& g = guests_[i];
      System sys(os::Personality::LinuxSim);
      guests::pin_system(sys);
      const double t0 = now_s();
      const vm::RunResult r = guests::run(sys, g.installed, g.prog->argv, trace, probe_);
      rd.ops_busy_s += now_s() - t0;
      rd.ops += static_cast<double>(r.instructions);
      rd.aux_ops += static_cast<double>(r.syscalls);
      rd.modeled_cycles += r.cycles;
      g.asc_cycles = r.cycles;
      tally.record(run_matches(r, g.ref), std::string("cpu_macro run ") + g.prog->name);
    }
    rd.aux_busy_s = rd.ops_busy_s;
    return rd;
  }

  void layer_metrics(const Tracer& tracer, Metrics& layer) override {
    probe_.report(tracer, layer);
    double asc = 0;
    double ref = 0;
    std::vector<binary::Image> images;
    for (const Guest& g : guests_) {
      asc += static_cast<double>(g.asc_cycles);
      ref += static_cast<double>(g.ref_cycles);
      images.push_back(g.installed);
    }
    layer["e2e.modeled_overhead_pct"] = ref > 0 ? (asc - ref) / ref * 100.0 : 0.0;
    layer["vm.memory.setup_us"] = guests::memory_setup_us(images);
  }

  void name_rates(double ops_per_s, double aux_per_s, Metrics& layer) const override {
    layer["e2e.guest_mips"] = ops_per_s / 1e6;
    layer["e2e.verified_syscalls_per_s"] = aux_per_s;
  }

 private:
  util::Executor exec_{kJobs};
  std::vector<Guest> guests_;
  std::vector<std::size_t> order_;
  guests::TrapProbe probe_;
};

}  // namespace

std::unique_ptr<Workload> make_cpu_macro() { return std::make_unique<CpuMacro>(); }

}  // namespace ascbench
