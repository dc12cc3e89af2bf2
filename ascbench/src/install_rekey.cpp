// install_rekey: the 21-program LinuxSim corpus (apps::build_all) through
// Installer::analyze + Installer::rewrite, then Rekeyer::rekey onto a set of
// seeded new keys, round after round, with jobs = 2.
//
// Why: without it the analysis and installer layers are measured only inside
// other workloads' set-up. LinuxSim, because the BsdSim corpus does not
// install (sys_close's relocations are rejected).
#include "installer/rekeyer.h"
#include "os/costmodel.h"
#include "util/rng.h"
#include "workloads.h"

namespace ascbench {
namespace {

using namespace asc;

/// New keys every installed image is re-signed onto in each round.
constexpr int kKeys = 8;

/// CMAC blocks of one signing pass over `m`'s MAC surface.
std::uint64_t mac_blocks(const installer::SignManifest& m) {
  auto blocks = [](std::uint64_t bytes) -> std::uint64_t {
    return bytes == 0 ? 1 : (bytes + 15) / 16;
  };
  std::uint64_t n = blocks(12);  // the policy-state message
  for (const auto& as : m.as_records) n += blocks(as.len);
  for (const auto& call : m.calls) n += blocks(call.message.size());
  return n;
}

struct Program {
  std::string name;
  binary::Image image;
  installer::InstallResult installed;     // under test_key()
  std::vector<std::uint8_t> installed_bytes;
  std::vector<std::vector<std::uint8_t>> fresh;  // fresh install per new key
};

class InstallRekey final : public Workload {
 public:
  void setup(std::uint64_t seed, const Trace& trace, Tally&) override {
    const auto pers = os::Personality::LinuxSim;
    sys_ = std::make_unique<System>(pers);
    programs_.clear();
    for (auto& [name, img] : apps::build_all(pers)) {
      Program p;
      p.name = name;
      p.image = std::move(img);
      p.installed = guests::install(*sys_, p.image,
                                    static_cast<std::uint16_t>(programs_.size() + 1), exec_,
                                    trace);
      p.installed_bytes = p.installed.image.serialize();
      programs_.push_back(std::move(p));
    }
    keys_.clear();
    util::Rng rng(seed);
    for (int k = 0; k < kKeys; ++k) keys_.push_back(derived_key(rng.next_u64()));
    order_ = seeded_order(programs_.size(), seed);
    // Rekey oracle: a fresh install of every program under every new key.
    for (const crypto::Key128& key : keys_) {
      installer::Installer fresh(key, os::Personality::LinuxSim);
      for (std::size_t i = 0; i < programs_.size(); ++i) {
        installer::InstallOptions opt;
        opt.program_id = static_cast<std::uint16_t>(i + 1);
        opt.executor = &exec_;
        programs_[i].fresh.push_back(fresh.install(programs_[i].image, opt).image.serialize());
      }
    }
  }

  Round round(const Trace& trace, Tally& tally) override {
    const std::uint64_t mac_cycles = os::CostModel{}.mac_per_block;
    Round rd;
    for (const std::size_t i : order_) {
      Program& p = programs_[i];
      const double t0 = now_s();
      const installer::InstallResult r = guests::install(
          *sys_, p.image, static_cast<std::uint16_t>(i + 1), exec_, trace);
      const double dt = now_s() - t0;
      rd.ops_busy_s += dt;
      rd.ops += 1;
      if (trace.tracer == nullptr) install_ms_.push_back(dt * 1e3);
      tally.record(r.image.serialize() == p.installed_bytes, "install of " + p.name +
                                                               " is not deterministic");
      rd.modeled_cycles += mac_blocks(r.manifest) * mac_cycles;
      round_sites_ += static_cast<double>(r.policies.size());
      round_macs_ += static_cast<double>(r.manifest.mac_count());
    }
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      for (const std::size_t i : order_) {
        Program& p = programs_[i];
        const double t0 = now_s();
        installer::RekeyResult rr;
        {
          const Span s(trace.tracer, trace.ids != nullptr ? trace.ids->rekey : 0);
          rr = installer::Rekeyer::rekey(p.installed.image, p.installed.manifest, test_key(),
                                         keys_[k], &exec_);
        }
        const double dt = now_s() - t0;
        rd.aux_busy_s += dt;
        rd.aux_ops += 1;
        rekey_s_ += dt;
        rekey_macs_ += static_cast<double>(rr.stats.macs_recomputed);
        // Verify the old surface, then sign the new one.
        rd.modeled_cycles += 2 * mac_blocks(p.installed.manifest) * mac_cycles;
        tally.record(rr.image.serialize() == p.fresh[k],
                     "rekey of " + p.name + " differs from a fresh install under the new key");
      }
    }
    ++rounds_;
    return rd;
  }

  void layer_metrics(const Tracer&, Metrics& layer) override {
    const double rounds = rounds_ > 0 ? static_cast<double>(rounds_) : 1.0;
    layer["installer.sites"] = round_sites_ / rounds;
    layer["installer.macs_signed"] = round_macs_ / rounds;
    layer["installer.rekey.macs"] = rekey_macs_ / rounds;
    layer["crypto.rekey_macs_per_s"] = rekey_s_ > 0 ? rekey_macs_ / rekey_s_ : 0.0;
    const Tail p99 = tail(install_ms_, 99.0);
    layer["e2e.install_p50_ms"] = median(install_ms_);
    layer["e2e.install_p99_ms"] = p99.value;
    layer["e2e.install_p99_percentile"] = p99.percentile;
    layer["e2e.install_samples"] = static_cast<double>(p99.samples);
  }

  void name_rates(double ops_per_s, double aux_per_s, Metrics& layer) const override {
    layer["e2e.installs_per_s"] = ops_per_s;
    layer["e2e.rekeys_per_s"] = aux_per_s;
  }
  int jobs() const override { return kJobs; }

 private:
  util::Executor exec_{kJobs};
  std::unique_ptr<System> sys_;
  std::vector<Program> programs_;
  std::vector<crypto::Key128> keys_;
  std::vector<std::size_t> order_;
  std::vector<double> install_ms_;  // untraced install latencies
  std::uint64_t rounds_ = 0;
  double round_sites_ = 0;
  double round_macs_ = 0;
  double rekey_macs_ = 0;
  double rekey_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_install_rekey() { return std::make_unique<InstallRekey>(); }

}  // namespace ascbench
