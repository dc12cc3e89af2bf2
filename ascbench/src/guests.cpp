// Guest install/run helpers shared by syscall_mix and cpu_macro, and the
// stage-hook probe that gives the os.* spans of a traced run.
#include "vm/memory.h"
#include "workloads.h"

namespace ascbench::guests {

using namespace asc;

void pin_system(System& sys) {
  sys.machine().set_dispatch(vm::DispatchMode::Threaded);
  sys.machine().set_superinstructions(true);
  sys.machine().set_cycle_limit(kCycleLimit);
  auto& k = sys.kernel();
  k.set_verified_call_cache(true);
  k.set_policy_shadow(true);
  k.set_inline_tier(true);
}

installer::InstallResult install(System& sys, const binary::Image& img,
                                 std::uint16_t program_id, util::Executor& exec,
                                 const Trace& trace) {
  installer::InstallOptions opt;
  opt.program_id = program_id;
  opt.executor = &exec;
  installer::GeneratedPolicies gp;
  {
    const Span s(trace.tracer, trace.ids != nullptr ? trace.ids->analyze : 0);
    gp = sys.installer().analyze(img, opt);
  }
  const Span s(trace.tracer, trace.ids != nullptr ? trace.ids->rewrite : 0);
  return sys.installer().rewrite(img, std::move(gp), opt);
}

double memory_setup_us(const std::vector<binary::Image>& images) {
  constexpr int kReps = 8;
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const binary::Image& img : images) {
      const std::uint64_t t0 = now_ns();
      vm::Memory mem;
      mem.load_image(img);
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  return median(samples);
}

vm::RunResult run(System& sys, const binary::Image& img, const std::vector<std::string>& argv,
                  const Trace& trace, TrapProbe& probe) {
  if (trace.tracer == nullptr) return sys.machine().run(img, argv);

  Tracer& tr = *trace.tracer;
  const SpanIds& ids = *trace.ids;
  os::Kernel& k = sys.kernel();
  const os::TierStats before = k.tier_stats();
  std::uint64_t cycles_at_trap = 0;
  // Only top-level traps get spans: a trap nested under spawn runs inside
  // its parent's dispatch span, which already covers it.
  k.set_stage_hook([&](os::Process& p, os::TrapContext&, os::TrapStage stage) {
    if (stage == os::TrapStage::Trap) ++probe.traps;
    if (k.trap_depth() != 1) return;
    switch (stage) {
      case os::TrapStage::Trap:
        tr.begin(ids.enforce, now_ns());
        cycles_at_trap = p.cycles;
        break;
      case os::TrapStage::Enforce: {
        const std::uint64_t t = now_ns();
        tr.end(t);
        ++probe.enforce_spans;
        probe.enforce_cycles += p.cycles - cycles_at_trap;
        tr.begin(ids.dispatch, t);
        break;
      }
      case os::TrapStage::Dispatch:
        tr.end(now_ns());
        ++probe.dispatch_spans;
        break;
      case os::TrapStage::Audit:
        break;
    }
  });
  vm::RunResult r;
  {
    const Span s(&tr, ids.vm_run);
    r = sys.machine().run(img, argv);
  }
  k.set_stage_hook({});

  probe.instructions += r.instructions;
  probe.predecode.blocks += r.predecode.blocks;
  probe.predecode.superinstructions += r.predecode.superinstructions;
  probe.predecode.invalidations += r.predecode.invalidations;
  const os::TierStats after = k.tier_stats();
  probe.tiers.eager += after.eager - before.eager;
  probe.tiers.cached += after.cached - before.cached;
  probe.tiers.shadowed += after.shadowed - before.shadowed;
  probe.tiers.inline_hits += after.inline_hits - before.inline_hits;
  probe.tiers.promotions += after.promotions - before.promotions;
  for (std::size_t i = 0; i < after.demotions.size(); ++i) {
    probe.tiers.demotions[i] += after.demotions[i] - before.demotions[i];
  }
  return r;
}

void TrapProbe::report(const Tracer& tracer, Metrics& layer) const {
  const Tracer::Totals run = tracer.totals("vm.run");
  const Tracer::Totals enforce = tracer.totals("os.enforce");
  const Tracer::Totals dispatch = tracer.totals("os.dispatch");
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  layer["vm.guest.self_s"] = static_cast<double>(run.self_ns) / 1e9;
  layer["vm.instructions"] = static_cast<double>(instructions);
  layer["vm.ns_per_instr"] =
      per(static_cast<double>(run.self_ns), static_cast<double>(instructions));
  layer["vm.predecode.blocks"] = static_cast<double>(predecode.blocks);
  layer["vm.predecode.superinstructions"] = static_cast<double>(predecode.superinstructions);
  layer["vm.predecode.invalidations"] = static_cast<double>(predecode.invalidations);

  const double all_traps = static_cast<double>(traps + tiers.inline_hits);
  layer["os.traps"] = all_traps;
  layer["os.enforce.ns_per_trap"] =
      per(static_cast<double>(enforce.busy_ns), static_cast<double>(enforce_spans));
  layer["os.enforce.modeled_cycles_per_trap"] =
      per(static_cast<double>(enforce_cycles), static_cast<double>(enforce_spans));
  layer["os.dispatch.ns_per_trap"] =
      per(static_cast<double>(dispatch.busy_ns), static_cast<double>(dispatch_spans));
  layer["os.tier.eager"] = static_cast<double>(tiers.eager);
  layer["os.tier.cached"] = static_cast<double>(tiers.cached);
  layer["os.tier.shadowed"] = static_cast<double>(tiers.shadowed);
  layer["os.tier.inline"] = static_cast<double>(tiers.inline_hits);
  // A trap can hit the cache and the shadow at once, so the fast share is
  // every trap that was not a full eager verification.
  const double eager = static_cast<double>(tiers.eager);
  layer["os.tier.fast_ratio"] = per(all_traps > eager ? all_traps - eager : 0.0, all_traps);
  layer["os.tier.promotions"] = static_cast<double>(tiers.promotions);
  layer["os.tier.demotions"] = static_cast<double>(tiers.demotions_total());
}

}  // namespace ascbench::guests
