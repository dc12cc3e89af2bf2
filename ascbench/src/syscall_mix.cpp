// syscall_mix: Table-4-style call loops plus the syscall-bound Table 5
// programs, each round on ONE System with the full tier lattice on.
//
// Why: the os trap pipeline and the tier lattice do most of the work, in two
// ways at once. Side-effect-light calls (getpid, gettimeofday, brk's probe
// sites) promote to the trap-less Inline tier; buffer and AS-string calls
// (read/write 4096, the programs' file I/O) stay on the Cached and Shadowed
// tiers and copy bytes in dispatch.
#include "apps/libtoy.h"
#include "tasm/assembler.h"
#include "workloads.h"

namespace ascbench {
namespace {

using namespace asc;

enum class Call { Getpid, Gettimeofday, Read4k, Write4k, Brk };

/// Calls per loop guest. Sized so the loops and the programs take comparable
/// host time in a round.
constexpr std::uint32_t kLoopIters = 40'000;
/// Block size of the read/write loops and the number of blocks before each
/// rewind: the loops cycle over a 64 KiB file instead of growing it (an
/// appending write loop would grow the in-memory file by 4 KiB per call and
/// the benchmark would then measure that growth in peak_rss_mb).
constexpr std::uint32_t kBlock = 4096;
constexpr std::uint32_t kBlocksPerRewind = 16;

binary::Image build_loop_guest(os::Personality p, Call call) {
  using namespace asc::apps;
  tasm::Assembler a("microloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, kLoopIters);
  a.store(SP, 0, R11);
  const bool io = call == Call::Read4k || call == Call::Write4k;
  if (io) {
    a.lea(R1, call == Call::Read4k ? "mb_in" : "mb_out");
    a.movi(R2, O_RDWR | O_CREAT);
    a.movi(R3, 0644);
    a.call("open_or_die");
    a.lea(R11, "mb_fd");
    a.store(R11, 0, R0);
  }
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  switch (call) {
    case Call::Getpid:
      a.call("sys_getpid");
      break;
    case Call::Gettimeofday:
      a.lea(R1, "mb_tv");
      a.movi(R2, 0);
      a.call("sys_gettimeofday");
      break;
    case Call::Read4k:
    case Call::Write4k:
      a.lea(R11, "mb_fd");
      a.load(R1, R11, 0);
      a.lea(R2, "mb_buf");
      a.movi(R3, kBlock);
      a.call(call == Call::Read4k ? "sys_read" : "sys_write");
      // Rewind to offset 0 every kBlocksPerRewind calls.
      a.load(R11, SP, 0);
      a.andi(R11, kBlocksPerRewind - 1);
      a.cmpi(R11, 1);
      a.jnz(".next");
      a.lea(R11, "mb_fd");
      a.load(R1, R11, 0);
      a.movi(R2, 0);
      a.movi(R3, 0);
      a.call("sys_lseek");
      break;
    case Call::Brk:
      a.movi(R1, 0);
      a.call("sys_brk");
      break;
  }
  a.label(".next");
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("mb_in", "/tmp/mb_in.dat");
  a.rodata_cstr("mb_out", "/tmp/mb_out.dat");
  a.bss("mb_tv", 8);
  a.bss("mb_buf", kBlock);
  a.bss("mb_fd", 4);
  emit_libc(a, p);
  return a.link();
}

binary::Image build_program(const std::string& name, os::Personality p) {
  if (name == "pyramid") return apps::build_pyramid(p);
  if (name == "gzip") return apps::build_gzip(p);
  if (name == "gcc") return apps::build_gcc(p);
  return apps::build_vortex(p);
}

/// The Table 6 fixtures plus the read loop's 64 KiB input.
void prepare_fs(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::vector<std::uint8_t>& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc,
                       0644);
    fs.write(static_cast<std::uint32_t>(ino), 0, content, false);
  };
  std::string src = "int main() { return 0; }\n";
  for (int i = 0; i < 800; ++i) src += "void f" + std::to_string(i) + "() { /* body */ }\n";
  put("/in.c", {src.begin(), src.end()});
  std::string big;
  for (int i = 0; i < 4000; ++i) {
    big += "the quick brown fox jumps over the lazy dog " + std::to_string(i % 7) + "\n";
  }
  put("/big.txt", {big.begin(), big.end()});
  put("/tmp/mb_in.dat", std::vector<std::uint8_t>(kBlock * kBlocksPerRewind, 0x5a));
  put("/tmp/mb_out.dat", {});
}

struct Guest {
  std::string name;
  binary::Image image;      // as built (the unmonitored reference runs this)
  binary::Image installed;  // as rewritten by the installer
  std::vector<std::string> argv;
  Reference ref;
  std::uint64_t ref_cycles = 0;
  std::uint64_t asc_cycles = 0;  // modeled cycles of the last timed run
};

class SyscallMix final : public Workload {
 public:
  void setup(std::uint64_t seed, const Trace& trace, Tally& tally) override {
    const auto pers = os::Personality::LinuxSim;
    guests_.clear();
    const std::pair<const char*, Call> loops[] = {{"getpid", Call::Getpid},
                                                  {"gettimeofday", Call::Gettimeofday},
                                                  {"read4096", Call::Read4k},
                                                  {"write4096", Call::Write4k},
                                                  {"brk", Call::Brk}};
    for (const auto& [name, call] : loops) {
      Guest g;
      g.name = name;
      g.image = build_loop_guest(pers, call);
      guests_.push_back(std::move(g));
    }
    const std::pair<const char*, std::vector<std::string>> programs[] = {
        {"pyramid", {"2500"}},
        {"gzip", {"/big.txt"}},
        {"gcc", {"/in.c", "/out.o"}},
        {"vortex", {"150000"}}};
    for (const auto& [name, argv] : programs) {
      Guest g;
      g.name = name;
      g.image = build_program(name, pers);
      g.argv = argv;
      guests_.push_back(std::move(g));
    }
    System installer_sys(pers);
    for (std::size_t i = 0; i < guests_.size(); ++i) {
      guests_[i].installed = guests::install(installer_sys, guests_[i].image,
                                             static_cast<std::uint16_t>(i + 1), exec_, trace)
                                 .image;
    }
    order_ = seeded_order(guests_.size(), seed);
    // Oracle: every guest's unmonitored run (Enforcement::Off, original
    // image), which never goes through the checker.
    for (Guest& g : guests_) {
      System off(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
      guests::pin_system(off);
      prepare_fs(off.kernel().fs());
      const vm::RunResult r = off.machine().run(g.image, g.argv);
      tally.record(r.completed && !r.cycle_limit_hit, "unmonitored reference " + g.name);
      g.ref = Reference{r.exit_code, r.stdout_data};
      g.ref_cycles = r.cycles;
    }
  }

  Round round(const Trace& trace, Tally& tally) override {
    // A fresh System per round: pids, virtual time and the audit log grow
    // with every run on a kernel, and a guest's modeled cycles depend on its
    // pid, so a long-lived System would make later rounds differ.
    System sys(os::Personality::LinuxSim);
    guests::pin_system(sys);
    prepare_fs(sys.kernel().fs());
    Round rd;
    for (const std::size_t i : order_) {
      Guest& g = guests_[i];
      const double t0 = now_s();
      const vm::RunResult r = guests::run(sys, g.installed, g.argv, trace, probe_);
      rd.ops_busy_s += now_s() - t0;
      rd.ops += static_cast<double>(r.syscalls);
      rd.aux_ops += static_cast<double>(r.instructions);
      rd.modeled_cycles += r.cycles;
      g.asc_cycles = r.cycles;
      tally.record(run_matches(r, g.ref), "syscall_mix run " + g.name);
    }
    rd.aux_busy_s = rd.ops_busy_s;
    return rd;
  }

  void layer_metrics(const Tracer& tracer, Metrics& layer) override {
    probe_.report(tracer, layer);
    double asc = 0;
    double ref = 0;
    for (const Guest& g : guests_) {
      asc += static_cast<double>(g.asc_cycles);
      ref += static_cast<double>(g.ref_cycles);
    }
    layer["e2e.modeled_overhead_pct"] = ref > 0 ? (asc - ref) / ref * 100.0 : 0.0;
    std::vector<binary::Image> images;
    for (const Guest& g : guests_) images.push_back(g.installed);
    layer["vm.memory.setup_us"] = guests::memory_setup_us(images);
  }

  void name_rates(double ops_per_s, double aux_per_s, Metrics& layer) const override {
    layer["e2e.verified_syscalls_per_s"] = ops_per_s;
    layer["e2e.guest_mips"] = aux_per_s / 1e6;
  }

 private:
  util::Executor exec_{kJobs};
  std::vector<Guest> guests_;
  std::vector<std::size_t> order_;
  guests::TrapProbe probe_;
};

}  // namespace

std::unique_ptr<Workload> make_syscall_mix() { return std::make_unique<SyscallMix>(); }

}  // namespace ascbench
