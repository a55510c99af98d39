#include "analyze/profile.h"

#include "sim/executor.h"
#include "sim/platform.h"

namespace nfp::analyze {
namespace {

// Dense per-PC retire counter. Per-instruction stepping (kBatchRetire ==
// false) is mandatory: block-batched retirement never reports PCs.
struct PcCountHooks {
  static constexpr bool kWantsDetail = true;
  static constexpr bool kBatchRetire = false;

  std::uint32_t base = 0;
  std::vector<std::uint64_t>* counts = nullptr;

  void on_retire(const isa::DecodedInsn&, const sim::RetireInfo& info) {
    const std::uint32_t off = info.pc - base;
    if (info.pc >= base && (off >> 2) < counts->size()) ++(*counts)[off >> 2];
  }
};

}  // namespace

PcProfile profile_pcs(
    const asmkit::Program& program,
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
        inputs,
    std::uint64_t max_insns) {
  PcProfile profile;
  profile.base = program.base();
  profile.counts.assign((program.size() + 3) / 4, 0);

  sim::Platform platform;
  platform.load(program);
  for (const auto& [addr, bytes] : inputs) {
    platform.bus().write_block(addr, bytes.data(), bytes.size());
  }

  PcCountHooks hooks;
  hooks.base = profile.base;
  hooks.counts = &profile.counts;
  const sim::RunResult run =
      sim::run_platform(platform, hooks, max_insns, sim::Dispatch::kStep);
  profile.halted = run.halted;
  profile.instret = run.instret;
  return profile;
}

std::map<std::uint32_t, std::uint64_t> block_totals(const Cfg& cfg,
                                                    const PcProfile& profile) {
  std::map<std::uint32_t, std::uint64_t> totals;
  for (const auto& [addr, b] : cfg.blocks) totals[addr] = profile.at(addr);
  return totals;
}

}  // namespace nfp::analyze
