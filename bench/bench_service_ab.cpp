// Preempted service vs uninterrupted run on the paper's full 120-kernel
// campaign (Sec. VI): CampaignService at 1/2/4/8 workers, every job
// preempted and checkpointed each 2M instructions, must reproduce an
// uninterrupted Campaign run (slice 0) bit-for-bit (cycles and energy per
// kernel) — while showing the wall-clock scaling the service tier exists
// for. Any per-kernel mismatch is reported and exits nonzero, so this
// doubles as the full-scale acceptance check behind
// tests/nfp/service_test.cpp's reduced kernel set.
#include <bit>
#include <chrono>
#include <cstdio>
#include <vector>

#include "nfp/campaign.h"
#include "nfp/service.h"
#include "workloads/kernels.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  using namespace nfp;

  std::vector<model::KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi)) jobs.push_back(std::move(j));
    for (auto& j : workloads::make_fse_jobs(abi)) jobs.push_back(std::move(j));
  }
  std::printf("campaign: %zu kernels (MVC + FSE, both ABIs)\n", jobs.size());

  const board::BoardConfig board_cfg;
  const auto t_whole = std::chrono::steady_clock::now();
  const auto whole = model::Campaign(board_cfg, 4).run(jobs);
  const double whole_s = seconds_since(t_whole);
  std::printf("uninterrupted Campaign (4 workers, slice 0): %.2f s\n",
              whole_s);

  int mismatches = 0;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    model::ServiceConfig cfg;
    cfg.board = board_cfg;
    cfg.workers = workers;
    cfg.calibrate = false;
    model::CampaignService service(cfg);
    std::vector<model::KernelJob> sliced = jobs;
    // Real preemption traffic, not a no-op.
    for (auto& j : sliced) j.slice_insns = 2'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = service.run_jobs(std::move(sliced));
    const double secs = seconds_since(t0);
    const auto stats = service.stats();

    int bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& g = got[i].record;
      const auto& w = whole[i];
      const bool same =
          g.ok && w.ok && g.instret == w.instret && g.cycles == w.cycles &&
          std::bit_cast<std::uint64_t>(g.true_energy_nj) ==
              std::bit_cast<std::uint64_t>(w.true_energy_nj) &&
          std::bit_cast<std::uint64_t>(g.measured.energy_nj) ==
              std::bit_cast<std::uint64_t>(w.measured.energy_nj) &&
          std::bit_cast<std::uint64_t>(g.measured.time_s) ==
              std::bit_cast<std::uint64_t>(w.measured.time_s);
      if (!same) {
        ++bad;
        std::printf("  MISMATCH %s (%s)\n", g.name.c_str(),
                    g.ok ? "values differ" : g.error.c_str());
      }
    }
    mismatches += bad;
    std::printf(
        "service %u worker(s): %.2f s (%.2fx uninterrupted), "
        "%llu checkpoint(s) (%llu bytes), %llu steal(s), %d mismatch(es)\n",
        workers, secs, secs > 0 ? whole_s / secs : 0.0,
        static_cast<unsigned long long>(stats.checkpoints),
        static_cast<unsigned long long>(stats.checkpoint_bytes),
        static_cast<unsigned long long>(stats.steals), bad);
  }

  if (mismatches != 0) {
    std::printf("FAIL: %d record(s) diverged from the uninterrupted run\n",
                mismatches);
    return 1;
  }
  std::printf(
      "OK: every worker count bit-identical to the uninterrupted run\n");
  return 0;
}
