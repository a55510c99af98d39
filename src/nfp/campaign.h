// Measurement campaign: run a set of kernels once each on the measurement
// board, which yields the instruction counts (its retire ledger), the bench
// measurement and the ground truth, in parallel across kernels. This is the
// machinery behind Fig. 4 and Table III, where 120 kernels are evaluated.
// Campaign is a thin batch adapter over CampaignService (nfp/service.h),
// which owns the one board run loop, the worker pool and each worker's
// board.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asmkit/program.h"
#include "board/board.h"
#include "nfp/estimator.h"
#include "nfp/scheme.h"

namespace nfp::model {

struct KernelJob {
  std::string name;
  asmkit::Program program;
  // Input blocks written into RAM before the run (address, payload).
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> inputs;
  // Retirement budget of the board run; exceeding it without halting fails
  // the job ("did not halt").
  std::uint64_t max_insns = board::Board::kDefaultMaxInsns;
  // Preemption grain in CampaignService: > 0 checkpoints and re-queues the
  // job after every `slice_insns` retired instructions; 0 runs the job to
  // completion in one slice. Campaign always runs 0.
  std::uint64_t slice_insns = 0;
};

struct KernelRunRecord {
  std::string name;
  bool ok = false;
  std::string error;
  std::uint32_t exit_code = 0;

  // The model's inputs: the board's per-op retire counts, which equal the
  // ISS's counts n_c for the same program.
  OpCounts counts{};
  std::uint64_t instret = 0;

  // From the board (what the experimenter measures).
  board::Measurement measured;
  // PMU-style counter export from the board run (board/events.h) — the
  // feature source for the event-based estimation schemes.
  board::EventCounters events;
  // Ground truth, for diagnostics only.
  std::uint64_t cycles = 0;
  double true_energy_nj = 0.0;
  double true_time_s = 0.0;
};

// Everything an estimation scheme may draw features from, extracted from a
// finished record (nfp/estimator.h).
inline RunSample run_sample(const KernelRunRecord& rec) {
  RunSample s;
  s.counts = rec.counts;
  s.instret = rec.instret;
  s.events = rec.events;
  s.measured_time_s = rec.measured.time_s;
  return s;
}

class Campaign {
 public:
  // threads = 0 takes the service's default worker count
  // (CampaignService::default_workers).
  explicit Campaign(board::BoardConfig cfg, unsigned threads = 0);

  // Runs every job on the board through a CampaignService with
  // min(threads, jobs.size()) workers, no calibration and no preemption.
  // Results keep the job order.
  std::vector<KernelRunRecord> run(const std::vector<KernelJob>& jobs) const;

  // Single-job convenience (also used by tests): one worker.
  KernelRunRecord run_one(const KernelJob& job) const;

 private:
  board::BoardConfig cfg_;
  unsigned threads_;
};

}  // namespace nfp::model
