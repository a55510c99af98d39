// The ways the benchmark drives a workload's jobs: the timed closed batches
// (through CampaignService, or a thread pool over Iss for iss_estimate), the
// traced pipeline that makes the same layer calls with spans around them,
// and the out-of-band passes (kStep reference, FunctionalSim execution
// reference, pinned-dispatch diagnostic).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "jobs.h"
#include "nfp/calibration.h"
#include "nfp/service.h"
#include "sim/executor.h"
#include "sim/iss.h"
#include "trace.h"

namespace nfpbench {

// Runs body(thread) on `workers` threads and joins them all; the first
// exception thrown by a body is rethrown after the join.
void parallel(unsigned workers, const std::function<void(unsigned)>& body);

// The service's default worker count (ServiceConfig::workers = 0), used by
// every pool the benchmark runs itself.
unsigned default_workers();

// One closed batch: every job submitted at t0, results in job order.
struct Batch {
  std::vector<JobResult> results;
  double wall_s = 0.0;      // first submit to last result
  std::uint64_t insns = 0;  // instructions retired by ISS and board passes
  nfp::model::ServiceStats service{};  // this batch's share (service runs)
  std::vector<Output> outputs;         // iss_estimate: target output per job
};

// campaign and preempt: CampaignService with ServiceConfig defaults. The
// constructor is set-up (workers start, calibration runs before any submit).
class ServiceRunner {
 public:
  ServiceRunner();
  Batch run(const Workload& w);
  const nfp::model::CategoryCosts& costs() { return service_.costs(); }
  nfp::sim::Dispatch board_dispatch() const {
    return service_.board_dispatch();
  }
  unsigned workers() const { return service_.workers(); }

 private:
  nfp::model::CampaignService service_;
  std::uint64_t next_id_ = 0;
};

// iss_estimate: Iss::load -> Iss::run() -> Estimator::estimate per job on a
// pool of threads, no board (the nfpc --estimate path at scale).
class IssRunner {
 public:
  IssRunner(unsigned workers, nfp::model::CategoryCosts costs);
  Batch run(const Workload& w);

 private:
  nfp::model::CategoryCosts costs_;
  std::vector<std::unique_ptr<nfp::sim::Iss>> arenas_;
};

// Per-layer counters gathered by the traced pipeline.
struct LayerCounts {
  std::uint64_t iss_insns = 0, board_insns = 0;
  std::uint64_t iss_blocks_morphed = 0;
  std::uint64_t iss_jit_compiled = 0, iss_jit_rejected = 0;
  std::uint64_t board_jit_compiled = 0, board_jit_rejected = 0;
  std::uint64_t board_jit_helper_exec = 0;
  std::uint64_t board_cycles = 0, board_row_misses = 0;
  std::uint64_t board_stall_cycles = 0;
  std::uint64_t estimate_calls = 0;
  std::uint64_t snapshot_saves = 0, snapshot_bytes = 0;
  std::uint64_t resumes = 0, morphs_after_resume = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};

struct TracedBatch {
  std::vector<JobResult> results;
  double wall_s = 0.0;
  LayerCounts counts;
};

// The service's job pipeline re-driven through the layers' public calls
// (Iss/Board load, run, save_state/restore_state, Board::measure,
// Estimator::estimate), slicing like the service, with a span per call.
TracedBatch run_traced(const Workload& w, Tracer& tracer, unsigned workers,
                       nfp::sim::Dispatch board_dispatch,
                       const nfp::model::CategoryCosts& costs);

// Busy time of FunctionalSim::run over every job under `dispatch`: the
// execution-only reference for the board's run time.
double exec_reference_s(const Workload& w, unsigned workers,
                        nfp::sim::Dispatch dispatch);

// Pinned-dispatch diagnostic over every 8th job: per-thread MIPS of the ISS
// and (board workloads) the board under kBlock and kJit.
struct DispatchMips {
  double iss_block = 0, iss_jit = 0, board_block = 0, board_jit = 0;
  bool identical = true;  // kBlock and kJit agree bit for bit
};
DispatchMips dispatch_diagnostic(const Workload& w, unsigned workers);

// Reruns the job under Dispatch::kStep (ISS, and the board for board
// workloads) and compares counts, cycles, energy and events bit for bit
// with `timed`.
bool step_matches(const Workload& w, std::size_t job, const JobResult& timed);

}  // namespace nfpbench
