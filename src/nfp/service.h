// Sharded estimation campaign service: a library-level job queue that
// accepts estimation jobs (kernel program + inputs + budget), shards them
// across persistent worker threads with work stealing, and streams results
// as they complete.
//
// Two things distinguish it from the batch Campaign loop (nfp/campaign.h):
//
//  - Long jobs are preemptible. A job with `slice_insns > 0` is paused at
//    every slice boundary, checkpointed through the versioned snapshot
//    format (sim/state_io.h) into an in-memory image, and re-queued; the
//    next slice — often on a different worker, against a different arena —
//    restores the image and continues. Because snapshot restore is proven
//    bit-identical across dispatch modes, a preempted job retires exactly
//    like an uninterrupted one: same counts, cycles, energy (bit-for-bit).
//
//  - Results can stream. A sink callback receives each ServiceResult the
//    moment its job finishes (out of submit order); take_results() returns
//    the stable submit-order view afterwards. result_json_line() renders a
//    result as one JSON-lines record for piping (tools/nfpd).
//
// An optional static fast path (ServiceConfig::static_estimator, injected
// by the caller so this library never links the analyzer) serves an
// execution-free [lower, upper] interval per job before the first slice
// runs; static_only mode accepts that interval as the final answer and
// skips the dynamic pipeline entirely (nfpd --static-first/--static-only).
//
// Estimates reuse one warm calibration table: the first job that needs it
// calibrates once (Table I / Eq. 2) and every later job estimates (Eq. 1)
// from the shared costs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "nfp/calibration.h"
#include "nfp/campaign.h"
#include "nfp/estimator.h"

namespace nfp::model {

struct ServiceJob {
  std::string name;
  asmkit::Program program;
  // Input blocks written into RAM before the first slice (address, payload).
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> inputs;
  // Total retirement budget; exceeding it without halting fails the job.
  std::uint64_t max_insns = board::Board::kDefaultMaxInsns;
  // Preemption grain: > 0 checkpoints and re-queues the job after every
  // `slice_insns` retired instructions (per platform phase); 0 runs each
  // phase to completion in one slice.
  std::uint64_t slice_insns = 0;
};

// Execution-free interval from a static estimator (analyze/ipet, injected
// through ServiceConfig::static_estimator): guaranteed [lower, upper] per
// metric when accepted, otherwise the stable refusal slug.
struct StaticBounds {
  bool accepted = false;
  std::string reason;  // machine-parseable refusal slug when !accepted
  std::uint64_t insns_lower = 0, insns_upper = 0;
  std::uint64_t cycles_lower = 0, cycles_upper = 0;
  double time_lower_s = 0.0, time_upper_s = 0.0;
  double energy_lower_nj = 0.0, energy_upper_nj = 0.0;
};

struct ServiceResult {
  std::uint64_t id = 0;  // submit order, dense from 0
  KernelRunRecord record;
  // Estimate from the shared calibration table under the configured scheme
  // (zeros when the service was configured with calibrate = false).
  Estimate estimate;
  // The estimation scheme behind `estimate` (ServiceConfig::scheme); empty
  // when the service did not estimate.
  std::string scheme;
  std::uint64_t slices = 0;       // run segments across both phases (>= 2)
  std::uint64_t checkpoints = 0;  // serialize/restore round trips
  // Set when the service ran a static estimator over this job's program.
  std::optional<StaticBounds> static_bounds;
  // True when an accepted interval was served as the final answer and the
  // ISS/board refinement run was skipped (ServiceConfig::static_only): the
  // dynamic fields of `record` are then zero by construction.
  bool static_served = false;
};

struct ServiceStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t slices = 0;
  std::uint64_t checkpoints = 0;  // snapshots taken at preemption points
  std::uint64_t resumes = 0;      // snapshots restored (== checkpoints)
  std::uint64_t steals = 0;       // jobs popped from another worker's shard
  std::uint64_t checkpoint_bytes = 0;
};

struct ServiceConfig {
  board::BoardConfig board;
  // Worker thread count; 0 = min(hardware_concurrency, 8), at least 2.
  unsigned workers = 0;
  // Board dispatch; unset = the jit-availability probe (kJit where emitted
  // code can run, chained kBlock elsewhere). Board accounting is
  // bit-identical across modes, so this is purely a speed knob.
  std::optional<sim::Dispatch> dispatch;
  // Compute estimates via a warm calibration table (calibrated once,
  // lazily, with `plan` against the service's board config).
  bool calibrate = true;
  CalibrationPlan plan{};
  // Estimation scheme (nfp/estimator.h registry: "eq1", "events",
  // "time-proxy"). The default keeps the paper's Eq. 1 pipeline
  // bit-identical; the constructor throws on unknown names.
  std::string scheme = "eq1";
  // Execution-free fast path. When set, a job's first slice runs this
  // estimator over the program before any execution; the interval streams
  // immediately through the static sink and rides on the final result.
  // nfp_model deliberately does not link nfp_analyze — callers (nfpd,
  // tests) inject analyze_ipet through this hook.
  std::function<StaticBounds(const asmkit::Program&)> static_estimator;
  // With a static estimator set: serve accepted intervals as the final
  // answer and skip the ISS/board refinement run entirely. Refused
  // programs still fall through to the dynamic pipeline.
  bool static_only = false;
};

class CampaignService {
 public:
  explicit CampaignService(ServiceConfig cfg = {});
  // Drains every submitted job (wait_all), then joins the workers.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  // Enqueues a job on shard (id % workers) and returns its id. Thread-safe.
  std::uint64_t submit(ServiceJob job);

  // Blocks until every job submitted so far has completed.
  void wait_all();

  // Submit-order results of everything completed so far (call after
  // wait_all for the full set). Results remain stored; this copies.
  std::vector<ServiceResult> results() const;

  ServiceStats stats() const;
  sim::Dispatch board_dispatch() const { return dispatch_; }
  unsigned workers() const { return static_cast<unsigned>(shards_.size()); }

  // Streaming sink, called once per finished job from the finishing worker
  // (never under the queue lock, serialized across workers). Set before
  // submitting.
  void set_sink(std::function<void(const ServiceResult&)> sink);

  // Fast-path sink: called the moment a job's static interval is known —
  // before any execution — so callers can serve it immediately while the
  // refinement run proceeds. Same locking discipline as set_sink.
  void set_static_sink(std::function<void(std::uint64_t id,
                                          const std::string& name,
                                          const StaticBounds&)> sink);

  // The shared calibration table for the configured scheme (calibrates on
  // first use; throws if the service was configured with calibrate = false).
  const CategoryCosts& costs();
  // The scheme the service estimates with (resolved from
  // ServiceConfig::scheme at construction).
  const Estimator& estimator() const { return *estimator_; }

  // Convenience: submit everything, drain, return submit-order results.
  std::vector<ServiceResult> run_jobs(std::vector<ServiceJob> jobs);

 private:
  enum class Phase { kIss, kBoard };

  struct PendingJob {
    std::uint64_t id = 0;
    ServiceJob job;
    Phase phase = Phase::kIss;
    // Snapshot image of the active platform; empty = the phase starts cold
    // (load program + inputs) instead of restoring.
    std::string checkpoint;
    KernelRunRecord rec;
    Estimate estimate;
    std::uint64_t slices = 0;
    std::uint64_t checkpoints = 0;
    std::optional<StaticBounds> static_bounds;
    bool static_served = false;
  };

  void worker_main(unsigned self);
  bool pop_job(unsigned self, PendingJob& out);  // callers hold mu_
  // Runs one slice; returns true when the job is finished (record/estimate
  // final), false when it was checkpointed or phase-switched and must be
  // re-queued. `delta` collects slice/checkpoint accounting for stats_.
  bool run_slice(PendingJob& pj, Campaign::WorkerArena& arena,
                 ServiceStats& delta);
  void ensure_calibrated();

  ServiceConfig cfg_;
  const Estimator* estimator_;  // resolved from cfg_.scheme (never null)
  sim::Dispatch dispatch_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new work / shutdown
  std::condition_variable done_cv_;   // wait_all: a job completed
  std::vector<std::deque<PendingJob>> shards_;
  std::size_t queued_ = 0;     // jobs sitting in shards
  std::size_t in_flight_ = 0;  // jobs currently running a slice
  std::uint64_t next_id_ = 0;
  std::uint64_t completed_ = 0;
  bool stopping_ = false;
  std::vector<ServiceResult> results_;  // indexed by id (resized on submit)
  std::vector<bool> have_result_;
  ServiceStats stats_{};

  std::mutex sink_mu_;
  std::function<void(const ServiceResult&)> sink_;
  std::function<void(std::uint64_t, const std::string&, const StaticBounds&)>
      static_sink_;

  std::once_flag calib_once_;
  std::optional<SchemeCalibration> calibration_;

  std::vector<std::thread> pool_;
};

// One finished job as a JSON-lines record (doubles rendered with enough
// digits to round-trip bit-exactly). Carries a "static" object when the
// service ran a static estimator over the job.
std::string result_json_line(const ServiceResult& r);

// The "static" object alone (shared by result_json_line and
// static_json_line): {"accepted":...,...} or {"accepted":false,"reason":..}.
std::string static_bounds_json(const StaticBounds& b);

// The static-sink record streamed before a job's first slice:
// {"id":..,"name":..,"static":{..}}, with the name JSON-escaped.
std::string static_json_line(std::uint64_t id, const std::string& name,
                             const StaticBounds& b);

}  // namespace nfp::model
