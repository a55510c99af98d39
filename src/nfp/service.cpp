#include "nfp/service.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/jit.h"

namespace nfp::model {

CampaignService::CampaignService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      estimator_(find_estimator(cfg_.scheme)),
      dispatch_(cfg_.dispatch.value_or(sim::jit_available()
                                           ? sim::Dispatch::kJit
                                           : sim::Dispatch::kBlock)) {
  if (estimator_ == nullptr) {
    throw std::invalid_argument("CampaignService: unknown scheme '" +
                                cfg_.scheme + "' (known: " +
                                estimator_names() + ")");
  }
  // Before the pool starts: the calibration campaign runs its own workers,
  // and a failure here is one constructor exception.
  if (cfg_.calibrate) {
    calibration_ = Calibrator(cfg_.plan).fit(*estimator_, cfg_.board);
  }
  const unsigned workers =
      cfg_.workers == 0 ? default_workers() : cfg_.workers;
  shards_.resize(workers);
  pool_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool_.emplace_back([this, w] { worker_main(w); });
  }
}

unsigned CampaignService::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : std::min(hw, 8u);
}

CampaignService::~CampaignService() {
  wait_all();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

std::uint64_t CampaignService::submit(KernelJob job) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = next_id_++;
  PendingJob pj;
  pj.id = id;
  pj.job = std::move(job);
  pj.rec.name = pj.job.name;
  results_.resize(static_cast<std::size_t>(next_id_));
  have_result_.resize(static_cast<std::size_t>(next_id_));
  shards_[id % shards_.size()].push_back(std::move(pj));
  ++queued_;
  work_cv_.notify_one();
  return id;
}

void CampaignService::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return completed_ == next_id_; });
}

std::vector<ServiceResult> CampaignService::results() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ServiceResult> out;
  out.reserve(results_.size());
  for (std::size_t i = 0; i < results_.size(); ++i) {
    if (have_result_[i]) out.push_back(results_[i]);
  }
  return out;
}

ServiceStats CampaignService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void CampaignService::set_sink(std::function<void(const ServiceResult&)> sink) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  sink_ = std::move(sink);
}

const CategoryCosts& CampaignService::costs() const {
  if (!cfg_.calibrate) {
    throw std::logic_error("CampaignService: calibration disabled");
  }
  return calibration_.costs;
}

std::vector<ServiceResult> CampaignService::run_jobs(
    std::vector<KernelJob> jobs) {
  for (auto& job : jobs) submit(std::move(job));
  wait_all();
  return results();
}

bool CampaignService::pop_job(unsigned self, PendingJob& out) {
  auto& own = shards_[self];
  if (!own.empty()) {
    out = std::move(own.front());
    own.pop_front();
    --queued_;
    return true;
  }
  // Steal from the back of the nearest non-empty shard: the owner drains
  // its shard front-to-back, so thieves take the work it would reach last.
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    auto& other = shards_[(self + k) % shards_.size()];
    if (other.empty()) continue;
    out = std::move(other.back());
    other.pop_back();
    --queued_;
    ++stats_.steals;
    return true;
  }
  return false;
}

std::optional<sim::RunResult> CampaignService::run_board(PendingJob& pj,
                                                        board::Board& brd,
                                                        ServiceStats& delta) {
  const KernelJob& job = pj.job;
  if (pj.checkpoint.empty()) {
    brd.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      brd.bus().write_block(addr, bytes.data(), bytes.size());
    }
  } else {
    std::istringstream in(std::move(pj.checkpoint));
    brd.restore_state(in);
    pj.checkpoint.clear();
    ++delta.resumes;
  }
  const std::uint64_t done = brd.cpu().instret;
  std::uint64_t budget = job.max_insns > done ? job.max_insns - done : 0;
  if (job.slice_insns > 0) budget = std::min(budget, job.slice_insns);
  const sim::RunResult r = brd.run(budget, dispatch_);
  if (r.halted) return r;
  if (r.instret >= job.max_insns) {
    throw std::runtime_error("board run did not halt");
  }
  std::ostringstream out;
  brd.save_state(out);
  pj.checkpoint = std::move(out).str();
  ++pj.checkpoints;
  ++delta.checkpoints;
  delta.checkpoint_bytes += pj.checkpoint.size();
  return std::nullopt;
}

bool CampaignService::run_slice(PendingJob& pj, board::Board& brd,
                                ServiceStats& delta) {
  ++pj.slices;
  ++delta.slices;
  const auto r = run_board(pj, brd, delta);
  if (!r) return false;
  // The board's ledger holds the same per-op retire counts the ISS would
  // (the fuzz oracle's board-vs-iss leg checks this), so one run supplies
  // both n_c and the ground truth.
  pj.rec.counts = brd.op_counts();
  pj.rec.instret = r->instret;
  pj.rec.exit_code = r->exit_code;
  pj.rec.measured = brd.measure(pj.job.name);
  pj.rec.events = brd.events();
  pj.rec.cycles = brd.cycles();
  pj.rec.true_energy_nj = brd.true_energy_nj();
  pj.rec.true_time_s = brd.true_time_s();
  if (cfg_.calibrate) {
    pj.estimate = estimator_->estimate(run_sample(pj.rec), calibration_.costs);
  }
  pj.rec.ok = true;
  return true;
}

void CampaignService::worker_main(unsigned self) {
  // One board per worker, built on its first job and reused across every
  // slice it runs. Board::load and restore_state only re-zero the pages the
  // previous slice touched, and a slice of the image the worker ran last
  // keeps its decoded, morphed and compiled code, yet a reused board is
  // observably identical to a fresh one. Building it inside the job's try
  // means a worker that never gets a job costs no board, and a failed
  // allocation becomes that job's error record instead of terminating the
  // process.
  std::optional<board::Board> brd;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    PendingJob pj;
    if (!pop_job(self, pj)) {
      if (stopping_) return;
      work_cv_.wait(lk);
      continue;
    }
    ++in_flight_;
    lk.unlock();

    ServiceStats delta{};
    bool finished = true;
    try {
      if (!brd) brd.emplace(cfg_.board);
      finished = run_slice(pj, *brd, delta);
    } catch (const std::exception& e) {
      pj.rec.ok = false;
      pj.rec.error = e.what();
      finished = true;
    }

    ServiceResult res;
    if (finished) {
      res.id = pj.id;
      res.record = std::move(pj.rec);
      res.estimate = pj.estimate;
      if (cfg_.calibrate) res.scheme = cfg_.scheme;
      res.slices = pj.slices;
      res.checkpoints = pj.checkpoints;
      // Streamed before the job counts as completed, so wait_all() never
      // returns with a sink call still in flight; outside the queue lock so
      // a slow sink never stalls the other workers, under sink_mu_ so lines
      // stay whole.
      std::lock_guard<std::mutex> sg(sink_mu_);
      if (sink_) sink_(res);
    }

    lk.lock();
    --in_flight_;
    stats_.slices += delta.slices;
    stats_.checkpoints += delta.checkpoints;
    stats_.resumes += delta.resumes;
    stats_.checkpoint_bytes += delta.checkpoint_bytes;
    if (!finished) {
      shards_[self].push_back(std::move(pj));
      ++queued_;
      work_cv_.notify_one();
      continue;
    }
    ++stats_.jobs_completed;
    results_[static_cast<std::size_t>(res.id)] = std::move(res);
    have_result_[static_cast<std::size_t>(res.id)] = true;
    ++completed_;
    done_cv_.notify_all();
  }
}

std::string result_json_line(const ServiceResult& r) {
  const KernelRunRecord& rec = r.record;
  sim::JsonWriter w;
  w.begin_object().field("id", r.id).field("name", rec.name);
  w.field("ok", rec.ok);
  if (!rec.ok) w.field("error", rec.error);
  w.field("exit_code", rec.exit_code)
      .field("instret", rec.instret)
      .field("cycles", rec.cycles)
      .field("measured_energy_nj", rec.measured.energy_nj)
      .field("measured_time_s", rec.measured.time_s)
      .field("true_energy_nj", rec.true_energy_nj)
      .field("true_time_s", rec.true_time_s)
      .field("est_energy_nj", r.estimate.energy_nj)
      .field("est_time_s", r.estimate.time_s);
  if (!r.scheme.empty()) w.field("scheme", r.scheme);
  // The board's PMU-style counter export rides on every record that ran on
  // the board (retired > 0), so event-based schemes can be re-fit offline
  // from the JSONL stream alone.
  if (rec.events[board::Event::kRetired] != 0) {
    to_json(w.key("events"), rec.events);
  }
  w.field("slices", r.slices).field("checkpoints", r.checkpoints).end_object();
  return w.str();
}

}  // namespace nfp::model
