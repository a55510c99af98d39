#include "nfp/service.h"

#include <algorithm>
#include <cstdio>
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
  unsigned workers = cfg_.workers;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    // Each worker holds two 16 MiB platforms; cap the default fleet.
    workers = hw == 0 ? 2 : std::min(hw, 8u);
  }
  workers = std::max(workers, 1u);
  shards_.resize(workers);
  pool_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool_.emplace_back([this, w] { worker_main(w); });
  }
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

std::uint64_t CampaignService::submit(ServiceJob job) {
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

void CampaignService::set_static_sink(
    std::function<void(std::uint64_t, const std::string&, const StaticBounds&)>
        sink) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  static_sink_ = std::move(sink);
}

const CategoryCosts& CampaignService::costs() {
  if (!cfg_.calibrate) {
    throw std::logic_error("CampaignService: calibration disabled");
  }
  ensure_calibrated();
  return calibration_->costs;
}

std::vector<ServiceResult> CampaignService::run_jobs(
    std::vector<ServiceJob> jobs) {
  for (auto& job : jobs) submit(std::move(job));
  wait_all();
  return results();
}

void CampaignService::ensure_calibrated() {
  std::call_once(calib_once_, [&] {
    // fit() routes "eq1" through the classic Eq. 2 differencing run, so the
    // default scheme's table is bit-identical to Calibrator::run().
    calibration_ =
        Calibrator(CategoryScheme::paper(), cfg_.plan).fit(*estimator_,
                                                           cfg_.board);
  });
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

bool CampaignService::run_slice(PendingJob& pj, Campaign::WorkerArena& arena,
                                ServiceStats& delta) {
  ++pj.slices;
  ++delta.slices;
  const ServiceJob& job = pj.job;

  // Static fast path: price the program before the first executed
  // instruction and serve the interval immediately. In static_only mode an
  // accepted interval IS the answer; refusals fall through to the dynamic
  // pipeline either way.
  if (cfg_.static_estimator && !pj.static_bounds) {
    pj.static_bounds = cfg_.static_estimator(job.program);
    {
      std::lock_guard<std::mutex> sg(sink_mu_);
      if (static_sink_) static_sink_(pj.id, job.name, *pj.static_bounds);
    }
    if (cfg_.static_only && pj.static_bounds->accepted) {
      pj.static_served = true;
      pj.rec.ok = true;
      return true;
    }
  }

  if (pj.phase == Phase::kIss) {
    sim::Iss& iss = arena.iss;
    if (pj.checkpoint.empty()) {
      iss.load(job.program);
      for (const auto& [addr, bytes] : job.inputs) {
        iss.bus().write_block(addr, bytes.data(), bytes.size());
      }
    } else {
      std::istringstream in(std::move(pj.checkpoint));
      iss.restore_state(in);
      pj.checkpoint.clear();
      ++delta.resumes;
    }
    const std::uint64_t done = iss.cpu().instret;
    const std::uint64_t remaining =
        job.max_insns > done ? job.max_insns - done : 0;
    std::uint64_t budget = remaining;
    if (job.slice_insns > 0) budget = std::min(budget, job.slice_insns);
    const auto r = iss.run(budget);
    if (!r.halted) {
      if (r.instret >= job.max_insns) {
        throw std::runtime_error("ISS run did not halt (instruction budget)");
      }
      std::ostringstream out;
      iss.save_state(out);
      pj.checkpoint = std::move(out).str();
      ++pj.checkpoints;
      ++delta.checkpoints;
      delta.checkpoint_bytes += pj.checkpoint.size();
      return false;
    }
    pj.rec.counts = iss.counters().counts;
    pj.rec.instret = r.instret;
    pj.rec.exit_code = r.exit_code;
    // Phase switch is itself a preemption point: the board run starts cold
    // in a later slice (often on another worker's arena).
    pj.phase = Phase::kBoard;
    return false;
  }

  board::Board& brd = arena.board;
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
  const std::uint64_t remaining =
      job.max_insns > done ? job.max_insns - done : 0;
  std::uint64_t budget = remaining;
  if (job.slice_insns > 0) budget = std::min(budget, job.slice_insns);
  const auto r = brd.run(budget, dispatch_);
  if (!r.halted) {
    if (r.instret >= job.max_insns) {
      throw std::runtime_error("board run did not halt");
    }
    std::ostringstream out;
    brd.save_state(out);
    pj.checkpoint = std::move(out).str();
    ++pj.checkpoints;
    ++delta.checkpoints;
    delta.checkpoint_bytes += pj.checkpoint.size();
    return false;
  }
  if (r.instret != pj.rec.instret) {
    // The estimator multiplies ISS counts with board-calibrated costs;
    // diverging instruction streams would invalidate the experiment.
    throw std::runtime_error("ISS/board instruction streams diverged");
  }
  pj.rec.measured = brd.measure(job.name);
  pj.rec.events = brd.events();
  pj.rec.cycles = brd.cycles();
  pj.rec.true_energy_nj = brd.true_energy_nj();
  pj.rec.true_time_s = brd.true_time_s();
  if (cfg_.calibrate) {
    ensure_calibrated();
    pj.estimate = estimator_->estimate(run_sample(pj.rec),
                                       calibration_->costs);
  }
  pj.rec.ok = true;
  return true;
}

void CampaignService::worker_main(unsigned self) {
  // One arena per worker, reused across every slice it runs: only pages the
  // previous slice dirtied get re-zeroed (Platform::load / restore_state),
  // not 2 x 16 MiB of RAM per job.
  Campaign::WorkerArena arena(cfg_.board);
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
      finished = run_slice(pj, arena, delta);
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
      res.static_bounds = std::move(pj.static_bounds);
      res.static_served = pj.static_served;
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

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

void append_kv(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g,", key, value);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu,", key,
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

std::string static_bounds_json(const StaticBounds& b) {
  if (!b.accepted) {
    std::string out = "{\"accepted\":false,\"reason\":\"";
    append_escaped(out, b.reason);
    out += "\"}";
    return out;
  }
  std::string out = "{\"accepted\":true,";
  append_kv(out, "insns_lower", b.insns_lower);
  append_kv(out, "insns_upper", b.insns_upper);
  append_kv(out, "cycles_lower", b.cycles_lower);
  append_kv(out, "cycles_upper", b.cycles_upper);
  append_kv(out, "time_lower_s", b.time_lower_s);
  append_kv(out, "time_upper_s", b.time_upper_s);
  append_kv(out, "energy_lower_nj", b.energy_lower_nj);
  append_kv(out, "energy_upper_nj", b.energy_upper_nj);
  out.back() = '}';  // replace the trailing comma
  return out;
}

std::string static_json_line(std::uint64_t id, const std::string& name,
                             const StaticBounds& b) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"name\":\"";
  append_escaped(out, name);
  out += "\",\"static\":";
  out += static_bounds_json(b);
  out += '}';
  return out;
}

std::string result_json_line(const ServiceResult& r) {
  std::string out = "{\"id\":";
  out += std::to_string(r.id);
  out += ",\"name\":\"";
  append_escaped(out, r.record.name);
  out += "\",\"ok\":";
  out += r.record.ok ? "true," : "false,";
  if (!r.record.ok) {
    out += "\"error\":\"";
    append_escaped(out, r.record.error);
    out += "\",";
  }
  append_kv(out, "exit_code", static_cast<std::uint64_t>(r.record.exit_code));
  append_kv(out, "instret", r.record.instret);
  append_kv(out, "cycles", r.record.cycles);
  append_kv(out, "measured_energy_nj", r.record.measured.energy_nj);
  append_kv(out, "measured_time_s", r.record.measured.time_s);
  append_kv(out, "true_energy_nj", r.record.true_energy_nj);
  append_kv(out, "true_time_s", r.record.true_time_s);
  append_kv(out, "est_energy_nj", r.estimate.energy_nj);
  append_kv(out, "est_time_s", r.estimate.time_s);
  if (!r.scheme.empty()) {
    out += "\"scheme\":\"";
    append_escaped(out, r.scheme);
    out += "\",";
  }
  // The board's PMU-style counter export rides on every record that ran on
  // the board (retired > 0), so event-based schemes can be re-fit offline
  // from the JSONL stream alone.
  if (r.record.events[board::Event::kRetired] != 0) {
    out += "\"events\":{";
    append_kv(out, "version",
              static_cast<std::uint64_t>(board::kEventCountersVersion));
    for (std::size_t i = 0; i < board::kEventCount; ++i) {
      const auto e = static_cast<board::Event>(i);
      append_kv(out, std::string(board::event_name(e)).c_str(),
                r.record.events[e]);
    }
    out.back() = '}';  // replace the trailing comma
    out += ',';
  }
  append_kv(out, "slices", r.slices);
  append_kv(out, "checkpoints", r.checkpoints);
  if (r.static_bounds) {
    out += "\"static_served\":";
    out += r.static_served ? "true," : "false,";
    out += "\"static\":";
    out += static_bounds_json(*r.static_bounds);
    out += ',';
  }
  out.back() = '}';  // replace the trailing comma
  return out;
}

}  // namespace nfp::model
