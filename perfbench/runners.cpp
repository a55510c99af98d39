#include "runners.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "board/board.h"
#include "sim/jit.h"
#include "sim/memmap.h"

namespace nfpbench {
namespace {

using nfp::sim::Dispatch;

const nfp::model::Estimator& eq1() {
  return *nfp::model::find_estimator("eq1");
}

template <class Sim>
void load_job(Sim& sim, const Job& job) {
  sim.load(*job.program);
  sim.bus().write_block(nfp::sim::kInputBase, job.input.data(),
                        job.input.size());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void parallel(unsigned workers, const std::function<void(unsigned)>& body) {
  std::vector<std::thread> pool;
  std::exception_ptr failure;
  std::mutex failure_mu;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        std::lock_guard<std::mutex> lk(failure_mu);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  if (failure) std::rethrow_exception(failure);
}

unsigned default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : std::min(hw, 8u);
}

// ---- timed runners --------------------------------------------------------

ServiceRunner::ServiceRunner() : service_(nfp::model::ServiceConfig{}) {
  service_.costs();  // calibrate now, before the first submit
}

Batch ServiceRunner::run(const Workload& w) {
  std::vector<nfp::model::ServiceJob> jobs;
  jobs.reserve(w.jobs.size());
  for (const Job& job : w.jobs) {
    nfp::model::ServiceJob sj;
    sj.name = job.name;
    sj.program = *job.program;
    sj.inputs.emplace_back(nfp::sim::kInputBase, job.input);
    sj.slice_insns = w.slice_insns;
    jobs.push_back(std::move(sj));
  }
  const std::uint64_t first = next_id_;
  std::vector<Clock::time_point> submitted(jobs.size()), done(jobs.size());
  service_.set_sink([&](const nfp::model::ServiceResult& r) {
    done[r.id - first] = Clock::now();
  });
  const nfp::model::ServiceStats before = service_.stats();

  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    submitted[i] = Clock::now();
    service_.submit(std::move(jobs[i]));
  }
  service_.wait_all();
  const Clock::time_point t1 = Clock::now();
  service_.set_sink(nullptr);
  next_id_ += jobs.size();

  Batch b;
  b.wall_s = seconds_between(t0, t1);
  const nfp::model::ServiceStats after = service_.stats();
  b.service.jobs_completed = after.jobs_completed - before.jobs_completed;
  b.service.slices = after.slices - before.slices;
  b.service.checkpoints = after.checkpoints - before.checkpoints;
  b.service.resumes = after.resumes - before.resumes;
  b.service.steals = after.steals - before.steals;
  b.service.checkpoint_bytes =
      after.checkpoint_bytes - before.checkpoint_bytes;
  for (auto& r : service_.results()) {
    if (r.id < first) continue;
    const std::size_t i = r.id - first;
    JobResult jr;
    jr.rec = std::move(r.record);
    jr.estimate = r.estimate;
    jr.board = true;
    jr.latency_s = seconds_between(submitted[i], done[i]);
    b.insns += 2 * jr.rec.instret;
    b.results.push_back(std::move(jr));
  }
  return b;
}

IssRunner::IssRunner(unsigned workers, nfp::model::CategoryCosts costs)
    : costs_(std::move(costs)) {
  for (unsigned t = 0; t < workers; ++t) {
    arenas_.push_back(std::make_unique<nfp::sim::Iss>());
  }
}

Batch IssRunner::run(const Workload& w) {
  const std::size_t n = w.jobs.size();
  Batch b;
  b.results.resize(n);
  b.outputs.resize(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  parallel(static_cast<unsigned>(arenas_.size()), [&](unsigned t) {
    nfp::sim::Iss& iss = *arenas_[t];
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const Job& job = w.jobs[i];
      JobResult& jr = b.results[i];
      jr.rec.name = job.name;
      try {
        load_job(iss, job);
        const auto r = iss.run();
        if (!r.halted) throw std::runtime_error("ISS run did not halt");
        jr.rec.counts = iss.counters().counts;
        jr.rec.instret = r.instret;
        jr.rec.exit_code = r.exit_code;
        jr.estimate = eq1().estimate(nfp::model::run_sample(jr.rec), costs_);
        jr.rec.ok = true;
      } catch (const std::exception& e) {
        jr.rec.error = e.what();
      }
      jr.latency_s = seconds_between(t0, Clock::now());
      if (jr.rec.ok) b.outputs[i] = read_output(iss.bus(), job);
    }
  });
  for (const JobResult& jr : b.results) {
    b.wall_s = std::max(b.wall_s, jr.latency_s);
    b.insns += jr.rec.instret;
  }
  return b;
}

// ---- traced pipeline ------------------------------------------------------

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  iss_insns += o.iss_insns;
  board_insns += o.board_insns;
  iss_blocks_morphed += o.iss_blocks_morphed;
  iss_jit_compiled += o.iss_jit_compiled;
  iss_jit_rejected += o.iss_jit_rejected;
  board_jit_compiled += o.board_jit_compiled;
  board_jit_rejected += o.board_jit_rejected;
  board_jit_helper_exec += o.board_jit_helper_exec;
  board_cycles += o.board_cycles;
  board_row_misses += o.board_row_misses;
  board_stall_cycles += o.board_stall_cycles;
  estimate_calls += o.estimate_calls;
  snapshot_saves += o.snapshot_saves;
  snapshot_bytes += o.snapshot_bytes;
  resumes += o.resumes;
  morphs_after_resume += o.morphs_after_resume;
  return *this;
}

namespace {

struct Pending {
  std::size_t job = 0;
  bool board_phase = false;
  std::string checkpoint;  // empty = the phase starts cold
  JobResult result;
};

// A shared FIFO of job slices: a preempted slice goes to the back and is
// usually resumed by another worker, against another arena, as in the
// service.
class SliceQueue {
 public:
  explicit SliceQueue(std::size_t jobs) : unfinished_(jobs) {
    for (std::size_t i = 0; i < jobs; ++i) {
      Pending p;
      p.job = i;
      queue_.push_back(std::move(p));
    }
  }
  bool pop(Pending& out) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !queue_.empty() || unfinished_ == 0; });
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }
  void requeue(Pending p) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      --unfinished_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::size_t unfinished_;
};

void add_cache_stats(nfp::sim::Platform& platform, std::uint64_t& morphed,
                     std::uint64_t& compiled, std::uint64_t& rejected,
                     std::uint64_t* helper_exec) {
  nfp::sim::BlockCache* bc = platform.block_cache();
  if (bc == nullptr) return;
  morphed += bc->stats().blocks_morphed;
  if (const nfp::sim::JitRuntime* jit = bc->jit()) {
    compiled += jit->stats().blocks_compiled;
    rejected += jit->stats().blocks_rejected;
    if (helper_exec != nullptr) *helper_exec += jit->stats().helper_exec;
  }
}

class TracedWorker {
 public:
  TracedWorker(const Workload& w, Tracer& tracer, unsigned thread,
               Dispatch board_dispatch, const nfp::model::CategoryCosts& costs)
      : w_(w),
        tracer_(tracer),
        thread_(thread),
        board_dispatch_(board_dispatch),
        costs_(costs),
        board_(nfp::board::BoardConfig{}) {}

  // Runs one slice of `p`; true when the job is finished.
  bool run_slice(Pending& p) {
    const auto job = static_cast<std::int64_t>(p.job);
    Tracer::Scope slice(tracer_, thread_, "slice", job);
    if (!p.board_phase) {
      if (!run_phase(iss_, p, slice.id())) return false;
      p.result.rec.counts = iss_.counters().counts;
      p.result.rec.instret = iss_.cpu().instret;
      p.result.rec.exit_code = iss_.cpu().exit_code;
      p.board_phase = true;
      if (!w_.board) return finish(p, slice.id());
      // The phase switch is itself a preemption point in the service.
      if (w_.slice_insns > 0) return false;
    }
    if (!run_phase(board_, p, slice.id())) return false;
    if (board_.cpu().instret != p.result.rec.instret) {
      throw std::runtime_error("ISS/board instruction streams diverged");
    }
    auto& rec = p.result.rec;
    {
      Tracer::Scope s(tracer_, thread_, "board.measure", job, slice.id());
      rec.measured = board_.measure(rec.name);
    }
    rec.events = board_.events();
    rec.cycles = board_.cycles();
    rec.true_energy_nj = board_.true_energy_nj();
    rec.true_time_s = board_.true_time_s();
    p.result.board = true;
    counts.board_cycles += rec.cycles;
    counts.board_row_misses += board_.stats().row_misses;
    counts.board_stall_cycles += board_.stats().stall_cycles;
    return finish(p, slice.id());
  }

  LayerCounts counts;

 private:
  // Loads or restores the phase's platform and runs it for one slice;
  // false when the slice ended at a preemption point (state checkpointed).
  template <class Sim>
  bool run_phase(Sim& sim, Pending& p, std::uint64_t parent) {
    constexpr bool iss = std::is_same_v<Sim, nfp::sim::Iss>;
    const Job& job = w_.jobs[p.job];
    const auto id = static_cast<std::int64_t>(p.job);
    const bool resumed = !p.checkpoint.empty();
    if (!resumed) {
      Tracer::Scope s(tracer_, thread_, iss ? "iss.load" : "board.load", id,
                      parent);
      load_job(sim, job);
    } else {
      Tracer::Scope s(tracer_, thread_, "snapshot.restore", id, parent);
      std::istringstream in(std::move(p.checkpoint));
      sim.restore_state(in);
      p.checkpoint.clear();
      ++counts.resumes;
    }
    const std::uint64_t max_insns = nfp::board::Board::kDefaultMaxInsns;
    const std::uint64_t before = sim.cpu().instret;
    std::uint64_t budget = max_insns > before ? max_insns - before : 0;
    if (w_.slice_insns > 0) budget = std::min(budget, w_.slice_insns);
    nfp::sim::RunResult r;
    {
      Tracer::Scope s(tracer_, thread_, iss ? "iss.run" : "board.run", id,
                      parent);
      if constexpr (iss) {
        r = sim.run(budget);
      } else {
        r = sim.run(budget, board_dispatch_);
      }
    }
    std::uint64_t morphed = 0;
    if (iss) {
      counts.iss_insns += r.instret - before;
      add_cache_stats(sim.platform(), morphed, counts.iss_jit_compiled,
                      counts.iss_jit_rejected, nullptr);
      counts.iss_blocks_morphed += morphed;
    } else {
      counts.board_insns += r.instret - before;
      add_cache_stats(sim.platform(), morphed, counts.board_jit_compiled,
                      counts.board_jit_rejected,
                      &counts.board_jit_helper_exec);
    }
    if (resumed) counts.morphs_after_resume += morphed;
    if (r.halted) return true;
    if (r.instret >= max_insns) {
      throw std::runtime_error(iss ? "ISS run did not halt (instruction budget)"
                                   : "board run did not halt");
    }
    Tracer::Scope s(tracer_, thread_, "snapshot.save", id, parent);
    std::ostringstream out;
    sim.save_state(out);
    p.checkpoint = std::move(out).str();
    ++counts.snapshot_saves;
    counts.snapshot_bytes += p.checkpoint.size();
    return false;
  }

  bool finish(Pending& p, std::uint64_t parent) {
    Tracer::Scope s(tracer_, thread_, "estimate",
                    static_cast<std::int64_t>(p.job), parent);
    p.result.estimate =
        eq1().estimate(nfp::model::run_sample(p.result.rec), costs_);
    ++counts.estimate_calls;
    p.result.rec.ok = true;
    return true;
  }

  const Workload& w_;
  Tracer& tracer_;
  unsigned thread_;
  Dispatch board_dispatch_;
  const nfp::model::CategoryCosts& costs_;
  nfp::sim::Iss iss_;
  nfp::board::Board board_;
};

}  // namespace

TracedBatch run_traced(const Workload& w, Tracer& tracer, unsigned workers,
                       Dispatch board_dispatch,
                       const nfp::model::CategoryCosts& costs) {
  TracedBatch out;
  out.results.resize(w.jobs.size());
  SliceQueue queue(w.jobs.size());
  // Arenas are built before t0, as the service builds its workers' arenas
  // at construction.
  std::vector<std::unique_ptr<TracedWorker>> pool;
  for (unsigned t = 0; t < workers; ++t) {
    pool.push_back(
        std::make_unique<TracedWorker>(w, tracer, t, board_dispatch, costs));
  }
  const Clock::time_point t0 = Clock::now();
  parallel(workers, [&](unsigned t) {
    TracedWorker& worker = *pool[t];
    for (Pending p; queue.pop(p);) {
      p.result.rec.name = w.jobs[p.job].name;
      bool finished = true;
      try {
        finished = worker.run_slice(p);
      } catch (const std::exception& e) {
        p.result.rec.ok = false;
        p.result.rec.error = e.what();
      }
      if (!finished) {
        queue.requeue(std::move(p));
        continue;
      }
      p.result.latency_s = seconds_between(t0, Clock::now());
      out.results[p.job] = std::move(p.result);
      queue.finish();
    }
  });
  for (const JobResult& r : out.results) {
    out.wall_s = std::max(out.wall_s, r.latency_s);
  }
  for (const auto& worker : pool) out.counts += worker->counts;
  return out;
}

// ---- out-of-band passes ---------------------------------------------------

double exec_reference_s(const Workload& w, unsigned workers,
                        Dispatch dispatch) {
  std::atomic<std::size_t> next{0};
  std::vector<double> busy(workers, 0.0);
  parallel(workers, [&](unsigned t) {
    nfp::sim::FunctionalSim sim;
    for (std::size_t i = next.fetch_add(1); i < w.jobs.size();
         i = next.fetch_add(1)) {
      load_job(sim, w.jobs[i]);
      const Clock::time_point t0 = Clock::now();
      sim.run(nfp::sim::Iss::kDefaultMaxInsns, dispatch);
      busy[t] += seconds_between(t0, Clock::now());
    }
  });
  double total = 0.0;
  for (const double b : busy) total += b;
  return total;
}

namespace {

struct ModeRun {
  nfp::model::KernelRunRecord rec;
  double iss_s = 0.0, board_s = 0.0;
};

ModeRun run_pinned(const Workload& w, const Job& job, Dispatch d,
                   nfp::sim::Iss& iss, nfp::board::Board* board) {
  ModeRun m;
  load_job(iss, job);
  Clock::time_point t0 = Clock::now();
  const auto r = iss.run(nfp::sim::Iss::kDefaultMaxInsns, d);
  m.iss_s = seconds_between(t0, Clock::now());
  if (!r.halted) throw std::runtime_error(job.name + ": ISS did not halt");
  m.rec.counts = iss.counters().counts;
  m.rec.instret = r.instret;
  m.rec.exit_code = r.exit_code;
  if (board == nullptr || !w.board) return m;
  load_job(*board, job);
  t0 = Clock::now();
  const auto b = board->run(nfp::board::Board::kDefaultMaxInsns, d);
  m.board_s = seconds_between(t0, Clock::now());
  if (!b.halted) throw std::runtime_error(job.name + ": board did not halt");
  m.rec.cycles = board->cycles();
  m.rec.true_energy_nj = board->true_energy_nj();
  m.rec.true_time_s = board->true_time_s();
  m.rec.measured = board->measure(job.name);
  m.rec.events = board->events();
  return m;
}

bool same_record(const nfp::model::KernelRunRecord& a,
                 const nfp::model::KernelRunRecord& b, bool board) {
  if (a.counts != b.counts || a.instret != b.instret ||
      a.exit_code != b.exit_code) {
    return false;
  }
  if (!board) return true;
  return a.cycles == b.cycles && same_bits(a.true_energy_nj, b.true_energy_nj) &&
         same_bits(a.true_time_s, b.true_time_s) &&
         same_bits(a.measured.energy_nj, b.measured.energy_nj) &&
         same_bits(a.measured.time_s, b.measured.time_s) &&
         a.events == b.events;
}

}  // namespace

DispatchMips dispatch_diagnostic(const Workload& w, unsigned workers) {
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < w.jobs.size(); i += 8) subset.push_back(i);
  const Dispatch modes[] = {Dispatch::kBlock, Dispatch::kJit};
  std::vector<ModeRun> runs[2];
  double mips[2][2] = {};  // [mode][iss, board]
  for (int m = 0; m < 2; ++m) {
    runs[m].resize(subset.size());
    std::atomic<std::size_t> next{0};
    parallel(workers, [&](unsigned) {
      nfp::sim::Iss iss;
      std::unique_ptr<nfp::board::Board> board;
      if (w.board) board = std::make_unique<nfp::board::Board>();
      for (std::size_t k = next.fetch_add(1); k < subset.size();
           k = next.fetch_add(1)) {
        runs[m][k] =
            run_pinned(w, w.jobs[subset[k]], modes[m], iss, board.get());
      }
    });
    double insns = 0, iss_s = 0, board_s = 0;
    for (const ModeRun& r : runs[m]) {
      insns += static_cast<double>(r.rec.instret);
      iss_s += r.iss_s;
      board_s += r.board_s;
    }
    mips[m][0] = insns / iss_s / 1e6;
    mips[m][1] = w.board ? insns / board_s / 1e6 : 0.0;
  }
  DispatchMips d;
  d.iss_block = mips[0][0];
  d.iss_jit = mips[1][0];
  d.board_block = mips[0][1];
  d.board_jit = mips[1][1];
  for (std::size_t k = 0; k < subset.size(); ++k) {
    d.identical = d.identical && same_record(runs[0][k].rec, runs[1][k].rec,
                                             w.board);
  }
  return d;
}

bool step_matches(const Workload& w, std::size_t job, const JobResult& timed) {
  nfp::sim::Iss iss;
  std::unique_ptr<nfp::board::Board> board;
  if (w.board) board = std::make_unique<nfp::board::Board>();
  const ModeRun m =
      run_pinned(w, w.jobs[job], Dispatch::kStep, iss, board.get());
  return same_record(m.rec, timed.rec, w.board);
}

}  // namespace nfpbench
