// nfpbench — the repository benchmark driver (perfbench/README.md).
//
//   nfpbench --workload campaign|iss_estimate|preempt [--seed N]
//            [--seconds S] [--trace 0|1] [--trace-out PATH] [--setup-only]
//
// --trace 0 sets up, then runs closed batches (every job submitted at t0,
// 4 workers) until S seconds have passed; a batch is never cut, so a run
// measures at least one. It checks every result and prints the end-to-end
// metrics. --trace 1 makes the separate traced run instead and prints the
// per-layer metrics. --setup-only times the set-up alone. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the exit
// status is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "jobs.h"
#include "nfp/calibration.h"
#include "nfp/error.h"
#include "runners.h"
#include "trace.h"

namespace nfpbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "nfpbench: %s\n"
               "usage: nfpbench --workload campaign|iss_estimate|preempt "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] "
               "[--setup-only]\n",
               what.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.trace = value() != "0";
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (!known_workload(a.workload)) {
    usage_error("unknown workload '" + a.workload + "'");
  }
  return a;
}

// ---- results ----------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    const char* sep = "";
    for (const auto& m : metrics_) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    sep, m.name.c_str(), m.value, m.unit);
      out += buf;
      sep = ",";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

// Jobs attempted and checks failed; a failed check is printed, fails the
// command and counts toward failed_frac.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  std::uint64_t failed_jobs() const { return std::min(failed, attempted); }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct ErrorRow {
  std::string group;
  std::size_t kernels = 0;
  nfp::model::ErrorStats energy, time;
};

// Eq. 3 errors of the eq1 estimates against the bench measurements, per
// group and over all (the last row); `measured` is parallel to `results`.
std::vector<ErrorRow> error_rows(const std::vector<Job>& jobs,
                                 const std::vector<JobResult>& results,
                                 const std::vector<const JobResult*>& measured) {
  std::vector<ErrorRow> rows;
  std::vector<std::string> names = groups();
  names.push_back("all");
  for (const std::string& g : names) {
    std::vector<double> est_e, meas_e, est_t, meas_t;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (measured[i] == nullptr || !results[i].rec.ok) continue;
      if (g != "all" && jobs[i].group != g) continue;
      est_e.push_back(results[i].estimate.energy_nj);
      meas_e.push_back(measured[i]->rec.measured.energy_nj);
      est_t.push_back(results[i].estimate.time_s);
      meas_t.push_back(measured[i]->rec.measured.time_s);
    }
    if (est_e.empty()) continue;
    ErrorRow row;
    row.group = g;
    row.kernels = est_e.size();
    row.energy = nfp::model::error_stats(est_e, meas_e);
    row.time = nfp::model::error_stats(est_t, meas_t);
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_error_rows(const std::vector<ErrorRow>& rows) {
  std::printf("eq1 error vs bench measurement (Eq. 3):\n");
  for (const ErrorRow& r : rows) {
    std::printf(
        "  %-11s kernels %3zu  energy mean %6.3f%% max %6.3f%%  "
        "time mean %6.3f%% max %6.3f%%\n",
        r.group.c_str(), r.kernels, r.energy.mean_abs_percent(),
        r.energy.max_abs_percent(), r.time.mean_abs_percent(),
        r.time.max_abs_percent());
  }
}

// Seed 0 reproduces BENCH_scheme_accuracy.json's eq1 "all" row when the
// file is present (it is re-baselined together with any energy change).
void check_accuracy_file(const ErrorRow& all, Checks& checks) {
  std::ifstream in("BENCH_scheme_accuracy.json");
  if (!in) {
    std::printf("BENCH_scheme_accuracy.json not found; row check skipped\n");
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::size_t at = text.find("\"scheme\":\"eq1\"");
  if (at != std::string::npos) at = text.find("\"group\":\"all\"", at);
  double want[4] = {};
  const char* keys[4] = {"\"mean_abs\":", "\"max_abs\":", "\"mean_abs\":",
                         "\"max_abs\":"};
  for (int k = 0; k < 4 && at != std::string::npos; ++k) {
    at = text.find(keys[k], at);
    if (at == std::string::npos) break;
    at += std::strlen(keys[k]);
    want[k] = std::strtod(text.c_str() + at, nullptr);
  }
  const double got[4] = {all.energy.mean_abs, all.energy.max_abs,
                         all.time.mean_abs, all.time.max_abs};
  bool same = at != std::string::npos;
  for (int k = 0; k < 4; ++k) {
    same = same && std::abs(got[k] - want[k]) <= 1e-12 * std::abs(want[k]);
  }
  std::printf("seed 0 eq1 all-row vs BENCH_scheme_accuracy.json: %s\n",
              same ? "identical" : "DIFFERENT");
  checks.expect(same, "eq1 all-row differs from BENCH_scheme_accuracy.json");
}

// The last job of each group: the kernel the kStep and board-reference
// checks rerun. Fixed by position, so every seed checks the same names.
std::vector<std::size_t> check_jobs(const Workload& w) {
  std::vector<std::size_t> out;
  for (const std::string& g : groups()) {
    for (std::size_t i = w.jobs.size(); i-- > 0;) {
      if (w.jobs[i].group == g) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

// ---- set-up -------------------------------------------------------------------

struct Setup {
  Workload w;
  std::unique_ptr<ServiceRunner> service;  // campaign, preempt
  std::unique_ptr<IssRunner> iss;          // iss_estimate
  double seconds = 0.0;
};

// Input generation, mcc compile and calibration: everything before the
// first submit.
Setup set_up(const Args& a) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.w = make_workload(a.workload, a.seed);
  if (a.workload == "iss_estimate") {
    const auto calib = nfp::model::Calibrator().fit(
        *nfp::model::find_estimator("eq1"), nfp::board::BoardConfig{});
    s.iss = std::make_unique<IssRunner>(default_workers(), calib.costs);
  } else {
    s.service = std::make_unique<ServiceRunner>();
  }
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

// ---- timed run ------------------------------------------------------------------

int timed_run(const Args& a) {
  Setup s = set_up(a);
  const Workload& w = s.w;
  std::printf("workload %s seed %llu: %zu jobs, %u workers, slice %llu, "
              "set-up %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.jobs.size(), default_workers(),
              static_cast<unsigned long long>(w.slice_insns), s.seconds);

  std::vector<Batch> batches;
  const Clock::time_point start = Clock::now();
  do {
    batches.push_back(s.service ? s.service->run(w) : s.iss->run(w));
    const Batch& b = batches.back();
    std::printf("batch %zu: wall %.3f s, %.1f MIPS, %llu slices, "
                "%llu checkpoints\n",
                batches.size(), b.wall_s,
                static_cast<double>(b.insns) / b.wall_s / 1e6,
                static_cast<unsigned long long>(b.service.slices),
                static_cast<unsigned long long>(b.service.checkpoints));
  } while (seconds_between(start, Clock::now()) < a.seconds);
  const double rss = peak_rss_mib();

  // ---- checks (outside the timed region) ----
  Checks checks;
  std::vector<Output> golden;
  if (!batches.front().outputs.empty()) {
    for (const Job& job : w.jobs) golden.push_back(golden_output(job));
  }
  const std::uint64_t first_digest = digest(batches.front().results);
  for (const Batch& b : batches) {
    for (std::size_t i = 0; i < b.results.size(); ++i) {
      const auto& rec = b.results[i].rec;
      ++checks.attempted;
      checks.expect(rec.ok && rec.exit_code == 0,
                    rec.name + ": " + (rec.ok ? "exit code " +
                                                    std::to_string(rec.exit_code)
                                              : rec.error));
      if (!golden.empty() && rec.ok) {
        const Output& got = b.outputs[i];
        checks.expect(got.bytes == golden[i].bytes &&
                          got.values == golden[i].values,
                      rec.name + ": target output differs from golden");
      }
    }
    checks.expect(digest(b.results) == first_digest,
                  "simulated statistics differ between batches");
  }
  if (a.seed == 0 && w.name != "preempt") {
    checks.expect(matches_library_campaign(w),
                  "seed 0 inputs differ from the nfpd --campaign set");
  }

  // One kernel per group again under kStep; for iss_estimate also on the
  // board (library defaults) to measure what the ISS-only run estimated.
  const std::vector<std::size_t> picks = check_jobs(w);
  std::vector<char> step_ok(picks.size());
  std::vector<JobResult> reference(picks.size());
  parallel(static_cast<unsigned>(picks.size()), [&](unsigned k) {
    const JobResult& timed = batches.front().results[picks[k]];
    step_ok[k] = step_matches(w, picks[k], timed);
    if (!w.board) {
      nfp::model::KernelJob kj;
      kj.name = w.jobs[picks[k]].name;
      kj.program = *w.jobs[picks[k]].program;
      kj.inputs.emplace_back(nfp::sim::kInputBase, w.jobs[picks[k]].input);
      reference[k].rec =
          nfp::model::Campaign(nfp::board::BoardConfig{}).run_one(kj);
    }
  });
  for (std::size_t k = 0; k < picks.size(); ++k) {
    std::printf("kStep check %s: %s\n", w.jobs[picks[k]].name.c_str(),
                step_ok[k] ? "identical" : "DIFFERENT");
    checks.expect(step_ok[k] != 0,
                  w.jobs[picks[k]].name + ": kStep rerun differs");
  }

  const std::vector<JobResult>& results = batches.front().results;
  std::vector<const JobResult*> measured(results.size(), nullptr);
  if (w.board) {
    for (std::size_t i = 0; i < results.size(); ++i) measured[i] = &results[i];
  } else {
    for (std::size_t k = 0; k < picks.size(); ++k) {
      checks.expect(reference[k].rec.ok, reference[k].rec.name +
                                             ": board reference failed");
      measured[picks[k]] = &reference[k];
    }
  }
  const std::vector<ErrorRow> rows = error_rows(w.jobs, results, measured);
  print_error_rows(rows);
  const ErrorRow& all = rows.back();
  if (a.seed == 0 && w.name == "campaign") check_accuracy_file(all, checks);

  std::printf("digest %s seed %llu: %016llx (%zu jobs, %zu batches)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(first_digest), results.size(),
              batches.size());

  // ---- end-to-end metrics ----
  std::vector<double> walls, mips, p50, p90;
  std::size_t samples = 0;
  for (const Batch& b : batches) {
    std::vector<double> lat;
    for (const JobResult& r : b.results) lat.push_back(r.latency_s);
    samples += lat.size();
    walls.push_back(b.wall_s);
    mips.push_back(static_cast<double>(b.insns) / b.wall_s / 1e6);
    p50.push_back(percentile(lat, 0.50));
    p90.push_back(percentile(lat, 0.90));
  }
  std::printf("job latency: %zu samples over %zu batches (p90 has %zu "
              "beyond it per batch)\n",
              samples, batches.size(),
              results.size() - static_cast<std::size_t>(std::ceil(
                                   0.9 * static_cast<double>(results.size()))));
  std::printf("failed_frac: %llu / %llu\n",
              static_cast<unsigned long long>(checks.failed_jobs()),
              static_cast<unsigned long long>(checks.attempted));

  Report report;
  report.add("setup_s", s.seconds, "s");
  report.add("wall_s", median(walls), "s");
  report.add("sim_mips", median(mips), "MIPS");
  report.add("job_latency_p50_s", median(p50), "s");
  report.add("job_latency_p90_s", median(p90), "s");
  report.add("peak_rss_mib", rss, "MiB");
  report.add("energy_err_mean_pct", all.energy.mean_abs_percent(), "%");
  report.add("energy_err_max_pct", all.energy.max_abs_percent(), "%");
  report.add("time_err_mean_pct", all.time.mean_abs_percent(), "%");
  report.add("time_err_max_pct", all.time.max_abs_percent(), "%");
  std::printf("end-to-end metrics:\n");
  report.print_table();
  const bool correct = checks.failed == 0;
  std::printf("%s\n",
              report.json(correct, checks.attempted, checks.failed_jobs())
                  .c_str());
  return correct ? 0 : 1;
}

// ---- traced run ---------------------------------------------------------------------

int traced_run(const Args& a) {
  const unsigned workers = default_workers();
  Tracer tracer(workers);
  Checks checks;

  // Set-up, traced: build stages and calibration under one root span.
  Workload w;
  nfp::model::SchemeCalibration calib;
  {
    Tracer::Scope root(tracer, 0, "setup", -1);
    w = make_workload(a.workload, a.seed);
    tracer.record(0, "build.inputs", -1, root.id(), w.inputs.start,
                  w.inputs.end);
    tracer.record(0, "build.compile", -1, root.id(), w.compile.start,
                  w.compile.end);
    Tracer::Scope s(tracer, 0, "calibrate", -1, root.id());
    calib = nfp::model::Calibrator().fit(*nfp::model::find_estimator("eq1"),
                                         nfp::board::BoardConfig{});
  }

  // The untraced batch, for the overhead comparison and the service stats.
  Batch untraced;
  nfp::sim::Dispatch board_dispatch = nfp::sim::Dispatch::kBlock;
  if (w.name == "iss_estimate") {
    untraced = IssRunner(workers, calib.costs).run(w);
  } else {
    ServiceRunner service;
    const auto& costs = service.costs();
    checks.expect(costs.energy_nj == calib.costs.energy_nj &&
                      costs.time_ns == calib.costs.time_ns,
                  "service calibration differs from Calibrator::fit");
    board_dispatch = service.board_dispatch();
    untraced = service.run(w);
  }

  const TracedBatch traced =
      run_traced(w, tracer, workers, board_dispatch, calib.costs);
  for (const JobResult& r : traced.results) {
    ++checks.attempted;
    checks.expect(r.rec.ok && r.rec.exit_code == 0,
                  r.rec.name + ": " + (r.rec.ok ? "nonzero exit" : r.rec.error));
  }
  const std::uint64_t d_untraced = digest(untraced.results);
  const std::uint64_t d_traced = digest(traced.results);
  std::printf("digest %s seed %llu: untraced %016llx, traced %016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(d_untraced),
              static_cast<unsigned long long>(d_traced));
  checks.expect(d_untraced == d_traced,
                "traced pipeline differs from the untraced run");

  const double exec_ref =
      w.board ? exec_reference_s(w, workers, board_dispatch) : 0.0;
  const DispatchMips diag = dispatch_diagnostic(w, workers);
  checks.expect(diag.identical, "kBlock and kJit runs differ");

  const std::vector<Span> spans = tracer.spans();
  const auto self = self_time_by_layer(spans);
  double busy = 0.0;
  for (const auto& [layer, sec] : self) busy += sec;
  std::printf("self time per layer (traced set-up and batch, %u threads):\n",
              workers);
  for (const auto& [layer, sec] : self) {
    std::printf("  %-10s %10.3f s  %5.1f%%\n", layer.c_str(), sec,
                100.0 * sec / busy);
  }
  if (!a.trace_out.empty()) {
    write_trace(a.trace_out, w.name, a.seed, spans, self);
    std::printf("spans: %zu written to %s\n", spans.size(),
                a.trace_out.c_str());
  }

  const auto group_total = [&](const char* name, const std::string& group) {
    double total = 0.0;
    for (const Span& s : spans) {
      if (s.job >= 0 && std::strcmp(s.name, name) == 0 &&
          w.jobs[static_cast<std::size_t>(s.job)].group == group) {
        total += s.seconds();
      }
    }
    return total;
  };
  const auto share = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : 100.0 * it->second / busy;
  };
  const LayerCounts& c = traced.counts;
  const double iss_run = total_seconds(spans, "iss.run");
  const double board_run = total_seconds(spans, "board.run");
  const auto mips = [](std::uint64_t insns, double s) {
    return s > 0.0 ? static_cast<double>(insns) / s / 1e6 : 0.0;
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  Report r;
  r.add("build.compile_s", w.compile.seconds(), "s");
  r.add("build.inputs_s", w.inputs.seconds(), "s");
  r.add("calibrate.s", total_seconds(spans, "calibrate"), "s");
  r.add("calibrate.runs", n(calib.samples), "count");
  r.add("iss.load_s", total_seconds(spans, "iss.load"), "s");
  r.add("iss.run_s", iss_run, "s");
  for (const std::string& g : groups()) {
    r.add("iss.run_s." + g, group_total("iss.run", g), "s");
  }
  r.add("iss.insns", n(c.iss_insns), "count");
  r.add("iss.mips", mips(c.iss_insns, iss_run), "MIPS");
  r.add("iss.blocks_morphed", n(c.iss_blocks_morphed), "count");
  r.add("iss.jit_blocks_compiled", n(c.iss_jit_compiled), "count");
  r.add("iss.jit_blocks_rejected", n(c.iss_jit_rejected), "count");
  r.add("board.load_s", total_seconds(spans, "board.load"), "s");
  r.add("board.run_s", board_run, "s");
  for (const std::string& g : groups()) {
    r.add("board.run_s." + g, group_total("board.run", g), "s");
  }
  r.add("board.measure_s", total_seconds(spans, "board.measure"), "s");
  r.add("board.insns", n(c.board_insns), "count");
  r.add("board.mips", mips(c.board_insns, board_run), "MIPS");
  r.add("board.exec_ref_s", exec_ref, "s");
  r.add("board.accounting_s", w.board ? board_run - exec_ref : 0.0, "s");
  r.add("board.jit_blocks_compiled", n(c.board_jit_compiled), "count");
  r.add("board.jit_blocks_rejected", n(c.board_jit_rejected), "count");
  r.add("board.jit_helper_exec", n(c.board_jit_helper_exec), "count");
  r.add("board.cycles", n(c.board_cycles), "count");
  r.add("board.row_misses", n(c.board_row_misses), "count");
  r.add("board.stall_cycles", n(c.board_stall_cycles), "count");
  r.add("estimate.s", total_seconds(spans, "estimate"), "s");
  r.add("estimate.calls", n(c.estimate_calls), "count");
  r.add("service.slices", n(untraced.service.slices), "count");
  r.add("service.checkpoints", n(untraced.service.checkpoints), "count");
  r.add("service.checkpoint_bytes", n(untraced.service.checkpoint_bytes),
        "B");
  r.add("service.steals", n(untraced.service.steals), "count");
  r.add("snapshot.save_s", total_seconds(spans, "snapshot.save"), "s");
  r.add("snapshot.restore_s", total_seconds(spans, "snapshot.restore"), "s");
  r.add("snapshot.bytes", n(c.snapshot_bytes), "B");
  r.add("snapshot.morphs_per_resume",
        c.resumes > 0 ? n(c.morphs_after_resume) / n(c.resumes) : 0.0,
        "count");
  r.add("iss.mips.block", diag.iss_block, "MIPS");
  r.add("iss.mips.jit", diag.iss_jit, "MIPS");
  r.add("board.mips.block", diag.board_block, "MIPS");
  r.add("board.mips.jit", diag.board_jit, "MIPS");
  r.add("self.iss_pct", share("iss"), "%");
  r.add("self.board_pct", share("board"), "%");
  r.add("self.snapshot_pct", share("snapshot"), "%");
  r.add("trace.wall_s", traced.wall_s, "s");
  r.add("trace.untraced_wall_s", untraced.wall_s, "s");
  r.add("trace.overhead_pct",
        100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s, "%");
  std::printf("per-layer metrics:\n");
  r.print_table();
  const bool correct = checks.failed == 0;
  std::printf("%s\n",
              r.json(correct, checks.attempted, checks.failed_jobs()).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nfpbench

int main(int argc, char** argv) {
  using namespace nfpbench;
  const Args a = parse_args(argc, argv);
  try {
    if (a.setup_only) {
      const Setup s = set_up(a);
      std::printf("{\"setup_s\":%.17g}\n", s.seconds);
      return 0;
    }
    return a.trace ? traced_run(a) : timed_run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfpbench: %s\n", e.what());
    return 1;
  }
}
