// One reproduction run of the paper's evaluation (§VI). Calibrates each
// estimator it scores once — eq1 over the paper's, the coarse and the fine
// category schemes, plus events and time-proxy — runs the 120-kernel set
// (36 HEVC bitstreams + 24 FSE kernels, each float and fixed) once on the
// default board, and renders from those records Table I, Table III,
// Table IV, Fig. 4, the cross-scheme comparison per workload group and the
// category-granularity ablation. Rows are picked by job name; the meter
// noise is seeded by the job name, so a record does not depend on which
// other kernels share the campaign. Fig. 1, the simulation speed /
// estimation accuracy ladder, re-runs one of the campaign's kernels under
// each simulation level and dispatch mode and times it.
//
// Every figure the paper states is checked against an acceptance band
// whose basis is a statement of the paper. Hard invariants besides:
//   - the eq1 scheme's per-kernel estimate is bit-identical to the
//     straight-line Eq. 1 reference sum (tests/support/eq1_reference.h);
//   - every kernel runs;
//   - every error statistic is finite, except time-proxy's time error:
//     that scheme prices time by reading the measured time back, so its
//     time error is zero by construction, not a result, and reads n/a;
//   - every Fig. 1 board rung ends with the campaign record's cycles and
//     energy bit pattern, and the ISS rung with its per-op counts.
// A value outside its band or a broken invariant is printed with its
// figure and the run exits 1. Everything lands in BENCH_paper.json in the
// working directory.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "board/area.h"
#include "nfp/dse.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "sim/json.h"
#include "support.h"
#include "support/eq1_reference.h"
#include "workloads/kernels.h"

namespace {

using namespace nfp;
using model::TextTable;

constexpr double kInf = std::numeric_limits<double>::infinity();
// The paper shows the value only as a bar, not as a number.
constexpr double kNoNumber = std::numeric_limits<double>::quiet_NaN();

// One value checked against the open band (lo, hi).
struct Check {
  std::string figure;
  std::string value;
  double ours;
  double paper;  // kNoNumber when the paper prints none
  double lo, hi;
  std::string basis;
  bool in_band() const { return ours > lo && ours < hi; }
};

struct PaperRow {
  double time_ns;
  double energy_nj;
};

// Table I of the paper (FPGA LEON3 measurements), in the order of
// CategoryScheme::paper().
constexpr PaperRow kTable1[] = {
    {45, 15}, {238, 76}, {700, 229}, {376, 166}, {46, 13},
    {41, 13}, {46, 14},  {431, 431}, {612, 88},
};
// Integer Arithmetic, NOP, Other and FPU Arithmetic: the paper's
// single-cycle group (41-46 ns, 13-15 nJ), not ordered among itself.
constexpr bool kSingleCycle[] = {true,  false, false, false, true,
                                 true,  true,  false, false};

// Fig. 4's kernels: the same input per workload pair, as in the paper.
const char* const kFig4[] = {
    "fse/img0/float", "hevc/lowdelay/qp32/seq0/float", "fse/img0/fixed",
    "hevc/lowdelay/qp32/seq0/fixed"};

std::string group_of(const std::string& name) {
  const std::string workload = name.substr(0, name.find('/'));
  const bool fixed = name.find("/fixed") != std::string::npos;
  return workload + "-" + (fixed ? "fixed" : "float");
}

struct GroupStats {
  std::string group;
  std::size_t kernels = 0;
  model::ErrorStats energy;
  model::ErrorStats time;
};

// Eq. 3 stats over the kernels of one group ("all": every kernel).
GroupStats group_stats(const benchkit::EvalResult& eval,
                       const std::string& group) {
  GroupStats g;
  g.group = group;
  std::vector<double> est_e, meas_e, est_t, meas_t;
  for (const auto& k : eval.kernels) {
    if (!k.ok || (group != "all" && group_of(k.name) != group)) continue;
    ++g.kernels;
    est_e.push_back(k.estimated.energy_nj);
    meas_e.push_back(k.measured_energy_nj);
    est_t.push_back(k.estimated.time_s);
    meas_t.push_back(k.measured_time_s);
  }
  g.energy = model::error_stats(est_e, meas_e);
  g.time = model::error_stats(est_t, meas_t);
  return g;
}

void stats_json(sim::JsonWriter& json, const char* key,
                const model::ErrorStats& s) {
  json.key(key).begin_object().field("mean_abs", s.mean_abs);
  json.field("max_abs", s.max_abs).end_object();
}

std::string pct(double fraction) {
  return TextTable::fmt(fraction * 100.0) + "%";
}

// Table I, and the paper's cost ordering as checks: each multi-cycle
// category above the next one in the paper's order, the last one above
// the whole single-cycle group.
void table1(const model::SchemeCalibration& cal, sim::JsonWriter& json,
            std::vector<Check>& checks) {
  const auto& scheme = model::CategoryScheme::paper();
  std::printf("== Table I: instruction categories, specific times and "
              "energies (Eq. 2 on the board; paper's FPGA values "
              "alongside) ==\n");
  TextTable table({"Instruction category", "t_c [ns]", "e_c [nJ]",
                   "paper t_c [ns]", "paper e_c [nJ]"});
  json.key("table1").begin_array();
  for (std::size_t c = 0; c < scheme.size(); ++c) {
    table.add_row({scheme.category_name(c),
                   TextTable::fmt(cal.costs.time_ns[c], 1),
                   TextTable::fmt(cal.costs.energy_nj[c], 1),
                   TextTable::fmt(kTable1[c].time_ns, 0),
                   TextTable::fmt(kTable1[c].energy_nj, 0)});
    json.begin_object().field("category", scheme.category_name(c));
    json.field("time_ns", cal.costs.time_ns[c]);
    json.field("energy_nj", cal.costs.energy_nj[c]);
    json.field("paper_time_ns", kTable1[c].time_ns);
    json.field("paper_energy_nj", kTable1[c].energy_nj).end_object();
  }
  json.end_array();
  std::printf("%s\n", table.to_string().c_str());

  const auto order = [&](const char* sym, double PaperRow::*paper,
                         const std::vector<double>& ours) {
    std::vector<std::size_t> multi;
    double ours_single = 0.0, paper_single = 0.0;
    for (std::size_t c = 0; c < scheme.size(); ++c) {
      if (!kSingleCycle[c]) {
        multi.push_back(c);
        continue;
      }
      ours_single = std::max(ours_single, ours[c]);
      paper_single = std::max(paper_single, kTable1[c].*paper);
    }
    std::sort(multi.begin(), multi.end(), [&](std::size_t a, std::size_t b) {
      return kTable1[a].*paper > kTable1[b].*paper;
    });
    for (std::size_t i = 0; i < multi.size(); ++i) {
      const std::size_t a = multi[i];
      const bool last = i + 1 == multi.size();
      const std::string below =
          last ? "single-cycle max" : scheme.category_name(multi[i + 1]);
      checks.push_back(
          {"Table I",
           std::string(sym) + " " + scheme.category_name(a) + " / " + sym +
               " " + below,
           ours[a] / (last ? ours_single : ours[multi[i + 1]]),
           kTable1[a].*paper /
               (last ? paper_single : kTable1[multi[i + 1]].*paper),
           1.0, kInf,
           "Table I: " + scheme.category_name(a) + " costs more than the " +
               below});
    }
  };
  order("t_c", &PaperRow::time_ns, cal.costs.time_ns);
  order("e_c", &PaperRow::energy_nj, cal.costs.energy_nj);
}

void table3(const benchkit::EvalResult& eq1, std::vector<Check>& checks) {
  std::printf("== Table III: eq1 estimation error over the %zu kernels ==\n",
              eq1.kernels.size());
  TextTable table({"", "Energy", "Time", "paper Energy", "paper Time"});
  table.add_row({"Mean absolute error", pct(eq1.energy.mean_abs),
                 pct(eq1.time.mean_abs), "2.68%", "2.72%"});
  table.add_row({"Maximum absolute error", pct(eq1.energy.max_abs),
                 pct(eq1.time.max_abs), "6.32%", "6.95%"});
  std::printf("%s\n", table.to_string().c_str());

  const char* mean_basis =
      "abstract: mean estimation error about 3 %; up to twice that passes";
  const char* max_basis = "Table III: maximum errors 6.32 % / 6.95 %, below 10 %";
  checks.push_back({"Table III", "energy mean |eps| [%]",
                    eq1.energy.mean_abs_percent(), 2.68, 0.0, 6.0,
                    mean_basis});
  checks.push_back({"Table III", "time mean |eps| [%]",
                    eq1.time.mean_abs_percent(), 2.72, 0.0, 6.0, mean_basis});
  checks.push_back({"Table III", "energy max |eps| [%]",
                    eq1.energy.max_abs_percent(), 6.32, 0.0, 10.0, max_basis});
  checks.push_back({"Table III", "time max |eps| [%]",
                    eq1.time.max_abs_percent(), 6.95, 0.0, 10.0, max_basis});
}

// Table IV from the eq1 estimates: each float kernel against the fixed
// build of the same input, in job order.
void table4(const benchkit::EvalResult& eq1,
            const std::map<std::string, std::size_t>& index,
            const board::BoardConfig& cfg, sim::JsonWriter& json,
            std::vector<Check>& checks) {
  struct Workload {
    const char* name;
    const char* prefix;
    double paper_energy, paper_time;
  };
  const Workload workloads[] = {{"FSE", "fse/", -92.6, -92.8},
                                {"HEVC Decoding", "hevc/", -42.88, -43.49}};
  std::printf("== Table IV: effect of introducing an FPU ==\n");
  TextTable table({"", "Energy consumption", "Processing Time",
                   "# logical elements", "paper E", "paper T"});
  const char* sign_basis = "Table IV: the FPU saves energy and time on both "
                           "workloads";
  for (const auto& w : workloads) {
    std::vector<model::Estimate> with_fpu, soft;
    for (const auto& k : eq1.kernels) {
      if (!k.name.starts_with(w.prefix) || !k.name.ends_with("/float")) {
        continue;
      }
      const std::string fixed =
          k.name.substr(0, k.name.size() - 5) + "fixed";
      with_fpu.push_back(k.estimated);
      soft.push_back(eq1.kernels[index.at(fixed)].estimated);
    }
    const auto impact = model::fpu_impact(w.name, with_fpu, soft);
    table.add_row({w.name, TextTable::percent(impact.energy_change_percent, 1),
                   TextTable::percent(impact.time_change_percent, 1),
                   TextTable::percent(impact.area_change_percent, 0),
                   TextTable::percent(w.paper_energy),
                   TextTable::percent(w.paper_time)});
    checks.push_back({"Table IV", std::string(w.name) + " energy change [%]",
                      impact.energy_change_percent, w.paper_energy, -100.0,
                      0.0, sign_basis});
    checks.push_back({"Table IV", std::string(w.name) + " time change [%]",
                      impact.time_change_percent, w.paper_time, -100.0, 0.0,
                      sign_basis});
  }
  std::printf("%s", table.to_string().c_str());

  const board::AreaModel area;
  board::BoardConfig without_fpu = cfg;
  without_fpu.has_fpu = false;
  const auto les_without = area.synthesize(without_fpu).total();
  const auto les_with = area.synthesize(cfg).total();
  std::printf("synthesis: %u LEs without FPU, %u LEs with FPU\n\n",
              les_without, les_with);
  json.key("table4").begin_object().field("les_without_fpu", les_without);
  json.field("les_with_fpu", les_with).end_object();
  checks.push_back({"Table IV", "logical elements change [%]",
                    area.fpu_area_increase_percent(), 109.0, 108.5, 109.5,
                    "Table IV: +109 % logical elements, printed to the "
                    "integer percent"});
}

void fig4(const benchkit::EvalResult& eq1,
          const std::map<std::string, std::size_t>& index,
          sim::JsonWriter& json, std::vector<Check>& checks) {
  std::printf("== Fig. 4: measured vs estimated energy/time ==\n");
  TextTable table({"Kernel", "E measured [mJ]", "E estimated [mJ]",
                   "T measured [ms]", "T estimated [ms]"});
  const char* basis = "Fig. 4: estimated bars located close to the measured "
                      "bars; Table III keeps every kernel below 10 %";
  json.key("fig4").begin_array();
  for (const char* name : kFig4) {
    const auto& k = eq1.kernels[index.at(name)];
    const double e_meas = k.measured_energy_nj * 1e-6;
    const double e_est = k.estimated.energy_nj * 1e-6;
    const double t_meas = k.measured_time_s * 1e3;
    const double t_est = k.estimated.time_s * 1e3;
    table.add_row({name, TextTable::fmt(e_meas, 3), TextTable::fmt(e_est, 3),
                   TextTable::fmt(t_meas, 3), TextTable::fmt(t_est, 3)});
    json.begin_object().field("kernel", name);
    json.field("energy_measured_mj", e_meas).field("energy_estimated_mj", e_est);
    json.field("time_measured_ms", t_meas).field("time_estimated_ms", t_est);
    json.end_object();
    checks.push_back({"Fig. 4", std::string(name) + " energy error [%]",
                      (e_est - e_meas) / e_meas * 100.0, kNoNumber, -10.0,
                      10.0, basis});
    checks.push_back({"Fig. 4", std::string(name) + " time error [%]",
                      (t_est - t_meas) / t_meas * 100.0, kNoNumber, -10.0,
                      10.0, basis});
  }
  json.end_array();
  std::printf("%s\n", table.to_string().c_str());
}

struct Scored {
  const model::Estimator* est;
  model::SchemeCalibration cal;
  benchkit::EvalResult eval;
};

// The three-scheme comparison per workload group. Returns the number of
// invariant violations (missing or non-finite stats).
int schemes(const std::vector<Scored>& scored, sim::JsonWriter& json) {
  std::vector<std::string> groups;
  for (const auto& k : scored.front().eval.kernels) {
    const std::string g = group_of(k.name);
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
      groups.push_back(g);
    }
  }
  groups.push_back("all");

  int violations = 0;
  json.key("schemes").begin_array();
  for (const Scored& s : scored) {
    const bool reads_time = s.est == &model::time_proxy_estimator();
    std::printf("== scheme %s (%zu terms, %zu calibration samples) ==\n",
                std::string(s.est->name()).c_str(), s.est->terms(),
                s.cal.samples);
    TextTable table(
        {"Group", "n", "eps_E mean", "eps_E max", "eps_T mean", "eps_T max"});
    json.begin_object().field("scheme", s.est->name());
    json.field("terms", s.est->terms()).field("samples", s.cal.samples);
    json.key("groups").begin_array();
    for (const auto& name : groups) {
      const GroupStats g = group_stats(s.eval, name);
      const bool finite = g.energy.ok && std::isfinite(g.energy.mean_abs) &&
                          (reads_time || (g.time.ok &&
                                          std::isfinite(g.time.mean_abs)));
      if (!finite) {
        std::printf("  NON-FINITE OR MISSING STATS for group %s\n",
                    g.group.c_str());
        ++violations;
      }
      table.add_row({g.group, std::to_string(g.kernels),
                     pct(g.energy.mean_abs), pct(g.energy.max_abs),
                     reads_time ? "n/a" : pct(g.time.mean_abs),
                     reads_time ? "n/a" : pct(g.time.max_abs)});
      json.begin_object().field("group", g.group).field("kernels", g.kernels);
      stats_json(json, "energy", g.energy);
      if (reads_time) {
        json.key("time").null();
      } else {
        stats_json(json, "time", g.time);
      }
      json.end_object();
    }
    json.end_array().end_object();
    std::printf("%s\n", table.to_string().c_str());
  }
  json.end_array();
  return violations;
}

void ablation(const std::vector<std::pair<const model::CategoryScheme*,
                                          benchkit::EvalResult>>& rows,
              sim::JsonWriter& json) {
  std::printf("== Ablation: category scheme granularity, all kernels ==\n");
  TextTable table({"Scheme", "categories", "mean |eps_E|", "max |eps_E|",
                   "mean |eps_T|", "max |eps_T|"});
  json.key("ablation").begin_array();
  for (const auto& [scheme, eval] : rows) {
    table.add_row({scheme->name(), std::to_string(scheme->size()),
                   pct(eval.energy.mean_abs), pct(eval.energy.max_abs),
                   pct(eval.time.mean_abs), pct(eval.time.max_abs)});
    json.begin_object().field("scheme", scheme->name());
    json.field("categories", scheme->size());
    stats_json(json, "energy", eval.energy);
    stats_json(json, "time", eval.time);
    json.end_object();
  }
  json.end_array();
  std::printf("%s\n", table.to_string().c_str());
}

// Fig. 1's kernel and the number of timed runs per rung. Speed is reported,
// not banded: the host's clock drifts up to 2x between runs.
constexpr const char* kFig1Kernel = "hevc/lowdelay/qp32/seq0/float";
constexpr int kFig1Runs = 3;

// NaN marks what a rung does not have: a wall time and speed when it runs
// no instruction, errors when it makes no estimate. JSON writes it as null.
struct Rung {
  std::string name;
  double wall_s, mips;
  double energy_err_pct, time_err_pct;
};

// Median wall time of kFig1Runs runs of `job`, each on a fresh simulator
// from `make` that is loaded and given the job's inputs before the clock
// starts: the span is run() alone. `check` sees every finished simulator.
template <class Make, class Check>
double median_run_s(const model::KernelJob& job, sim::Dispatch dispatch,
                    Make make, Check check) {
  std::vector<double> walls;
  for (int i = 0; i < kFig1Runs; ++i) {
    const auto s = make();
    s->load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      s->bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto t0 = std::chrono::steady_clock::now();
    const sim::RunResult res = s->run(sim::Iss::kDefaultMaxInsns, dispatch);
    walls.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    check(*s, res);
  }
  std::sort(walls.begin(), walls.end());
  return walls[kFig1Runs / 2];
}

// Fig. 1 on one campaign kernel: an algorithm-level rule of thumb,
// functional simulation, the ISS plus Eq. 1 (the paper's method) and the
// board's ground truth under each dispatch mode. Errors are against the
// record's ground truth. The paper's cycle-accurate endpoint is not
// reproduced. Returns the number of invariant violations.
int fig1(const model::KernelJob& job, const model::KernelRunRecord& rec,
         const board::BoardConfig& cfg, const Scored& eq1,
         sim::JsonWriter& json) {
  const double e_true = rec.true_energy_nj;
  const double t_true = rec.true_time_s;
  const double insns = static_cast<double>(rec.instret);
  int violations = 0;
  const auto diverged = [&](const std::string& rung, const char* what) {
    std::printf("FIG1 DIVERGENCE %s: %s off the campaign record\n",
                rung.c_str(), what);
    ++violations;
  };
  std::vector<Rung> rungs;

  // Rules of thumb, no simulation: 48x48 pixels x 5 frames at 300
  // instructions per pixel, 150 ns and 60 nJ per instruction.
  const double insns_guess = 48.0 * 48.0 * 5.0 * 300.0;
  rungs.push_back({"algorithm-level estimate", kNoNumber, kNoNumber,
                   (insns_guess * 60.0 - e_true) / e_true * 100.0,
                   (insns_guess * 150.0e-9 - t_true) / t_true * 100.0});

  const auto timed = [&](Rung r, double wall_s) {
    r.wall_s = wall_s;
    r.mips = insns / wall_s / 1e6;
    rungs.push_back(r);
  };
  const auto same_run = [&](const std::string& rung,
                            const sim::RunResult& res) {
    if (!res.halted || res.instret != rec.instret) diverged(rung, "instret");
  };
  struct Mode {
    const char* label;
    sim::Dispatch dispatch;
  };
  for (const Mode m : {Mode{"functional (block)", sim::Dispatch::kBlock},
                       Mode{"functional (jit)", sim::Dispatch::kJit}}) {
    timed({m.label, 0.0, 0.0, kNoNumber, kNoNumber},
          median_run_s(
              job, m.dispatch,
              [] { return std::make_unique<sim::FunctionalSim>(); },
              [&](sim::FunctionalSim&, const sim::RunResult& res) {
                same_run(m.label, res);
              }));
  }
  {
    const char* label = "ISS + eq1 (jit)";
    model::Estimate est;
    const double wall = median_run_s(
        job, sim::Dispatch::kJit, [] { return std::make_unique<sim::Iss>(); },
        [&](sim::Iss& iss, const sim::RunResult& res) {
          same_run(label, res);
          if (iss.counters().counts != rec.counts) {
            diverged(label, "per-op counts");
          }
          est = eq1.est->estimate({.counts = iss.counters().counts},
                                  eq1.cal.costs);
        });
    timed({label, 0.0, 0.0, (est.energy_nj - e_true) / e_true * 100.0,
           (est.time_s - t_true) / t_true * 100.0},
          wall);
  }
  for (const Mode m : {Mode{"board (step)", sim::Dispatch::kStep},
                       Mode{"board (block)", sim::Dispatch::kBlock},
                       Mode{"board (jit)", sim::Dispatch::kJit}}) {
    // Zero error: each run is held to the record's ground truth below.
    timed({m.label, 0.0, 0.0, 0.0, 0.0},
          median_run_s(
              job, m.dispatch,
              [&] { return std::make_unique<board::Board>(cfg); },
              [&](board::Board& brd, const sim::RunResult& res) {
                same_run(m.label, res);
                if (brd.cycles() != rec.cycles) diverged(m.label, "cycles");
                if (std::bit_cast<std::uint64_t>(brd.true_energy_nj()) !=
                    std::bit_cast<std::uint64_t>(rec.true_energy_nj)) {
                  diverged(m.label, "energy bit pattern");
                }
              }));
  }

  std::printf("== Fig. 1: simulation speed vs estimation accuracy (%s, "
              "median of %d runs) ==\n",
              job.name.c_str(), kFig1Runs);
  TextTable table({"Simulation level", "wall [ms]", "speed [MIPS]",
                   "energy err", "time err"});
  json.key("fig1").begin_object().field("kernel", job.name);
  json.field("instret", rec.instret).field("runs", kFig1Runs);
  json.field("jit_available", sim::jit_available());
  json.key("rungs").begin_array();
  const auto cell = [](double v, std::string s, const char* none) {
    return std::isnan(v) ? std::string(none) : s;
  };
  for (const Rung& r : rungs) {
    table.add_row(
        {r.name, cell(r.wall_s, TextTable::fmt(r.wall_s * 1e3, 2), "-"),
         cell(r.mips, TextTable::fmt(r.mips, 1), "-"),
         cell(r.energy_err_pct, TextTable::percent(r.energy_err_pct), "n/a"),
         cell(r.time_err_pct, TextTable::percent(r.time_err_pct), "n/a")});
    json.begin_object().field("rung", r.name).field("wall_s", r.wall_s);
    json.field("mips", r.mips).field("energy_err_pct", r.energy_err_pct);
    json.field("time_err_pct", r.time_err_pct).end_object();
  }
  json.end_array().end_object();
  std::printf("%s", table.to_string().c_str());
  std::printf("(the paper's cycle-accurate simulator endpoint is not "
              "reproduced; the board under kStep is the slowest exact-cost "
              "rung)\n\n");
  return violations;
}

std::string band(const Check& c) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "(%g, %g)", c.lo, c.hi);
  return buf;
}

// Prints and saves the checks; returns how many left their band.
int report_checks(const std::vector<Check>& checks, sim::JsonWriter& json) {
  std::printf("== Paper bands ==\n");
  TextTable table({"Figure", "Value", "ours", "paper", "band", ""});
  int out = 0;
  json.key("checks").begin_array();
  for (const Check& c : checks) {
    table.add_row({c.figure, c.value, TextTable::fmt(c.ours),
                   std::isnan(c.paper) ? "-" : TextTable::fmt(c.paper),
                   band(c), c.in_band() ? "ok" : "OUT OF BAND"});
    json.begin_object().field("figure", c.figure).field("value", c.value);
    json.field("ours", c.ours).field("paper", c.paper);
    json.key("band").begin_array().value(c.lo).value(c.hi).end_array();
    json.field("basis", c.basis).field("in_band", c.in_band()).end_object();
    if (!c.in_band()) ++out;
  }
  json.end_array();
  std::printf("%s\n", table.to_string().c_str());
  for (const Check& c : checks) {
    if (!c.in_band()) {
      std::printf("OUT OF BAND %s: %s = %.17g, band %s (%s)\n",
                  c.figure.c_str(), c.value.c_str(), c.ours, band(c).c_str(),
                  c.basis.c_str());
    }
  }
  return out;
}

}  // namespace

int main() {
  std::vector<model::KernelJob> jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi)) jobs.push_back(std::move(j));
    for (auto& j : workloads::make_fse_jobs(abi)) jobs.push_back(std::move(j));
  }

  const board::BoardConfig cfg;
  const model::Calibrator calibrator;
  std::vector<Scored> scored;
  for (const model::Estimator* est : model::all_estimators()) {
    scored.push_back({est, calibrator.fit(*est, cfg), {}});
  }
  const model::Eq1Estimator coarse(model::CategoryScheme::coarse());
  const model::Eq1Estimator fine(model::CategoryScheme::fine());
  const auto cal_coarse = calibrator.fit(coarse, cfg);
  const auto cal_fine = calibrator.fit(fine, cfg);

  std::printf("running %zu kernels on the board...\n\n", jobs.size());
  const auto records = model::Campaign(cfg).run(jobs);

  int violations = 0;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < records.size(); ++i) {
    index[records[i].name] = i;
    if (!records[i].ok) {
      std::printf("KERNEL FAILED %s: %s\n", records[i].name.c_str(),
                  records[i].error.c_str());
      ++violations;
    }
  }
  for (Scored& s : scored) {
    s.eval = benchkit::evaluate_records(records, *s.est, s.cal.costs);
  }
  const Scored& eq1 = scored.front();

  // eq1 through the scheme interface must equal the reference sum bit for
  // bit, kernel by kernel.
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].ok) continue;
    const auto want = test::eq1_reference(
        model::CategoryScheme::paper().aggregate(records[i].counts),
        eq1.cal.costs);
    const auto& got = eq1.eval.kernels[i].estimated;
    if (want.energy_nj != got.energy_nj || want.time_s != got.time_s) {
      std::printf("EQ1 DIVERGENCE %s: scheme (%.17g nJ, %.17g s) vs "
                  "reference (%.17g nJ, %.17g s)\n",
                  records[i].name.c_str(), got.energy_nj, got.time_s,
                  want.energy_nj, want.time_s);
      ++violations;
    }
  }

  sim::JsonWriter json;
  json.begin_object().field("kernels", jobs.size());
  std::vector<Check> checks;
  table1(eq1.cal, json, checks);
  table3(eq1.eval, checks);
  table4(eq1.eval, index, cfg, json, checks);
  fig4(eq1.eval, index, json, checks);
  violations += schemes(scored, json);
  ablation({{&model::CategoryScheme::coarse(),
             benchkit::evaluate_records(records, coarse, cal_coarse.costs)},
            {&model::CategoryScheme::paper(), eq1.eval},
            {&model::CategoryScheme::fine(),
             benchkit::evaluate_records(records, fine, cal_fine.costs)}},
           json);
  const int out = report_checks(checks, json);
  const std::size_t fig1_at = index.at(kFig1Kernel);
  violations += fig1(jobs[fig1_at], records[fig1_at], cfg, eq1, json);
  json.end_object();

  if (std::FILE* f = std::fopen("BENCH_paper.json", "w")) {
    std::fprintf(f, "%s\n", json.str().c_str());
    std::fclose(f);
    std::printf("wrote BENCH_paper.json\n");
  } else {
    std::printf("cannot write BENCH_paper.json\n");
    ++violations;
  }

  if (violations > 0 || out > 0) {
    std::printf("FAIL: %d invariant violation(s), %d value(s) out of band\n",
                violations, out);
    return 1;
  }
  std::printf("PASS: every value in its band; eq1 bit-identical to the "
              "reference sum; all %zu kernels ran; every Fig. 1 rung on the "
              "campaign record\n",
              records.size());
  return 0;
}
