// Benchmark inputs: the kernel jobs of each workload, generated from the
// benchmark's seed through the repository's public generators, plus the
// golden-output checks and the simulated-statistics digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "asmkit/program.h"
#include "codecs/mvc.h"
#include "nfp/campaign.h"
#include "nfp/estimator.h"
#include "sim/bus.h"
#include "workloads/kernels.h"

namespace nfpbench {

enum class Kind { kHevc, kFse };

struct Job {
  std::string name;   // nfpd --campaign naming; Board::measure keys noise on it
  std::string group;  // "hevc-float", "hevc-fixed", "fse-float", "fse-fixed"
  Kind kind = Kind::kHevc;
  const nfp::asmkit::Program* program = nullptr;  // workloads:: program cache
  std::vector<std::uint8_t> input;                // written at sim::kInputBase
  nfp::codec::EncodedStream stream;               // kHevc: the encoded input
  nfp::workloads::FseKernelData fse;              // kFse: signal and mask
};

// The four kernel groups of the paper's Sec. VI set, in report order.
const std::vector<std::string>& groups();

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  // Preemption grain handed to every service job (0 = run to completion).
  std::uint64_t slice_insns = 0;
  // Whether the jobs also run on the measurement board.
  bool board = true;
  // When the two build stages ran (input generation, mcc compile).
  struct Stage {
    std::chrono::steady_clock::time_point start, end;
    double seconds() const {
      return std::chrono::duration<double>(end - start).count();
    }
  };
  Stage inputs, compile;
};

bool known_workload(const std::string& name);

// Builds a workload's jobs. Seed 0 reproduces the `nfpd --campaign` inputs;
// any other seed moves every generator seed and keeps the job names.
Workload make_workload(const std::string& name, std::uint64_t seed);

// Seed 0 only: the campaign jobs equal workloads::make_mvc_jobs /
// make_fse_jobs in both ABIs, names and input bytes alike.
bool matches_library_campaign(const Workload& w);

// What the target wrote at sim::kOutputBase.
struct Output {
  std::vector<std::uint8_t> bytes;  // kHevc: decoded frames
  std::vector<double> values;       // kHevc: {rms_activity}; kFse: samples
};
Output read_output(nfp::sim::Bus& bus, const Job& job);
// The host golden model's output for the job (codec::golden_decode or
// workloads::fse_golden).
Output golden_output(const Job& job);

// One finished job, whichever runner produced it.
struct JobResult {
  nfp::model::KernelRunRecord rec;
  nfp::model::Estimate estimate;
  bool board = false;      // rec carries a board run
  double latency_s = 0.0;  // submit to result
};

// FNV-1a over every simulated statistic of every job, in job order: name,
// exit code, instret, per-op counts, the eq1 estimate and, for board runs,
// cycles, true and measured energy/time bits and the PMU event counters.
std::uint64_t digest(const std::vector<JobResult>& results);

}  // namespace nfpbench
