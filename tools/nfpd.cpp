// nfpd — sharded estimation campaign service front end.
//
// Feeds estimation jobs (kernel + inputs + budget) through the library-level
// CampaignService (nfp/service.h): jobs shard across persistent worker
// threads with work stealing, long jobs are preempted and checkpointed at
// slice boundaries through the versioned snapshot format (sim/state_io.h),
// and one JSON-lines record per finished job streams to stdout as it
// completes. The run's summary goes to stderr as one JSON object: the
// service counters (jobs, slices, checkpoints, resumes, steals) under
// "service", then "workers", "dispatch" and "failures".
//
// Usage:
//   nfpd [options] [kernel.s ...]
//     --campaign        run the paper's 120-kernel set (Sec. VI): the 36
//                       MVC/HEVC and 24 FSE kernels, each in the float and
//                       fixed (soft-float) ABI
//     --workers N       worker thread count; default min(cores, 8)
//     --slice N         preemption grain in retired instructions; every job
//                       is checkpointed and re-queued each N instructions
//                       (0 = run each job's one board run to completion;
//                       default 0)
//     --max-insns N     per-job retirement budget (default 20e9)
//     --dispatch MODE   board dispatch: step|block|jit
//                       (default: jit where available, else block;
//                       accounting is bit-identical across modes)
//     --seed N          board noise seed (BoardConfig::seed)
//     --estimate / --no-estimate
//                       calibrate once, before any job runs, and add
//                       estimates to every record (default on); the
//                       calibration kernels run on the campaign's default
//                       worker count, not --workers
//     --scheme NAME     estimation scheme behind the estimates: eq1 (paper
//                       Eq. 1, default; bit-identical to the classic
//                       pipeline), events (PMU event-counter model), or
//                       time-proxy (energy from measured time); the record
//                       carries the scheme name and the board's event
//                       counters
//   Positional arguments are SPARC V8 assembly kernels, assembled at the
//   platform text base and appended after any --campaign set.
//   All value flags accept both "--flag N" and "--flag=N".
//   Exit status: 0 if every job succeeded, 1 otherwise, 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "cli_common.h"
#include "mcc/compiler.h"
#include "nfp/service.h"
#include "sim/json.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace {

void usage() {
  std::printf(
      "usage: nfpd [--campaign] [--workers N] [--slice N] [--max-insns N]\n"
      "            [--dispatch step|block|jit] [--seed N]\n"
      "            [--estimate|--no-estimate]\n"
      "            [--scheme eq1|events|time-proxy] [kernel.s ...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  nfp::model::ServiceConfig cfg;
  bool campaign = false;
  std::uint64_t slice = 0;
  std::uint64_t max_insns = nfp::board::Board::kDefaultMaxInsns;
  std::vector<std::string> kernel_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--campaign") {
      campaign = true;
    } else if (const char* v =
                   nfp::cli::flag_value("--workers", argc, argv, i, "nfpd")) {
      cfg.workers = static_cast<unsigned>(
          nfp::cli::flag_uint(v, UINT32_MAX, "--workers", "nfpd"));
    } else if (const char* v =
                   nfp::cli::flag_value("--slice", argc, argv, i, "nfpd")) {
      slice = nfp::cli::flag_uint(v, UINT64_MAX, "--slice", "nfpd");
    } else if (const char* v = nfp::cli::flag_value("--max-insns", argc, argv,
                                                    i, "nfpd")) {
      max_insns = nfp::cli::flag_uint(v, UINT64_MAX, "--max-insns", "nfpd");
    } else if (const char* v =
                   nfp::cli::flag_value("--dispatch", argc, argv, i, "nfpd")) {
      cfg.dispatch = nfp::cli::effective_dispatch(
          nfp::cli::parse_dispatch(v, "nfpd"), "nfpd");
    } else if (const char* v =
                   nfp::cli::flag_value("--seed", argc, argv, i, "nfpd")) {
      cfg.board.seed = static_cast<std::uint32_t>(
          nfp::cli::flag_uint(v, UINT32_MAX, "--seed", "nfpd"));
    } else if (const char* v =
                   nfp::cli::flag_value("--scheme", argc, argv, i, "nfpd")) {
      if (nfp::model::find_estimator(v) == nullptr) {
        std::fprintf(stderr, "nfpd: unknown --scheme '%s' (known: %s)\n", v,
                     nfp::model::estimator_names().c_str());
        return 2;
      }
      cfg.scheme = v;
    } else if (nfp::cli::bool_flag(arg, "--estimate", cfg.calibrate)) {
      // handled by bool_flag
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "nfpd: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      kernel_paths.push_back(arg);
    }
  }
  if (!campaign && kernel_paths.empty()) {
    std::fprintf(stderr, "nfpd: no jobs (use --campaign or pass .s files)\n");
    usage();
    return 2;
  }

  std::vector<nfp::model::KernelJob> jobs;
  try {
    if (campaign) {
      // The paper's full test set: every MVC and FSE kernel in both ABIs.
      for (const auto abi :
           {nfp::mcc::FloatAbi::kHard, nfp::mcc::FloatAbi::kSoft}) {
        for (auto& j : nfp::workloads::make_mvc_jobs(abi)) {
          jobs.push_back(std::move(j));
        }
        for (auto& j : nfp::workloads::make_fse_jobs(abi)) {
          jobs.push_back(std::move(j));
        }
      }
    }
    for (const std::string& path : kernel_paths) {
      nfp::model::KernelJob job;
      job.name = path;
      job.program = nfp::asmkit::assemble(nfp::cli::read_file(path, "nfpd"),
                                          nfp::sim::kTextBase);
      jobs.push_back(std::move(job));
    }
    for (auto& job : jobs) {
      job.max_insns = max_insns;
      job.slice_insns = slice;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfpd: %s\n", e.what());
    return 2;
  }

  // With --estimate the constructor calibrates; a failure there is one
  // error for the whole run, with the exit status of a failed job.
  std::optional<nfp::model::CampaignService> service;
  try {
    service.emplace(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfpd: %s\n", e.what());
    return 1;
  }
  service->set_sink([](const nfp::model::ServiceResult& r) {
    std::puts(nfp::model::result_json_line(r).c_str());
    std::fflush(stdout);
  });

  std::size_t failed = 0;
  const auto results = service->run_jobs(std::move(jobs));
  for (const auto& r : results) {
    if (!r.record.ok) ++failed;
  }
  nfp::sim::JsonWriter summary;
  summary.begin_object().key("service");
  to_json(summary, service->stats());
  summary.field("workers", service->workers())
      .field("dispatch", nfp::cli::dispatch_name(service->board_dispatch()))
      .field("failures", failed)
      .end_object();
  std::fprintf(stderr, "%s\n", summary.str().c_str());
  return failed == 0 ? 0 : 1;
}
