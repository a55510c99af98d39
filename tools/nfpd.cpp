// nfpd — sharded estimation campaign service front end.
//
// Feeds estimation jobs (kernel + inputs + budget) through the library-level
// CampaignService (nfp/service.h): jobs shard across persistent worker
// threads with work stealing, long jobs are preempted and checkpointed at
// slice boundaries through the versioned snapshot format (sim/state_io.h),
// and one JSON-lines record per finished job streams to stdout as it
// completes. A summary (jobs, slices, checkpoints, steals) goes to stderr.
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
//                       calibrate once and add estimates to every record
//                       (default on)
//     --scheme NAME     estimation scheme behind the estimates: eq1 (paper
//                       Eq. 1, default; bit-identical to the classic
//                       pipeline), events (PMU event-counter model), or
//                       time-proxy (energy from measured time); the record
//                       carries the scheme name and the board's event
//                       counters
//     --static-first    execution-free fast path: run the IPET static
//                       estimator (analyze/ipet) over each job before its
//                       first slice and stream the guaranteed interval
//                       immediately as {"id":..,"name":..,"static":{..}};
//                       the dynamic run then refines it and the final
//                       record carries the same "static" object
//     --static-only     like --static-first, but an accepted interval is
//                       served as the final answer (no board run);
//                       refused programs still run dynamically
//   Positional arguments are SPARC V8 assembly kernels, assembled at the
//   platform text base and appended after any --campaign set.
//   All value flags accept both "--flag N" and "--flag=N".
//   Exit status: 0 if every job succeeded, 1 otherwise, 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analyze/cfg.h"
#include "analyze/ipet.h"
#include "asmkit/assembler.h"
#include "board/cost_model.h"
#include "cli_common.h"
#include "mcc/compiler.h"
#include "nfp/service.h"
#include "sim/memmap.h"
#include "workloads/kernels.h"

namespace {

void usage() {
  std::printf(
      "usage: nfpd [--campaign] [--workers N] [--slice N] [--max-insns N]\n"
      "            [--dispatch step|block|jit] [--seed N]\n"
      "            [--estimate|--no-estimate]\n"
      "            [--scheme eq1|events|time-proxy]\n"
      "            [--static-first|--static-only] [kernel.s ...]\n");
}

// The analyzer injection: nfp_model never links nfp_analyze, so nfpd folds
// the IPET result down to the service's transport struct here.
nfp::model::StaticBounds run_static_estimator(
    const nfp::asmkit::Program& program) {
  const nfp::analyze::Cfg cfg = nfp::analyze::build_cfg(program);
  const nfp::analyze::IpetResult ipet =
      nfp::analyze::analyze_ipet(cfg, nfp::board::CostModel{});
  nfp::model::StaticBounds b;
  b.accepted = ipet.accepted;
  if (!ipet.accepted) {
    b.reason = nfp::analyze::to_string(ipet.refusal);
    return b;
  }
  b.insns_lower = static_cast<std::uint64_t>(ipet.insns.lower);
  b.insns_upper = static_cast<std::uint64_t>(ipet.insns.upper);
  b.cycles_lower = static_cast<std::uint64_t>(ipet.cycles.lower);
  b.cycles_upper = static_cast<std::uint64_t>(ipet.cycles.upper);
  b.time_lower_s = ipet.time_s.lower;
  b.time_upper_s = ipet.time_s.upper;
  b.energy_lower_nj = ipet.energy_nj.lower;
  b.energy_upper_nj = ipet.energy_nj.upper;
  return b;
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
    } else if (arg == "--static-first") {
      cfg.static_estimator = run_static_estimator;
    } else if (arg == "--static-only") {
      cfg.static_estimator = run_static_estimator;
      cfg.static_only = true;
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

  const bool want_static = static_cast<bool>(cfg.static_estimator);
  nfp::model::CampaignService service(cfg);
  service.set_sink([](const nfp::model::ServiceResult& r) {
    std::puts(nfp::model::result_json_line(r).c_str());
    std::fflush(stdout);
  });
  if (want_static) {
    service.set_static_sink([](std::uint64_t id, const std::string& name,
                               const nfp::model::StaticBounds& b) {
      std::puts(nfp::model::static_json_line(id, name, b).c_str());
      std::fflush(stdout);
    });
  }

  std::size_t failed = 0, static_served = 0;
  const auto results = service.run_jobs(std::move(jobs));
  for (const auto& r : results) {
    if (!r.record.ok) ++failed;
    if (r.static_served) ++static_served;
  }
  const auto stats = service.stats();
  std::fprintf(stderr,
               "nfpd: %llu job(s) on %u worker(s) under %s dispatch: "
               "%llu slice(s), %llu checkpoint(s) (%llu bytes), "
               "%llu resume(s), %llu steal(s), %zu failure(s)\n",
               static_cast<unsigned long long>(stats.jobs_completed),
               service.workers(),
               nfp::cli::dispatch_name(service.board_dispatch()),
               static_cast<unsigned long long>(stats.slices),
               static_cast<unsigned long long>(stats.checkpoints),
               static_cast<unsigned long long>(stats.checkpoint_bytes),
               static_cast<unsigned long long>(stats.resumes),
               static_cast<unsigned long long>(stats.steals), failed);
  if (static_served > 0) {
    std::fprintf(stderr,
                 "nfpd: %zu job(s) served from the static fast path "
                 "(no execution)\n",
                 static_served);
  }
  return failed == 0 ? 0 : 1;
}
