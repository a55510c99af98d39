// nfpc — command-line front end: compile Micro-C sources, run them on the
// simulated platform, and estimate their non-functional properties.
//
// Usage:
//   nfpc [options] file.c [more.c ...]
//     --soft-float      compile with the soft-float ABI (-msoft-float)
//     --asm             print the generated SPARC assembly and exit
//     --trace[=N]       print the first N executed instructions (default 64)
//     --estimate        calibrate the NFP model and print Ê / T̂ (Eq. 1)
//     --board           also run on the measurement board and compare
//     --scheme=NAME     estimation scheme (nfp/estimator.h registry): eq1
//                       (paper Eq. 1, default), events (PMU event-counter
//                       model), or time-proxy (energy from measured time).
//                       events and time-proxy read board-side counters, so
//                       they require --board
//     --counts          print per-category instruction counts
//     --dispatch=MODE   simulator dispatch, step|block|jit: block
//                       (superblock morph cache with chaining, default),
//                       jit (x86-64 template JIT above the morph cache;
//                       falls back to block on unsupported hosts), or step
//                       (per-instruction switch); applies to the ISS run
//                       and to the --board run (board accounting is
//                       bit-identical across modes; under jit the board
//                       runs native code with its cost-ledger tallies
//                       inline)
//     --sim-stats       print one JSON line after the run: "iss" holds
//                       "block_cache" (BlockCache::Stats: morphs and
//                       flushes) and "jit" (JitRuntime counters,
//                       null without a jit runtime); with --board the line
//                       follows the board run and adds "board", the same
//                       two plus "events" (board/events.h)
//     --seed N          board/calibration noise seed for --estimate and
//                       --board campaigns (also --seed=N)
//     --max-insns N     ISS retirement budget (default 20e9); with
//                       --save-state this is the checkpoint boundary
//     --save-state FILE write a versioned snapshot (sim/state_io.h) of the
//                       ISS after the run — halted or at the budget stop —
//                       so a later --load-state resumes bit-identically
//     --load-state FILE resume from a snapshot instead of compiling
//                       (no .c inputs); continues under --dispatch up to
//                       --max-insns and may itself --save-state again
//   Any other argument starting with '-' is a usage error (exit 2).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "board/board.h"
#include "cli_common.h"
#include "mcc/compiler.h"
#include "nfp/calibration.h"
#include "nfp/estimator.h"
#include "nfp/report.h"
#include "sim/iss.h"
#include "sim/jit.h"
#include "sim/json.h"
#include "sim/trace.h"

namespace {

std::string read_file(const std::string& path) {
  return nfp::cli::read_file(path, "nfpc");
}

using nfp::cli::dispatch_name;

void usage() {
  std::printf("usage: nfpc [--soft-float] [--asm] [--trace[=N]] "
              "[--estimate] [--board] [--counts] [--sim-stats] "
              "[--scheme=eq1|events|time-proxy] "
              "[--seed N] [--max-insns N] [--save-state FILE] "
              "[--load-state FILE] "
              "[--dispatch=step|block|jit] file.c ...\n");
}

// The "block_cache" and "jit" members of one platform's --sim-stats
// object (load and restore_state attach the cache in every dispatch mode);
// "jit" is null unless the run built a jit runtime.
void platform_stats(nfp::sim::JsonWriter& w, nfp::sim::Platform& platform) {
  nfp::sim::BlockCache& cache = *platform.block_cache();
  to_json(w.key("block_cache"), cache.stats());
  if (cache.jit() != nullptr) {
    to_json(w.key("jit"), *cache.jit());
  } else {
    w.key("jit").null();
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool soft = false, want_asm = false, want_estimate = false;
  bool want_board = false, want_counts = false, want_sim_stats = false;
  nfp::sim::Dispatch dispatch = nfp::sim::Dispatch::kBlock;
  std::size_t trace_limit = 0;
  bool have_seed = false;
  std::uint32_t seed = 0;
  std::uint64_t max_insns = nfp::sim::Iss::kDefaultMaxInsns;
  std::string scheme_name = "eq1";
  std::string save_state_path;
  std::string load_state_path;
  std::vector<std::string> sources;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--soft-float") {
      soft = true;
    } else if (arg == "--asm") {
      want_asm = true;
    } else if (arg == "--estimate") {
      want_estimate = true;
    } else if (arg == "--board") {
      want_board = true;
    } else if (arg == "--counts") {
      want_counts = true;
    } else if (const char* v =
                   nfp::cli::flag_value("--dispatch", argc, argv, i, "nfpc")) {
      dispatch = nfp::cli::effective_dispatch(
          nfp::cli::parse_dispatch(v, "nfpc"), "nfpc");
    } else if (const char* v =
                   nfp::cli::flag_value("--scheme", argc, argv, i, "nfpc")) {
      scheme_name = v;
    } else if (arg == "--sim-stats") {
      want_sim_stats = true;
    } else if (const char* v =
                   nfp::cli::flag_value("--seed", argc, argv, i, "nfpc")) {
      seed = static_cast<std::uint32_t>(
          nfp::cli::flag_uint(v, UINT32_MAX, "--seed", "nfpc"));
      have_seed = true;
    } else if (const char* v = nfp::cli::flag_value("--max-insns", argc, argv,
                                                    i, "nfpc")) {
      max_insns = nfp::cli::flag_uint(v, UINT64_MAX, "--max-insns", "nfpc");
    } else if (const char* v = nfp::cli::flag_value("--save-state", argc,
                                                    argv, i, "nfpc")) {
      save_state_path = v;
    } else if (const char* v = nfp::cli::flag_value("--load-state", argc,
                                                    argv, i, "nfpc")) {
      load_state_path = v;
    } else if (arg == "--trace") {
      trace_limit = 64;
    } else if (arg.rfind("--trace=", 0) == 0 && arg.size() > 8) {
      trace_limit =
          nfp::cli::flag_uint(arg.c_str() + 8, UINT64_MAX, "--trace", "nfpc");
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "nfpc: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      sources.push_back(read_file(arg));
    }
  }
  const nfp::model::Estimator* est_scheme =
      nfp::model::find_estimator(scheme_name);
  if (est_scheme == nullptr) {
    std::fprintf(stderr, "nfpc: unknown --scheme '%s' (known: %s)\n",
                 scheme_name.c_str(),
                 nfp::model::estimator_names().c_str());
    return 2;
  }
  if (est_scheme->needs_board_run() && !want_board) {
    std::fprintf(stderr,
                 "nfpc: --scheme=%s reads board-side counters; it requires "
                 "--board\n",
                 scheme_name.c_str());
    return 2;
  }
  if (!load_state_path.empty()) {
    if (!sources.empty() || want_asm || want_board || trace_limit > 0) {
      std::fprintf(stderr,
                   "nfpc: --load-state resumes a snapshot; it takes no .c "
                   "inputs and excludes --asm/--trace/--board\n");
      return 2;
    }
  } else if (sources.empty()) {
    std::fprintf(stderr, "nfpc: no input files (try --help)\n");
    return 2;
  }

  nfp::mcc::CompileOptions opts;
  opts.float_abi =
      soft ? nfp::mcc::FloatAbi::kSoft : nfp::mcc::FloatAbi::kHard;
  const nfp::mcc::Compiler compiler(opts);

  try {
    std::optional<nfp::asmkit::Program> program;
    nfp::sim::Iss iss;
    if (!load_state_path.empty()) {
      std::ifstream in(load_state_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "nfpc: cannot open %s\n",
                     load_state_path.c_str());
        return 2;
      }
      iss.restore_state(in);
      std::printf("nfpc: resumed %s at %llu instructions\n",
                  load_state_path.c_str(),
                  static_cast<unsigned long long>(iss.cpu().instret));
    } else {
      if (want_asm) {
        std::fputs(compiler.compile_to_asm(sources).c_str(), stdout);
        return 0;
      }
      program = compiler.compile(sources);
      std::printf("nfpc: %u bytes at 0x%08x (%s ABI)\n", program->size(),
                  program->base(), soft ? "soft-float" : "hard-float");

      if (trace_limit > 0) {
        nfp::sim::TraceSim tracer(trace_limit);
        tracer.load(*program);
        std::fputs(tracer.run().c_str(), stdout);
      }

      iss.load(*program);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = iss.run(max_insns, dispatch);
    const double host_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!iss.bus().uart_output().empty()) {
      std::printf("--- uart ---\n%s--- end uart ---\n",
                  iss.bus().uart_output().c_str());
    }
    std::printf("exit code %u after %llu instructions%s\n", run.exit_code,
                static_cast<unsigned long long>(run.instret),
                run.halted ? "" : " (DID NOT HALT)");
    std::printf("dispatch %s: %.1f MIPS (%.3f ms host)\n",
                dispatch_name(dispatch),
                host_s > 0.0
                    ? static_cast<double>(run.instret) / host_s * 1e-6
                    : 0.0,
                host_s * 1e3);
    // --sim-stats is one JSON line: {"iss":{...}}, with a "board" object
    // added when the board runs (then the line follows the board run).
    const bool board_runs = want_board && run.halted;
    nfp::sim::JsonWriter stats;
    if (want_sim_stats) {
      stats.begin_object().key("iss").begin_object();
      platform_stats(stats, iss.platform());
      stats.end_object();
      if (!board_runs) std::puts(stats.end_object().str().c_str());
    }
    if (!save_state_path.empty()) {
      std::ofstream out(save_state_path,
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "nfpc: cannot write %s\n",
                     save_state_path.c_str());
        return 2;
      }
      iss.save_state(out);
      out.flush();
      std::printf("nfpc: state saved to %s (%lld bytes)\n",
                  save_state_path.c_str(),
                  static_cast<long long>(out.tellp()));
    }
    // A budget stop with --save-state is a checkpoint, not a failure: the
    // run continues under a later --load-state.
    if (!run.halted) return save_state_path.empty() ? 1 : 0;

    const auto& scheme = nfp::model::CategoryScheme::paper();
    if (want_counts) {
      const auto agg = scheme.aggregate(iss.counters().counts);
      nfp::model::TextTable table({"Category", "count", "share"});
      for (std::size_t c = 0; c < scheme.size(); ++c) {
        table.add_row({scheme.category_name(c), std::to_string(agg[c]),
                       nfp::model::TextTable::fmt(
                           100.0 * static_cast<double>(agg[c]) /
                               static_cast<double>(run.instret)) +
                           "%"});
      }
      std::fputs(table.to_string().c_str(), stdout);
    }

    if (want_estimate || want_board) {
      nfp::board::BoardConfig cfg;
      if (have_seed) cfg.seed = seed;
      std::printf("calibrating NFP model (scheme %s)...\n",
                  scheme_name.c_str());
      const auto calibration = nfp::model::Calibrator().fit(*est_scheme, cfg);
      nfp::model::RunSample sample;
      sample.counts = iss.counters().counts;
      sample.instret = run.instret;
      // The board runs before the estimate is printed: the event-based and
      // time-proxy schemes read their features off the board.
      std::optional<nfp::board::Measurement> meas;
      if (want_board) {
        nfp::board::Board board(cfg);
        board.load(*program);
        const auto b0 = std::chrono::steady_clock::now();
        const auto board_run =
            board.run(nfp::board::Board::kDefaultMaxInsns, dispatch);
        const double board_s = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - b0)
                                   .count();
        std::printf("board dispatch %s: %.1f MIPS (%.3f ms host)\n",
                    dispatch_name(dispatch),
                    board_s > 0.0 ? static_cast<double>(board_run.instret) /
                                        board_s * 1e-6
                                  : 0.0,
                    board_s * 1e3);
        if (want_sim_stats) {
          stats.key("board").begin_object();
          platform_stats(stats, board.platform());
          to_json(stats.key("events"), board.events());
          std::puts(stats.end_object().end_object().str().c_str());
        }
        sample.events = board.events();
        meas = board.measure("nfpc");
        sample.measured_time_s = meas->time_s;
      }
      const auto est = est_scheme->estimate(sample, calibration.costs);
      std::printf("estimated: %.4f ms, %.3f uJ\n", est.time_s * 1e3,
                  est.energy_nj * 1e-3);
      if (meas) {
        std::printf("measured:  %.4f ms, %.3f uJ  (error: time %+.2f%%, "
                    "energy %+.2f%%)\n",
                    meas->time_s * 1e3, meas->energy_nj * 1e-3,
                    (est.time_s - meas->time_s) / meas->time_s * 100.0,
                    (est.energy_nj - meas->energy_nj) / meas->energy_nj *
                        100.0);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfpc: %s\n", e.what());
    return 1;
  }
  return 0;
}
