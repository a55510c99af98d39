// Google-benchmark microbenchmarks for the simulator fidelity levels
// (feeds the speed axis of Fig. 1 with statistically robust numbers).
#include <benchmark/benchmark.h>

#include <string>

#include "board/board.h"
#include "mcc/compiler.h"
#include "sim/iss.h"

// Build provenance, stamped per entry: an unoptimized simulator makes every
// MIPS number meaningless for before/after comparisons.
#ifndef NFP_BUILD_TYPE
#define NFP_BUILD_TYPE "unknown"
#endif

namespace {

void set_provenance(benchmark::State& state, const char* dispatch) {
  state.SetLabel(std::string("dispatch=") + dispatch +
                 " build=" NFP_BUILD_TYPE);
}

// Dispatch-speed workload: the mix() call keeps blocks short and makes
// block-to-block transitions (call, conditional branch, jmpl return through
// the branch-target cache) a large share of retired instructions — the very
// cost the dispatch modes differ on. Straight-line-only loops under-report
// dispatch overhead because one morphed block amortizes it over dozens of
// instructions.
const nfp::asmkit::Program& loop_program() {
  static const nfp::asmkit::Program program = nfp::mcc::Compiler().compile({R"(
unsigned mix(unsigned acc, unsigned v) {
  acc = acc * 1664525u + 1013904223u;
  return acc ^ v;
}
int main() {
  unsigned acc = 1;
  int data[64];
  for (int i = 0; i < 64; i++) data[i] = i * 3;
  for (int i = 0; i < 40000; i++) {
    acc = mix(acc, (unsigned)data[i & 63]);
    acc = mix(acc, acc >> 3);
    data[i & 63] = (int)(acc >> 16);
  }
  return (int)(acc & 0xFF);
}
)"});
  return program;
}

// `make` builds the simulator, `go` runs the loaded simulator to completion
// and returns its RunResult (the indirection lets callers pick a dispatch
// mode).
template <typename Make, typename Go>
void run_sim(benchmark::State& state, Make&& make, Go&& go) {
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto sim = make();
    sim.load(loop_program());
    const auto result = go(sim);
    if (!result.halted) state.SkipWithError("did not halt");
    insns += result.instret;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(insns) * 1e-6, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(insns));
}

constexpr std::uint64_t kBudget = 1'000'000'000ull;

// Step / block / jit rungs for the two batch-capable fidelity levels (the
// superblock morph cache and jit speedups reported in docs/block_cache.md
// and docs/jit.md).
void BM_FunctionalSim(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget); });
}
BENCHMARK(BM_FunctionalSim)->Unit(benchmark::kMillisecond);

void BM_FunctionalSim_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_FunctionalSim_Step)->Unit(benchmark::kMillisecond);

// The x86-64 template-JIT tier (Dispatch::kJit). On hosts where the jit
// cannot run this silently measures kBlock dispatch instead — the
// label still says jit, but such a bench box is outside the snapshot's
// provenance anyway.
void BM_FunctionalSim_Jit(benchmark::State& state) {
  set_provenance(state, "jit");
  run_sim(
      state, [] { return nfp::sim::FunctionalSim(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
}
BENCHMARK(BM_FunctionalSim_Jit)->Unit(benchmark::kMillisecond);

void BM_IssWithCounters(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state, [] { return nfp::sim::Iss(); },
      [](auto& sim) { return sim.run(kBudget); });
}
BENCHMARK(BM_IssWithCounters)->Unit(benchmark::kMillisecond);

void BM_IssWithCounters_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state, [] { return nfp::sim::Iss(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_IssWithCounters_Step)->Unit(benchmark::kMillisecond);

void BM_IssWithCounters_Jit(benchmark::State& state) {
  set_provenance(state, "jit");
  run_sim(
      state, [] { return nfp::sim::Iss(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
}
BENCHMARK(BM_IssWithCounters_Jit)->Unit(benchmark::kMillisecond);

// Board step-vs-block A/B pair: whole-block dispatch (counts batched per
// block, cost-ledger tallies in the morph handlers) against the
// per-instruction stepping baseline, at identical — bit-for-bit — cycle and
// energy accounting.
void BM_BoardApproxTimed(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state, [] { return nfp::board::Board(); },
      [](auto& sim) { return sim.run(kBudget); });
}
BENCHMARK(BM_BoardApproxTimed)->Unit(benchmark::kMillisecond);

void BM_BoardApproxTimed_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state, [] { return nfp::board::Board(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_BoardApproxTimed_Step)->Unit(benchmark::kMillisecond);

// The board on the jit: emitted code tallies the cost ledger inline —
// accounting stays bit-for-bit identical to both rows above.
void BM_BoardApproxTimed_Jit(benchmark::State& state) {
  set_provenance(state, "jit");
  run_sim(
      state, [] { return nfp::board::Board(); },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kJit); });
}
BENCHMARK(BM_BoardApproxTimed_Jit)->Unit(benchmark::kMillisecond);

void BM_BoardCycleStepped(benchmark::State& state) {
  set_provenance(state, "block");
  run_sim(
      state,
      [] {
        nfp::board::BoardConfig cfg;
        cfg.fidelity = nfp::board::Fidelity::kCycleStepped;
        return nfp::board::Board(cfg);
      },
      [](auto& sim) { return sim.run(kBudget); });
}
BENCHMARK(BM_BoardCycleStepped)->Unit(benchmark::kMillisecond);

void BM_BoardCycleStepped_Step(benchmark::State& state) {
  set_provenance(state, "step");
  run_sim(
      state,
      [] {
        nfp::board::BoardConfig cfg;
        cfg.fidelity = nfp::board::Fidelity::kCycleStepped;
        return nfp::board::Board(cfg);
      },
      [](auto& sim) { return sim.run(kBudget, nfp::sim::Dispatch::kStep); });
}
BENCHMARK(BM_BoardCycleStepped_Step)->Unit(benchmark::kMillisecond);

void BM_Compile(benchmark::State& state) {
  const auto abi = state.range(0) == 0 ? nfp::mcc::FloatAbi::kHard
                                       : nfp::mcc::FloatAbi::kSoft;
  const std::string source = R"(
double filter(double* data, int n) {
  double acc = 0.0;
  for (int i = 1; i + 1 < n; i++) {
    acc += (data[i - 1] + 2.0 * data[i] + data[i + 1]) * 0.25;
  }
  return acc / (double)n;
}
double buf[128];
int main() {
  for (int i = 0; i < 128; i++) buf[i] = (double)(i * 7 % 31);
  return (int)filter(buf, 128);
}
)";
  for (auto _ : state) {
    nfp::mcc::CompileOptions opts;
    opts.float_abi = abi;
    benchmark::DoNotOptimize(nfp::mcc::Compiler(opts).compile({source}));
  }
}
BENCHMARK(BM_Compile)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("nfp_build_type", NFP_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
