// Single-snapshot microbenchmarks: the cost of one checkpoint of a sliced
// HEVC decode, as CampaignService takes and resumes it. One fixed-ABI
// decode of a two-frame intra stream runs 500 000 instructions on the
// board; the benchmarks then save that board, restore the snapshot into a
// board holding the same decoder (a worker resuming the job it ran last),
// parse it alone, and checksum its bytes.
//
//   bench_snapshot --benchmark_repetitions=5
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "board/board.h"
#include "codecs/mvc.h"
#include "codecs/sequence_gen.h"
#include "sim/memmap.h"
#include "sim/state_io.h"
#include "workloads/kernels.h"

namespace {

constexpr std::uint64_t kSlice = 500'000;

// The HEVC decoder 500 000 instructions into one stream.
nfp::board::Board& sliced_board() {
  static const std::unique_ptr<nfp::board::Board> board = [] {
    const nfp::workloads::MvcKernelParams p;
    const auto frames = nfp::codec::make_sequence(
        p.width, p.height, 2, nfp::codec::SequenceKind::kMovingGradient, 1000);
    const auto blob = nfp::codec::encode(frames, p.width, p.height, 32,
                                         nfp::codec::Config::kIntra)
                          .stream.to_input_blob();
    auto b = std::make_unique<nfp::board::Board>();
    b->load(nfp::workloads::mvc_program(nfp::mcc::FloatAbi::kSoft));
    b->bus().write_block(nfp::sim::kInputBase, blob.data(), blob.size());
    if (b->run(kSlice).halted) throw std::runtime_error("decode too short");
    return b;
  }();
  return *board;
}

const std::string& snapshot() {
  static const std::string bytes = [] {
    std::ostringstream out;
    sliced_board().save_state(out);
    return std::move(out).str();
  }();
  return bytes;
}

void BM_SnapshotSave(benchmark::State& state) {
  const nfp::board::Board& board = sliced_board();
  for (auto _ : state) {
    std::ostringstream out;
    board.save_state(out);
    benchmark::DoNotOptimize(std::move(out).str());
  }
  state.counters["bytes"] = static_cast<double>(snapshot().size());
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMicrosecond);

// Reading and validating the stream alone, the first phase of a restore.
void BM_SnapshotParse(benchmark::State& state) {
  auto tags = nfp::sim::platform_chunk_tags();
  tags.push_back(nfp::sim::kChunkBoardConfig);
  tags.push_back(nfp::sim::kChunkBoardHooks);
  for (auto _ : state) {
    std::istringstream in(snapshot());
    const nfp::sim::StateReader r(in, tags);
    benchmark::DoNotOptimize(r.has(nfp::sim::kChunkRam));
  }
}
BENCHMARK(BM_SnapshotParse)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestore(benchmark::State& state) {
  nfp::board::Board target;
  target.load(nfp::workloads::mvc_program(nfp::mcc::FloatAbi::kSoft));
  for (auto _ : state) {
    std::istringstream in(snapshot());
    target.restore_state(in);
    benchmark::DoNotOptimize(target.cpu().instret);
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(snapshot().size());
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

void BM_ChunkChecksum(benchmark::State& state) {
  const std::string& bytes = snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nfp::sim::chunk_checksum(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ChunkChecksum)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
