// Measurement campaign: parallel execution, determinism, error isolation,
// and board-dispatch bit-identity of the runner behind it.
#include "nfp/campaign.h"

#include <gtest/gtest.h>

#include <optional>

#include "asmkit/assembler.h"
#include "mcc/compiler.h"
#include "nfp/service.h"
#include "sim/jit.h"
#include "sim/memmap.h"

namespace nfp::model {
namespace {

KernelJob loop_job(const std::string& name, int iterations) {
  KernelJob job;
  job.name = name;
  job.program = asmkit::assemble("_start: set " + std::to_string(iterations) +
                                     R"(, %l0
loop:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
                                 sim::kTextBase);
  return job;
}

TEST(Campaign, RunsJobsAndKeepsOrder) {
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(loop_job("job" + std::to_string(i), 100 + i * 50));
  }
  Campaign campaign(board::BoardConfig{}, 4);
  const auto records = campaign.run(jobs);
  ASSERT_EQ(records.size(), jobs.size());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(records[i].name, "job" + std::to_string(i));
    EXPECT_TRUE(records[i].ok) << records[i].error;
    EXPECT_GT(records[i].instret, 0u);
    // Every op costs at least 2 cycles (board/cost_model.cpp).
    EXPECT_GE(records[i].cycles, records[i].instret);
  }
  // Longer loops retire more instructions.
  EXPECT_GT(records[11].instret, records[0].instret);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(loop_job("det" + std::to_string(i), 200 + i * 30));
  }
  const auto serial = Campaign(board::BoardConfig{}, 1).run(jobs);
  const auto parallel = Campaign(board::BoardConfig{}, 8).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].measured.energy_nj, parallel[i].measured.energy_nj);
    EXPECT_EQ(serial[i].measured.time_s, parallel[i].measured.time_s);
    EXPECT_EQ(serial[i].instret, parallel[i].instret);
    EXPECT_EQ(serial[i].counts, parallel[i].counts);
  }
}

TEST(Campaign, BlockDispatchMatchesStepBitForBit) {
  // The runner defaults to the fastest cost-exact board dispatch (jit where
  // emitted code can run, chained block elsewhere); pinned to
  // per-instruction stepping or chained block through ServiceConfig::dispatch
  // (nfpd --dispatch) it must reproduce every record exactly (measured
  // energy/time compare bit-for-bit, not approximately), and so must the
  // Campaign adapter on the default.
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(loop_job("disp" + std::to_string(i), 150 + i * 40));
  }
  const auto run_with = [&](std::optional<sim::Dispatch> dispatch) {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.calibrate = false;
    cfg.dispatch = dispatch;
    CampaignService service(cfg);
    EXPECT_EQ(service.board_dispatch(),
              dispatch.value_or(sim::jit_available() ? sim::Dispatch::kJit
                                                     : sim::Dispatch::kBlock));
    std::vector<KernelRunRecord> records;
    for (auto& r : service.run_jobs(jobs)) records.push_back(r.record);
    return records;
  };
  const auto block = run_with(std::nullopt);
  const auto step = run_with(sim::Dispatch::kStep);
  const auto pinned = run_with(sim::Dispatch::kBlock);
  const auto campaign = Campaign(board::BoardConfig{}, 2).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(step[i].ok) << step[i].error;
    EXPECT_EQ(step[i].instret, block[i].instret);
    EXPECT_EQ(step[i].cycles, block[i].cycles);
    EXPECT_EQ(step[i].measured.energy_nj, block[i].measured.energy_nj);
    EXPECT_EQ(step[i].measured.time_s, block[i].measured.time_s);
    EXPECT_EQ(step[i].counts, block[i].counts);
    EXPECT_EQ(step[i].cycles, pinned[i].cycles);
    EXPECT_EQ(step[i].measured.energy_nj, pinned[i].measured.energy_nj);
    EXPECT_EQ(step[i].counts, pinned[i].counts);
    EXPECT_EQ(step[i].cycles, campaign[i].cycles);
    EXPECT_EQ(step[i].measured.energy_nj, campaign[i].measured.energy_nj);
    EXPECT_EQ(step[i].counts, campaign[i].counts);
  }
}

TEST(Campaign, FailingKernelIsIsolated) {
  std::vector<KernelJob> jobs;
  jobs.push_back(loop_job("good", 100));
  KernelJob bad;
  bad.name = "bad";
  bad.program = asmkit::assemble(R"(
_start: .word 0
)",
                                 sim::kTextBase);
  jobs.push_back(bad);
  jobs.push_back(loop_job("also-good", 100));

  const auto records = Campaign(board::BoardConfig{}, 2).run(jobs);
  EXPECT_TRUE(records[0].ok);
  EXPECT_FALSE(records[1].ok);
  EXPECT_NE(records[1].error.find("illegal instruction"), std::string::npos);
  EXPECT_TRUE(records[2].ok);
}

TEST(Campaign, RunawayKernelReportsBudgetFailure) {
  KernelJob runaway;
  runaway.name = "runaway";
  runaway.program = asmkit::assemble("_start: ba _start\n nop\n",
                                     sim::kTextBase);
  runaway.max_insns = 5'000;
  const auto spun = Campaign(board::BoardConfig{}, 1).run_one(runaway);
  EXPECT_FALSE(spun.ok);
  EXPECT_NE(spun.error.find("did not halt"), std::string::npos) << spun.error;

  KernelJob bad_mem;
  bad_mem.name = "bad-mem";
  bad_mem.program = asmkit::assemble(R"(
_start: set 0x10000000, %g1
        ld [%g1], %l0
        ta 0
)",
                                     sim::kTextBase);
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(bad_mem);
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("bus error"), std::string::npos);
}

TEST(Campaign, InputsAreWrittenBeforeRun) {
  KernelJob job;
  job.name = "reads-input";
  job.program = asmkit::assemble(R"(
_start: set 0x40800000, %g1
        ld [%g1], %o0
        ta 0
)",
                                 sim::kTextBase);
  job.inputs.emplace_back(sim::kInputBase,
                          std::vector<std::uint8_t>{0x00, 0x00, 0x01, 0x17});
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(job);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.exit_code, 0x117u);
}

TEST(Campaign, CompiledKernelCountsFeedEstimator) {
  mcc::CompileOptions opts;
  KernelJob job;
  job.name = "compiled";
  job.program = mcc::Compiler(opts).compile({R"(
int main() {
  int sum = 0;
  for (int i = 0; i < 100; i++) sum += i;
  return sum & 0xFF;
}
)"});
  const auto rec = Campaign(board::BoardConfig{}, 1).run_one(job);
  ASSERT_TRUE(rec.ok) << rec.error;
  std::uint64_t total = 0;
  for (const auto c : rec.counts) total += c;
  EXPECT_EQ(total, rec.instret);
  EXPECT_GT(rec.measured.energy_nj, 0.0);
}

}  // namespace
}  // namespace nfp::model
