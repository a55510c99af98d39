// Sharded campaign service: deterministic sharded draining at any worker
// count, preempt/checkpoint/resume bit-identity (through sim/state_io.h
// snapshots), work stealing, failure isolation, and equivalence with the
// straight-line reference loop (support/reference_run.h) on the real kernel
// sets.
#include "nfp/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "sim/memmap.h"
#include "support/eq1_reference.h"
#include "support/reference_run.h"
#include "workloads/kernels.h"

namespace nfp::model {
namespace {

// A store/load loop touching RAM so board cycles and energy depend on real
// activity, not just instruction count.
ServiceJob loop_job(const std::string& name, int iterations,
                    std::uint64_t slice = 0) {
  ServiceJob job;
  job.name = name;
  job.slice_insns = slice;
  job.program = asmkit::assemble(
      "_start: set " + std::to_string(iterations) + R"(, %l0
        set 0x40700000, %l1
        clr %l3
loop:   st %l0, [%l1 + %l3]
        ld [%l1 + %l3], %l4
        add %l3, 68, %l3
        and %l3, 0xffc, %l3
        xor %l4, %l0, %l5
        subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
)",
      sim::kTextBase);
  return job;
}

ServiceConfig fast_config(unsigned workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.calibrate = false;  // these tests compare records, not estimates
  return cfg;
}

void expect_records_equal(const ServiceResult& got, const ServiceResult& want,
                          const std::string& where) {
  EXPECT_EQ(got.id, want.id) << where;
  EXPECT_EQ(got.record.name, want.record.name) << where;
  EXPECT_EQ(got.record.ok, want.record.ok) << where << ": " << got.record.error;
  EXPECT_EQ(got.record.exit_code, want.record.exit_code) << where;
  EXPECT_EQ(got.record.instret, want.record.instret) << where;
  EXPECT_EQ(got.record.counts, want.record.counts) << where;
  EXPECT_EQ(got.record.cycles, want.record.cycles) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.record.measured.energy_nj),
            std::bit_cast<std::uint64_t>(want.record.measured.energy_nj))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.record.measured.time_s),
            std::bit_cast<std::uint64_t>(want.record.measured.time_s))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.record.true_energy_nj),
            std::bit_cast<std::uint64_t>(want.record.true_energy_nj))
      << where;
}

TEST(CampaignService, DrainsThousandsOfTinyJobsAtAnyWorkerCount) {
  // The queue must produce the same submit-order results no matter how the
  // jobs shard, steal, and interleave across workers.
  const int kJobs = 2000;
  std::vector<ServiceJob> protos;
  for (int v = 0; v < 10; ++v) {
    protos.push_back(loop_job("tiny" + std::to_string(v), 20 + v * 7));
  }

  std::vector<ServiceResult> baseline;
  for (const unsigned workers : {1u, 3u, 8u}) {
    CampaignService service(fast_config(workers));
    std::vector<ServiceJob> jobs;
    jobs.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) jobs.push_back(protos[i % protos.size()]);
    const auto results = service.run_jobs(std::move(jobs));
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kJobs));
    const auto stats = service.stats();
    EXPECT_EQ(stats.jobs_completed, static_cast<std::uint64_t>(kJobs));
    // Every job is one board slice when never preempted.
    EXPECT_EQ(stats.slices, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(stats.checkpoints, 0u);
    if (workers == 1) {
      baseline = results;
      for (int i = 0; i < kJobs; ++i) {
        ASSERT_TRUE(results[i].record.ok) << results[i].record.error;
        EXPECT_EQ(results[i].id, static_cast<std::uint64_t>(i));
      }
      continue;
    }
    for (int i = 0; i < kJobs; ++i) {
      expect_records_equal(results[i], baseline[i],
                           "job " + std::to_string(i) + " at " +
                               std::to_string(workers) + " workers");
    }
  }
}

TEST(CampaignService, PreemptedLongJobBitIdenticalToUnpreempted) {
  // ~290k retired instructions, preempted every 7000: dozens of snapshot
  // round trips, usually across workers' boards. Ground truth must not
  // wobble by a single bit.
  const auto unpreempted =
      CampaignService(fast_config(2)).run_jobs({loop_job("long", 24'000)});
  ASSERT_EQ(unpreempted.size(), 1u);
  ASSERT_TRUE(unpreempted[0].record.ok) << unpreempted[0].record.error;
  ASSERT_GT(unpreempted[0].record.instret, 150'000u);

  CampaignService service(fast_config(2));
  const auto sliced = service.run_jobs({loop_job("long", 24'000, 7'000)});
  ASSERT_EQ(sliced.size(), 1u);
  expect_records_equal(sliced[0], unpreempted[0], "preempted long job");

  const auto stats = service.stats();
  EXPECT_GT(stats.checkpoints, 20u);
  EXPECT_EQ(stats.resumes, stats.checkpoints);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_EQ(sliced[0].slices, stats.checkpoints + 1);  // +1 cold start
  EXPECT_GT(unpreempted[0].slices, 0u);
  EXPECT_EQ(unpreempted[0].checkpoints, 0u);
}

TEST(CampaignService, MixedGrainsAndWorkerCountsAgree) {
  // Same job set under every combination of preemption grain and worker
  // count: all records identical to the serial unsliced baseline.
  auto make_jobs = [](std::uint64_t slice) {
    std::vector<ServiceJob> jobs;
    for (int i = 0; i < 24; ++i) {
      jobs.push_back(
          loop_job("mix" + std::to_string(i), 300 + 113 * i, slice));
    }
    return jobs;
  };
  const auto baseline = CampaignService(fast_config(1)).run_jobs(make_jobs(0));
  for (const unsigned workers : {1u, 4u}) {
    for (const std::uint64_t slice : {900ull, 3'000ull}) {
      const auto got =
          CampaignService(fast_config(workers)).run_jobs(make_jobs(slice));
      ASSERT_EQ(got.size(), baseline.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_records_equal(got[i], baseline[i],
                             "slice " + std::to_string(slice) + " workers " +
                                 std::to_string(workers));
      }
    }
  }
}

TEST(CampaignService, StealsWorkFromABusyShard) {
  // Two workers. Shard 0 gets a long unpreemptible job first plus a tail of
  // short ones (even ids); worker 1 drains its own shard quickly and must
  // steal worker 0's queued tail to finish. The long job (4.8 M retired
  // instructions in one board run) must outlast worker 1's eight short
  // jobs, jit or sanitizer build alike.
  CampaignService service(fast_config(2));
  std::vector<ServiceJob> jobs;
  jobs.push_back(loop_job("long", 600'000));  // id 0 -> shard 0
  for (int i = 1; i < 16; ++i) {
    jobs.push_back(loop_job("short" + std::to_string(i), 25));
  }
  const auto results = service.run_jobs(std::move(jobs));
  ASSERT_EQ(results.size(), 16u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.record.ok) << r.record.name << ": " << r.record.error;
  }
  EXPECT_GT(service.stats().steals, 0u);
}

TEST(CampaignService, FailingJobsAreIsolated) {
  CampaignService service(fast_config(2));
  ServiceJob bad;
  bad.name = "illegal";
  bad.program = asmkit::assemble("_start: .word 0\n", sim::kTextBase);
  ServiceJob runaway = loop_job("runaway", 1'000'000);
  runaway.max_insns = 5'000;  // budget exhausted long before the halt
  runaway.slice_insns = 1'000;
  const auto results = service.run_jobs(
      {loop_job("good", 50), std::move(bad), std::move(runaway),
       loop_job("also-good", 50)});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].record.ok) << results[0].record.error;
  EXPECT_FALSE(results[1].record.ok);
  EXPECT_NE(results[1].record.error.find("illegal instruction"),
            std::string::npos);
  EXPECT_FALSE(results[2].record.ok);
  EXPECT_NE(results[2].record.error.find("did not halt"), std::string::npos);
  EXPECT_TRUE(results[3].record.ok) << results[3].record.error;
}

TEST(CampaignService, SinkStreamsEveryResultExactlyOnce) {
  CampaignService service(fast_config(3));
  std::mutex mu;
  std::vector<std::uint64_t> seen;
  service.set_sink([&](const ServiceResult& r) {
    std::lock_guard<std::mutex> lk(mu);
    seen.push_back(r.id);
    const std::string line = result_json_line(r);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\":\"" + r.record.name + "\""),
              std::string::npos);
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
  });
  std::vector<ServiceJob> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(loop_job("s" + std::to_string(i), 30 + i));
  }
  service.run_jobs(std::move(jobs));
  ASSERT_EQ(seen.size(), 40u);
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(seen[i], i);
}

TEST(CampaignService, JsonLineEscapesErrorStrings) {
  ServiceResult r;
  r.record.name = "quo\"te";
  r.record.ok = false;
  r.record.error = "line\nbreak\\slash";
  const std::string line = result_json_line(r);
  EXPECT_NE(line.find("quo\\\"te"), std::string::npos);
  EXPECT_NE(line.find("line\\nbreak\\\\slash"), std::string::npos);
}

TEST(CampaignService, JsonLineIsByteIdenticalToTheGolden) {
  // Pinned from the hand-rolled renderer the JSON writer replaced: one ok
  // record with an event export and one failed record without.
  ServiceResult ok;
  ok.id = 7;
  ok.record.name = "mvc/intra/qp10/seq0/float";
  ok.record.ok = true;
  ok.record.exit_code = 3;
  ok.record.instret = 18848724;
  ok.record.cycles = 197494151;
  ok.record.measured = {1223602750.0015624, 3.9498830200000001};
  ok.record.true_energy_nj = 1223602749.5;
  ok.record.true_time_s = 0.1;
  ok.estimate = {1.0 / 3.0, 2.5e-300};
  ok.scheme = "events";
  for (std::size_t i = 0; i < board::kEventCount; ++i) {
    ok.record.events.v[i] = 1000 + i;
  }
  ok.slices = 4;
  ok.checkpoints = 3;
  EXPECT_EQ(
      result_json_line(ok),
      R"({"id":7,"name":"mvc/intra/qp10/seq0/float","ok":true,"exit_code":3,)"
      R"("instret":18848724,"cycles":197494151,)"
      R"("measured_energy_nj":1223602750.0015624,)"
      R"("measured_time_s":3.9498830200000001,)"
      R"("true_energy_nj":1223602749.5,"true_time_s":0.10000000000000001,)"
      R"("est_energy_nj":0.33333333333333331,"est_time_s":2.5e-300,)"
      R"("scheme":"events","events":{"version":1,"retired":1000,)"
      R"("loads":1001,"stores":1002,"row_misses":1003,"cache_hits":1004,)"
      R"("cache_misses":1005,"branches_taken":1006,"branches_untaken":1007,)"
      R"("stall_cycles":1008,"fpu_ops":1009,"muldiv_ops":1010},)"
      R"("slices":4,"checkpoints":3})");

  ServiceResult bad;
  bad.id = 8;
  bad.record.name = "we\"ird\\k.s";
  bad.record.ok = false;
  bad.record.error = "asm line 3:\tillegal\ninstruction \x01";
  bad.slices = 1;
  EXPECT_EQ(
      result_json_line(bad),
      R"({"id":8,"name":"we\"ird\\k.s","ok":false,)"
      R"("error":"asm line 3:\tillegal\ninstruction \u0001","exit_code":0,)"
      R"("instret":0,"cycles":0,"measured_energy_nj":0,"measured_time_s":0,)"
      R"("true_energy_nj":0,"true_time_s":0,"est_energy_nj":0,"est_time_s":0,)"
      R"("slices":1,"checkpoints":0})");
}

TEST(CampaignService, MatchesBatchCampaignOnKernelSets) {
  // The acceptance bar: real MVC + FSE kernel sets (both ABIs) through the
  // sharded, preempting service (one board run per job) equal the
  // straight-line ISS -> board reference loop bit-for-bit in counts, exit
  // code, events, cycles and energy, at every worker count.
  // Reduced-size kernels keep the test fast; CI's sliced-campaign step
  // checks the full 120-kernel set.
  workloads::MvcKernelParams mvc;
  mvc.width = 16;
  mvc.height = 16;
  mvc.frames = 2;
  mvc.qps = {10, 45};
  workloads::FseKernelParams fse;
  fse.iterations = 6;
  fse.count = 3;

  std::vector<KernelJob> kernels;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi, mvc)) {
      kernels.push_back(std::move(j));
    }
    for (auto& j : workloads::make_fse_jobs(abi, fse)) {
      kernels.push_back(std::move(j));
    }
  }
  ASSERT_GE(kernels.size(), 30u);

  const board::BoardConfig board_cfg;
  std::vector<KernelRunRecord> reference;
  for (const auto& j : kernels) {
    reference.push_back(test::reference_run(board_cfg, j));
  }

  for (const unsigned workers : {1u, 3u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.calibrate = false;
    cfg.board = board_cfg;
    CampaignService service(cfg);
    std::vector<KernelJob> jobs = kernels;
    // Force checkpoint/resume inside real runs.
    for (auto& j : jobs) j.slice_insns = 40'000;
    const auto got = service.run_jobs(std::move(jobs));
    ASSERT_EQ(got.size(), reference.size());
    if (workers == 3) {
      EXPECT_GT(service.stats().checkpoints, 0u);
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& g = got[i].record;
      const auto& w = reference[i];
      ASSERT_TRUE(g.ok) << g.name << ": " << g.error;
      ASSERT_TRUE(w.ok) << w.name << ": " << w.error;
      EXPECT_EQ(g.name, w.name);
      EXPECT_EQ(g.instret, w.instret) << g.name;
      EXPECT_EQ(g.exit_code, w.exit_code) << g.name;
      EXPECT_EQ(g.counts, w.counts) << g.name;
      EXPECT_EQ(g.events, w.events) << g.name;
      EXPECT_EQ(g.cycles, w.cycles) << g.name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.true_energy_nj),
                std::bit_cast<std::uint64_t>(w.true_energy_nj))
          << g.name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.measured.energy_nj),
                std::bit_cast<std::uint64_t>(w.measured.energy_nj))
          << g.name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.measured.time_s),
                std::bit_cast<std::uint64_t>(w.measured.time_s))
          << g.name;
    }
  }
}

TEST(CampaignService, WarmCalibrationTableIsSharedAcrossJobs) {
  // With calibration on, every job's estimate comes from one table: equal
  // counts => bit-equal estimates, and the table matches a direct
  // Calibrator::fit under the same config and plan, priced by the Eq. 1
  // reference sum.
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.calibrate = true;
  cfg.plan.loops = 2'000;  // small plan: this tests sharing, not Table I
  cfg.plan.per_loop = 8;
  CampaignService service(cfg);
  const auto results = service.run_jobs(
      {loop_job("a", 400), loop_job("b", 400), loop_job("c", 150)});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.record.ok) << r.record.error;
    EXPECT_GT(r.estimate.energy_nj, 0.0);
    EXPECT_GT(r.estimate.time_s, 0.0);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(results[0].estimate.energy_nj),
            std::bit_cast<std::uint64_t>(results[1].estimate.energy_nj));
  const auto direct = Calibrator(cfg.plan).fit(eq1_estimator(), cfg.board);
  const auto want = test::eq1_reference(
      CategoryScheme::paper().aggregate(results[2].record.counts),
      direct.costs);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(results[2].estimate.energy_nj),
            std::bit_cast<std::uint64_t>(want.energy_nj));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(results[2].estimate.time_s),
            std::bit_cast<std::uint64_t>(want.time_s));
}

}  // namespace
}  // namespace nfp::model
