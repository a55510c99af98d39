// Sharded campaign service: deterministic sharded draining at any worker
// count, preempt/checkpoint/resume bit-identity (through sim/state_io.h
// snapshots), work stealing, failure isolation, and equivalence with the
// batch Campaign loop on the real kernel sets.
#include "nfp/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "asmkit/assembler.h"
#include "nfp/campaign.h"
#include "sim/memmap.h"
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
    // Every job takes one ISS and one board slice when never preempted.
    EXPECT_EQ(stats.slices, static_cast<std::uint64_t>(2 * kJobs));
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
  // ~290k retired instructions per platform, preempted every 7000: dozens
  // of snapshot round trips, usually across arenas. Ground truth must not
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
  EXPECT_EQ(sliced[0].slices, stats.checkpoints + 2);  // +1 cold start each
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
  // steal worker 0's queued tail to finish.
  CampaignService service(fast_config(2));
  std::vector<ServiceJob> jobs;
  jobs.push_back(loop_job("long", 60'000));  // id 0 -> shard 0
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

TEST(CampaignService, MatchesBatchCampaignOnKernelSets) {
  // The acceptance bar: real MVC + FSE kernel sets (both ABIs) through the
  // sharded, preempting service equal the batch Campaign loop bit-for-bit
  // in cycles and energy, at every worker count. Reduced-size kernels keep
  // the test fast; bench_service_ab runs the full 120-kernel set.
  workloads::MvcKernelParams mvc;
  mvc.width = 16;
  mvc.height = 16;
  mvc.frames = 2;
  mvc.qps = {10, 45};
  workloads::FseKernelParams fse;
  fse.iterations = 6;
  fse.count = 3;

  std::vector<KernelJob> batch_jobs;
  for (const auto abi : {mcc::FloatAbi::kHard, mcc::FloatAbi::kSoft}) {
    for (auto& j : workloads::make_mvc_jobs(abi, mvc)) {
      batch_jobs.push_back(std::move(j));
    }
    for (auto& j : workloads::make_fse_jobs(abi, fse)) {
      batch_jobs.push_back(std::move(j));
    }
  }
  ASSERT_GE(batch_jobs.size(), 30u);

  const board::BoardConfig board_cfg;
  const auto batch = Campaign(board_cfg, 4).run(batch_jobs);

  for (const unsigned workers : {1u, 3u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.calibrate = false;
    cfg.board = board_cfg;
    CampaignService service(cfg);
    std::vector<ServiceJob> jobs;
    for (const auto& j : batch_jobs) {
      ServiceJob sj;
      sj.name = j.name;
      sj.program = j.program;
      sj.inputs = j.inputs;
      sj.slice_insns = 40'000;  // force checkpoint/resume inside real runs
      jobs.push_back(std::move(sj));
    }
    const auto got = service.run_jobs(std::move(jobs));
    ASSERT_EQ(got.size(), batch.size());
    if (workers == 3) EXPECT_GT(service.stats().checkpoints, 0u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto& g = got[i].record;
      const auto& w = batch[i];
      ASSERT_TRUE(g.ok) << g.name << ": " << g.error;
      ASSERT_TRUE(w.ok) << w.name << ": " << w.error;
      EXPECT_EQ(g.name, w.name);
      EXPECT_EQ(g.instret, w.instret) << g.name;
      EXPECT_EQ(g.counts, w.counts) << g.name;
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

TEST(CampaignService, StaticFastPathStreamsBeforeTheFinalResult) {
  // The injected estimator (a stub here; nfpd injects analyze_ipet) runs
  // before the first executed instruction, streams through the static sink,
  // and rides unchanged on the final record.
  ServiceConfig cfg = fast_config(2);
  cfg.static_estimator = [](const asmkit::Program& p) {
    StaticBounds b;
    b.accepted = true;
    b.insns_lower = 1;
    b.insns_upper = p.size();  // any program-derived value round-trips
    b.energy_lower_nj = 2.5;
    b.energy_upper_nj = 99.5;
    return b;
  };
  CampaignService service(cfg);
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, char>> order;  // (id, 's'tatic/'f'inal)
  service.set_static_sink(
      [&](std::uint64_t id, const std::string& name, const StaticBounds& b) {
        std::lock_guard<std::mutex> lk(mu);
        EXPECT_TRUE(b.accepted);
        EXPECT_FALSE(name.empty());
        order.emplace_back(id, 's');
      });
  service.set_sink([&](const ServiceResult& r) {
    std::lock_guard<std::mutex> lk(mu);
    order.emplace_back(r.id, 'f');
  });
  const auto results = service.run_jobs(
      {loop_job("fast0", 40), loop_job("fast1", 60), loop_job("fast2", 80)});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.record.ok) << r.record.error;
    EXPECT_GT(r.record.instret, 0u);  // refinement ran
    EXPECT_FALSE(r.static_served);
    ASSERT_TRUE(r.static_bounds.has_value());
    EXPECT_TRUE(r.static_bounds->accepted);
    EXPECT_EQ(r.static_bounds->insns_upper, r.record.instret == 0
                                                ? 0u
                                                : r.static_bounds->insns_upper);
    EXPECT_EQ(r.static_bounds->energy_upper_nj, 99.5);
  }
  // Per job, the static interval streamed strictly before the final result.
  for (std::uint64_t id = 0; id < 3; ++id) {
    std::vector<char> kinds;
    for (const auto& [oid, kind] : order) {
      if (oid == id) kinds.push_back(kind);
    }
    ASSERT_EQ(kinds.size(), 2u) << "job " << id;
    EXPECT_EQ(kinds[0], 's') << "job " << id;
    EXPECT_EQ(kinds[1], 'f') << "job " << id;
  }
}

TEST(CampaignService, StaticOnlyServesAcceptedAndRunsRefused) {
  // static_only: an accepted interval is the answer (no execution at all);
  // a refusal falls through to the full dynamic pipeline.
  ServiceConfig cfg = fast_config(2);
  cfg.static_only = true;
  cfg.static_estimator = [](const asmkit::Program& p) {
    StaticBounds b;
    b.accepted = p.size() < 40;  // only the tiniest program is accepted
    if (!b.accepted) b.reason = "unbounded-loop";
    b.cycles_upper = 1234;
    return b;
  };
  CampaignService service(cfg);
  ServiceJob tiny;
  tiny.name = "tiny";
  tiny.program = asmkit::assemble("_start: mov 0, %o0\n ta 0\n nop\n",
                                  sim::kTextBase);
  const auto results =
      service.run_jobs({std::move(tiny), loop_job("refused", 50)});
  ASSERT_EQ(results.size(), 2u);

  ASSERT_TRUE(results[0].static_bounds.has_value());
  EXPECT_TRUE(results[0].static_bounds->accepted);
  EXPECT_TRUE(results[0].static_served);
  EXPECT_TRUE(results[0].record.ok);
  EXPECT_EQ(results[0].record.instret, 0u);  // never executed
  EXPECT_EQ(results[0].slices, 1u);

  ASSERT_TRUE(results[1].static_bounds.has_value());
  EXPECT_FALSE(results[1].static_bounds->accepted);
  EXPECT_EQ(results[1].static_bounds->reason, "unbounded-loop");
  EXPECT_FALSE(results[1].static_served);
  ASSERT_TRUE(results[1].record.ok) << results[1].record.error;
  EXPECT_GT(results[1].record.instret, 0u);  // dynamic pipeline ran
  EXPECT_GT(results[1].record.cycles, 0u);
}

TEST(CampaignService, JsonLineCarriesTheStaticObject) {
  ServiceResult r;
  r.record.name = "static";
  r.record.ok = true;
  StaticBounds b;
  b.accepted = true;
  b.insns_lower = 5;
  b.insns_upper = 11;
  b.cycles_lower = 29;
  b.cycles_upper = 61;
  r.static_bounds = b;
  r.static_served = true;
  const std::string line = result_json_line(r);
  EXPECT_NE(line.find("\"static_served\":true"), std::string::npos);
  EXPECT_NE(line.find("\"static\":{\"accepted\":true,\"insns_lower\":5,"
                      "\"insns_upper\":11,\"cycles_lower\":29,"
                      "\"cycles_upper\":61,"),
            std::string::npos);
  EXPECT_EQ(line.back(), '}');

  StaticBounds refused;
  refused.accepted = false;
  refused.reason = "recursion";
  EXPECT_EQ(static_bounds_json(refused),
            "{\"accepted\":false,\"reason\":\"recursion\"}");

  // The static-sink line escapes the job name like result_json_line does.
  EXPECT_EQ(static_json_line(7, "dir\\k\"1\".s", refused),
            "{\"id\":7,\"name\":\"dir\\\\k\\\"1\\\".s\","
            "\"static\":{\"accepted\":false,\"reason\":\"recursion\"}}");

  // No estimator => no static fields at all.
  ServiceResult plain;
  plain.record.name = "plain";
  EXPECT_EQ(result_json_line(plain).find("static"), std::string::npos);
}

TEST(CampaignService, WarmCalibrationTableIsSharedAcrossJobs) {
  // With calibration on, every job's estimate comes from one table: equal
  // counts => bit-equal estimates, and the table matches a direct
  // Calibrator run under the same config and plan.
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
  const auto direct =
      Calibrator(CategoryScheme::paper(), cfg.plan).run(cfg.board);
  const auto want =
      estimate(results[2].record.counts, CategoryScheme::paper(), direct.costs);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(results[2].estimate.energy_nj),
            std::bit_cast<std::uint64_t>(want.energy_nj));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(results[2].estimate.time_s),
            std::bit_cast<std::uint64_t>(want.time_s));
}

}  // namespace
}  // namespace nfp::model
