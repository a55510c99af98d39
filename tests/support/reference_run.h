// Test reference: the paper's straight-line ISS -> board loop, one job at a
// time on fresh simulators stepping one instruction at a time, with none of
// the CampaignService machinery (no shards, slices, snapshots, reused arenas
// or block/jit dispatch). Sharded and preempted service runs must reproduce
// it bit for bit.
#pragma once

#include <stdexcept>
#include <vector>

#include "board/board.h"
#include "nfp/campaign.h"
#include "sim/iss.h"

namespace nfp::test {

inline model::KernelRunRecord reference_run(const board::BoardConfig& cfg,
                                            const model::KernelJob& job) {
  model::KernelRunRecord rec;
  rec.name = job.name;
  try {
    sim::Iss iss;
    iss.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      iss.bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto iss_run = iss.run(job.max_insns, sim::Dispatch::kStep);
    if (!iss_run.halted) throw std::runtime_error("ISS run did not halt");
    rec.counts = iss.counters().counts;
    rec.instret = iss_run.instret;
    rec.exit_code = iss_run.exit_code;

    board::Board brd(cfg);
    brd.load(job.program);
    for (const auto& [addr, bytes] : job.inputs) {
      brd.bus().write_block(addr, bytes.data(), bytes.size());
    }
    const auto board_run = brd.run(job.max_insns, sim::Dispatch::kStep);
    if (!board_run.halted) throw std::runtime_error("board run did not halt");
    if (board_run.instret != rec.instret) {
      throw std::runtime_error("ISS/board instruction streams diverged");
    }
    rec.measured = brd.measure(job.name);
    rec.events = brd.events();
    rec.cycles = brd.cycles();
    rec.true_energy_nj = brd.true_energy_nj();
    rec.true_time_s = brd.true_time_s();
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

}  // namespace nfp::test
