#include "board/board.h"

#include <cmath>

#include "board/rng.h"
#include "sim/executor.h"
#include "sim/state_io.h"

namespace nfp::board {

Board::Board(BoardConfig cfg)
    : cfg_(cfg), hooks_(std::make_unique<BoardHooks>(cfg_, cost_)) {}

void Board::load(const asmkit::Program& program) {
  platform_.load(program);
  hooks_ = std::make_unique<BoardHooks>(cfg_, cost_);
}

void Board::step() {
  sim::Executor<BoardHooks> exec(platform_.cpu(), platform_.bus(), *hooks_);
  exec.set_decode_cache(platform_.code_base(), platform_.decode_cache());
  exec.set_block_cache(platform_.block_cache());
  exec.set_block_dispatch(false);
  if (!platform_.cpu().halted) exec.step();
}

sim::RunResult Board::run(std::uint64_t max_insns, sim::Dispatch dispatch) {
  sim::Executor<BoardHooks> exec(platform_.cpu(), platform_.bus(), *hooks_);
  exec.set_decode_cache(platform_.code_base(), platform_.decode_cache());
  exec.set_block_cache(platform_.block_cache());
  exec.set_block_dispatch(dispatch != sim::Dispatch::kStep);
  // BoardHooks expose their cost ledger, so kJit runs native code with the
  // ledger tallies emitted inline. When jit_available() is false the
  // executor degrades to chained kBlock on its own.
  exec.set_jit(dispatch == sim::Dispatch::kJit);
  exec.set_chaining(dispatch == sim::Dispatch::kBlock ||
                    dispatch == sim::Dispatch::kJit);
  exec.run(max_insns);
  sim::RunResult result;
  result.halted = platform_.cpu().halted;
  result.instret = platform_.cpu().instret;
  result.exit_code = platform_.cpu().exit_code;
  return result;
}

void Board::save_state(std::ostream& out) const {
  sim::StateWriter w;
  sim::append_platform_chunks(w, platform_);

  w.begin_chunk(sim::kChunkBoardConfig);
  w.put_u8(cfg_.has_fpu ? 1 : 0);
  w.put_u8(cfg_.has_hw_muldiv ? 1 : 0);
  w.put_f64(cfg_.clock_hz);
  w.put_u8(cfg_.enable_variation ? 1 : 0);
  w.put_f64(cfg_.data_energy_amplitude);
  w.put_u8(cfg_.enable_meter_noise ? 1 : 0);
  w.put_f64(cfg_.meter_noise_sigma);
  w.put_f64(cfg_.clock_ticks_per_s);
  w.put_u64(cfg_.seed);
  w.put_u8(cfg_.enable_cache ? 1 : 0);
  w.put_u32(cfg_.cache_lines);
  w.put_u32(cfg_.cache_line_bytes);
  w.put_u8(static_cast<std::uint8_t>(cfg_.fidelity));
  w.end_chunk();

  const BoardHooksState s = hooks_->export_state();
  const sim::CostLedger& l = s.ledger;
  w.begin_chunk(sim::kChunkBoardHooks);
  w.put_u32(static_cast<std::uint32_t>(isa::kOpCount));
  for (const sim::CostLedger::Tally* t : l.tallies()) {
    for (const std::uint64_t v : *t) w.put_u64(v);
  }
  w.put_u32(l.prev_a);
  w.put_u32(l.prev_b);
  w.put_u32(l.prev_addr);
  w.put_u32(l.open_row);
  w.put_u32(static_cast<std::uint32_t>(l.tags.size()));
  for (const std::uint32_t t : l.tags) w.put_u32(t);
  w.put_u64(s.activity_lfsr);
  w.put_u64(s.activity);
  w.end_chunk();

  w.finish(out);
}

void Board::restore_state(std::istream& in) {
  using sim::StateError;
  using sim::StateErrorCode;
  auto tags = sim::platform_chunk_tags();
  tags.push_back(sim::kChunkBoardConfig);
  tags.push_back(sim::kChunkBoardHooks);
  const sim::StateReader r(in, tags);

  // Decode phase: nothing on the board mutates until every chunk decoded and
  // validated (all-or-nothing restore; see sim/state_io.h).
  BoardConfig snap_cfg;
  {
    sim::ChunkCursor c(r.payload(sim::kChunkBoardConfig));
    snap_cfg.has_fpu = c.get_u8() != 0;
    snap_cfg.has_hw_muldiv = c.get_u8() != 0;
    snap_cfg.clock_hz = c.get_f64();
    snap_cfg.enable_variation = c.get_u8() != 0;
    snap_cfg.data_energy_amplitude = c.get_f64();
    snap_cfg.enable_meter_noise = c.get_u8() != 0;
    snap_cfg.meter_noise_sigma = c.get_f64();
    snap_cfg.clock_ticks_per_s = c.get_f64();
    snap_cfg.seed = c.get_u64();
    snap_cfg.enable_cache = c.get_u8() != 0;
    snap_cfg.cache_lines = c.get_u32();
    snap_cfg.cache_line_bytes = c.get_u32();
    const std::uint8_t fid = c.get_u8();
    if (fid > static_cast<std::uint8_t>(Fidelity::kCycleStepped)) {
      throw StateError(StateErrorCode::kBadPayload, "fidelity out of range");
    }
    snap_cfg.fidelity = static_cast<Fidelity>(fid);
    c.done();
  }
  if (!(snap_cfg == cfg_)) {
    throw StateError(StateErrorCode::kConfigMismatch,
                     "snapshot was taken under a different board "
                     "configuration");
  }

  BoardHooksState s;
  {
    sim::ChunkCursor c(r.payload(sim::kChunkBoardHooks));
    sim::CostLedger& l = s.ledger;
    if (c.get_u32() != isa::kOpCount) {
      throw StateError(StateErrorCode::kBadPayload,
                       "cost-ledger tallies have the wrong arity");
    }
    for (sim::CostLedger::Tally* t : l.tallies()) {
      for (std::uint64_t& v : *t) v = c.get_u64();
    }
    if (!l.consistent()) {
      throw StateError(StateErrorCode::kBadPayload,
                       "cost-ledger tallies are inconsistent");
    }
    l.prev_a = c.get_u32();
    l.prev_b = c.get_u32();
    l.prev_addr = c.get_u32();
    l.open_row = c.get_u32();
    const std::uint32_t ntags = c.get_u32();
    const std::uint32_t want = cfg_.enable_cache ? cfg_.cache_lines : 0;
    if (ntags != want) {
      throw StateError(StateErrorCode::kBadPayload,
                       "cache tag array does not match the configuration");
    }
    l.tags.resize(ntags);
    for (std::uint32_t& t : l.tags) t = c.get_u32();
    s.activity_lfsr = c.get_u64();
    s.activity = c.get_u64();
    c.done();
  }

  sim::apply_platform_chunks(r, platform_);
  hooks_ = std::make_unique<BoardHooks>(cfg_, cost_);
  hooks_->import_state(s);
}

Measurement Board::measure(std::string_view tag) const {
  Measurement m;
  m.energy_nj = true_energy_nj();
  m.time_s = true_time_s();
  if (cfg_.enable_meter_noise) {
    SplitMix64 rng(fnv1a(tag, cfg_.seed ^ 0x9E3779B97F4A7C15ull));
    m.energy_nj *= 1.0 + cfg_.meter_noise_sigma * rng.gaussian();
    // clock()-style quantisation: the target timebase has finite resolution.
    const double ticks =
        std::floor(m.time_s * cfg_.clock_ticks_per_s + rng.uniform());
    m.time_s = ticks / cfg_.clock_ticks_per_s;
  }
  return m;
}

}  // namespace nfp::board
