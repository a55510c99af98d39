#include "fuzz/oracle.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <vector>

#include "asmkit/assembler.h"
#include "fuzz/generator.h"
#include "sim/memmap.h"

namespace nfp::fuzz {
namespace {

std::uint64_t digest_counts(const sim::OpCountHooks& hooks) {
  return sim::fnv1a64(
      reinterpret_cast<const std::uint8_t*>(hooks.counts.data()),
      hooks.counts.size() * sizeof(hooks.counts[0]));
}

std::uint64_t digest_uart(const std::string& uart) {
  return sim::fnv1a64(reinterpret_cast<const std::uint8_t*>(uart.data()),
                      uart.size());
}

Snapshot take_snapshot(sim::Iss& iss) {
  Snapshot s;
  const sim::CpuState& cpu = iss.cpu();
  s.instret = cpu.instret;
  s.pc = cpu.pc;
  s.npc = cpu.npc;
  s.halted = cpu.halted;
  s.exit_code = cpu.exit_code;
  s.digest = sim::arch_digest(cpu, iss.bus());
  s.counts_digest = digest_counts(iss.counters());
  s.uart_digest = digest_uart(iss.bus().uart_output());
  return s;
}

// Runs one dispatch mode through the shared budget schedule, snapshotting
// after every chunk. A fault ends the trace early (the truncated trace then
// differs from kStep's, which is itself the divergence signal).
std::vector<Snapshot> run_mode(sim::Iss& iss, const asmkit::Program& program,
                               sim::Dispatch dispatch,
                               const std::vector<std::uint64_t>& stops) {
  std::vector<Snapshot> out;
  iss.load(program);
  for (const std::uint64_t stop : stops) {
    std::string fault;
    try {
      const std::uint64_t done = iss.cpu().instret;
      if (stop > done) iss.run(stop - done, dispatch);
    } catch (const std::exception& e) {
      fault = e.what();
    }
    out.push_back(take_snapshot(iss));
    out.back().fault = fault;
    if (!fault.empty()) break;
  }
  return out;
}

// Dispatch modes the snapshot arms rotate through, one per segment.
std::vector<sim::Dispatch> snapshot_rotation() {
  std::vector<sim::Dispatch> rota = {sim::Dispatch::kBlock,
                                     sim::Dispatch::kStep};
  if (sim::jit_available()) rota.push_back(sim::Dispatch::kJit);
  return rota;
}

// The durable-checkpoint arm: executes the same budget schedule, but at
// every stop the machine is serialized (sim/state_io.h) and restored into
// the OTHER half of a ping-pong executor pair, which continues the run.
// Dispatch rotates segment by segment so save/restore boundaries cut through
// warmed morph caches, chains, and jit translations in every mode; the
// restored executor re-warms from scratch and must still match the
// straight-through kStep reference at every checkpoint.
std::vector<Snapshot> run_snapshot_mode(
    sim::Iss& a, sim::Iss& b, const asmkit::Program& program,
    const std::vector<std::uint64_t>& stops) {
  const std::vector<sim::Dispatch> rota = snapshot_rotation();
  std::vector<Snapshot> out;
  sim::Iss* cur = &a;
  sim::Iss* other = &b;
  cur->load(program);
  std::size_t seg = 0;
  for (const std::uint64_t stop : stops) {
    std::string fault;
    try {
      const std::uint64_t done = cur->cpu().instret;
      if (stop > done) cur->run(stop - done, rota[seg % rota.size()]);
    } catch (const std::exception& e) {
      fault = e.what();
    }
    ++seg;
    out.push_back(take_snapshot(*cur));
    out.back().fault = fault;
    if (!fault.empty()) break;
    std::stringstream buf;
    cur->save_state(buf);
    other->restore_state(buf);
    std::swap(cur, other);
  }
  return out;
}

std::string describe_diff(const Snapshot& ref, const Snapshot& got) {
  std::ostringstream os;
  const auto field = [&os](const char* name, auto a, auto b) {
    os << name << " step=" << a << " got=" << b << "; ";
  };
  if (ref.instret != got.instret) field("instret", ref.instret, got.instret);
  if (ref.pc != got.pc) field("pc", ref.pc, got.pc);
  if (ref.npc != got.npc) field("npc", ref.npc, got.npc);
  if (ref.halted != got.halted) field("halted", ref.halted, got.halted);
  if (ref.exit_code != got.exit_code)
    field("exit_code", ref.exit_code, got.exit_code);
  if (ref.digest.cpu != got.digest.cpu)
    field("cpu-digest", ref.digest.cpu, got.digest.cpu);
  if (ref.digest.ram != got.digest.ram)
    field("ram-digest", ref.digest.ram, got.digest.ram);
  if (ref.counts_digest != got.counts_digest)
    field("retire-counts", ref.counts_digest, got.counts_digest);
  if (ref.uart_digest != got.uart_digest)
    field("uart", ref.uart_digest, got.uart_digest);
  if (ref.fault != got.fault) {
    os << "fault step='" << ref.fault << "' got='" << got.fault << "'; ";
  }
  return os.str();
}

bool compare_traces(const std::vector<Snapshot>& ref,
                    const std::vector<Snapshot>& got,
                    const std::vector<std::uint64_t>& stops,
                    const char* mode_name, DiffReport& report) {
  const std::size_t n = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ref[i] == got[i]) continue;
    std::ostringstream os;
    os << "dispatch " << mode_name << " vs step, checkpoint " << i
       << " (budget " << stops[i] << "): " << describe_diff(ref[i], got[i]);
    report.diverged = true;
    report.mode = mode_name;
    report.detail = os.str();
    return false;
  }
  if (ref.size() != got.size()) {
    std::ostringstream os;
    os << "dispatch " << mode_name << " vs step: trace truncated at "
       << got.size() << "/" << ref.size() << " checkpoints (fault: '"
       << (got.size() < ref.size() && !got.empty() ? got.back().fault
                                                   : std::string())
       << "')";
    report.diverged = true;
    report.mode = mode_name;
    report.detail = os.str();
    return false;
  }
  return true;
}

// ---- board step-vs-block cost differential --------------------------------

// One budget stop of one board dispatch mode: full architectural state plus
// the board's non-functional accounting. Energy is compared bit-for-bit via
// its IEEE-754 representation — the block-cost dispatch is required to
// reproduce the stepping path's float operation sequence exactly, not just
// approximately.
struct BoardSnapshot {
  std::uint64_t instret = 0;
  std::uint32_t pc = 0;
  std::uint32_t npc = 0;
  bool halted = false;
  std::uint64_t cycles = 0;
  std::uint64_t energy_bits = 0;
  std::uint64_t activity = 0;
  board::BoardStats stats;
  sim::ArchStateDigest digest{};
  std::uint64_t uart_digest = 0;
  std::string fault;

  bool operator==(const BoardSnapshot&) const = default;
};

BoardSnapshot take_board_snapshot(board::Board& brd) {
  BoardSnapshot s;
  const sim::CpuState& cpu = brd.cpu();
  s.instret = cpu.instret;
  s.pc = cpu.pc;
  s.npc = cpu.npc;
  s.halted = cpu.halted;
  s.cycles = brd.cycles();
  s.energy_bits = std::bit_cast<std::uint64_t>(brd.true_energy_nj());
  s.activity = brd.switching_activity();
  s.stats = brd.stats();
  s.digest = sim::arch_digest(cpu, brd.bus());
  s.uart_digest = digest_uart(brd.bus().uart_output());
  return s;
}

std::vector<BoardSnapshot> run_board_mode(
    board::Board& brd, const asmkit::Program& program, sim::Dispatch dispatch,
    const std::vector<std::uint64_t>& stops) {
  std::vector<BoardSnapshot> out;
  brd.load(program);
  for (const std::uint64_t stop : stops) {
    std::string fault;
    try {
      const std::uint64_t done = brd.cpu().instret;
      if (stop > done) brd.run(stop - done, dispatch);
    } catch (const std::exception& e) {
      fault = e.what();
    }
    out.push_back(take_board_snapshot(brd));
    out.back().fault = fault;
    if (!out.back().fault.empty()) break;
  }
  return out;
}

// Board flavour of the durable-checkpoint arm: snapshots carry the SDRAM
// open-row state, meter accumulators, and the activity LFSR, so the restored
// half's ground truth must stay bit-for-bit on the reference trajectory.
std::vector<BoardSnapshot> run_board_snapshot_mode(
    board::Board& a, board::Board& b, const asmkit::Program& program,
    const std::vector<std::uint64_t>& stops) {
  const std::vector<sim::Dispatch> rota = snapshot_rotation();
  std::vector<BoardSnapshot> out;
  board::Board* cur = &a;
  board::Board* other = &b;
  cur->load(program);
  std::size_t seg = 0;
  for (const std::uint64_t stop : stops) {
    std::string fault;
    try {
      const std::uint64_t done = cur->cpu().instret;
      if (stop > done) cur->run(stop - done, rota[seg % rota.size()]);
    } catch (const std::exception& e) {
      fault = e.what();
    }
    ++seg;
    out.push_back(take_board_snapshot(*cur));
    out.back().fault = fault;
    if (!fault.empty()) break;
    std::stringstream buf;
    cur->save_state(buf);
    other->restore_state(buf);
    std::swap(cur, other);
  }
  return out;
}

std::string describe_board_diff(const BoardSnapshot& ref,
                                const BoardSnapshot& got) {
  std::ostringstream os;
  const auto field = [&os](const char* name, auto a, auto b) {
    if (a != b) os << name << " step=" << a << " got=" << b << "; ";
  };
  field("instret", ref.instret, got.instret);
  field("pc", ref.pc, got.pc);
  field("npc", ref.npc, got.npc);
  field("halted", ref.halted, got.halted);
  field("cycles", ref.cycles, got.cycles);
  field("energy-bits", ref.energy_bits, got.energy_bits);
  field("activity", ref.activity, got.activity);
  field("loads", ref.stats.loads, got.stats.loads);
  field("stores", ref.stats.stores, got.stats.stores);
  field("row-misses", ref.stats.row_misses, got.stats.row_misses);
  field("cache-hits", ref.stats.cache_hits, got.stats.cache_hits);
  field("cache-misses", ref.stats.cache_misses, got.stats.cache_misses);
  field("branches-taken", ref.stats.branches_taken, got.stats.branches_taken);
  field("branches-untaken", ref.stats.branches_untaken,
        got.stats.branches_untaken);
  field("stall-cycles", ref.stats.stall_cycles, got.stats.stall_cycles);
  field("cpu-digest", ref.digest.cpu, got.digest.cpu);
  field("ram-digest", ref.digest.ram, got.digest.ram);
  field("uart", ref.uart_digest, got.uart_digest);
  if (ref.fault != got.fault) {
    os << "fault step='" << ref.fault << "' got='" << got.fault << "'; ";
  }
  return os.str();
}

bool compare_board_traces(const std::vector<BoardSnapshot>& ref,
                          const std::vector<BoardSnapshot>& got,
                          const std::vector<std::uint64_t>& stops,
                          const char* mode_name, DiffReport& report) {
  const std::size_t n = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ref[i] == got[i]) continue;
    std::ostringstream os;
    os << mode_name << " vs board step, checkpoint " << i << " (budget "
       << stops[i] << "): " << describe_board_diff(ref[i], got[i]);
    report.diverged = true;
    report.mode = mode_name;
    report.detail = os.str();
    return false;
  }
  if (ref.size() != got.size()) {
    std::ostringstream os;
    os << mode_name << " vs board step: trace truncated at " << got.size()
       << "/" << ref.size() << " checkpoints (fault: '"
       << (got.size() < ref.size() && !got.empty() ? got.back().fault
                                                   : std::string())
       << "')";
    report.diverged = true;
    report.mode = mode_name;
    report.detail = os.str();
    return false;
  }
  return true;
}

}  // namespace

DiffReport run_differential(const asmkit::Program& program,
                            const DiffConfig& config, DiffArena& arena) {
  DiffReport report;

  // Probe under kStep to learn the program's length, then rerun every mode
  // (including kStep itself) fresh through the shared checkpoint schedule.
  arena.step.load(program);
  sim::RunResult probe;
  try {
    probe = arena.step.run(config.max_insns, sim::Dispatch::kStep);
  } catch (const std::exception&) {
    // A program that faults deterministically is still a usable
    // differential: every mode must fault at the same instret with the
    // same state, which run_mode() captures per-snapshot below.
    probe.halted = false;
    probe.instret = arena.step.cpu().instret;
  }
  report.step_instret = probe.instret;
  report.step_halted = probe.halted;

  std::vector<std::uint64_t> stops;
  Rng rng(config.checkpoint_seed ^ 0xD1FFC0DEull);
  for (std::uint32_t i = 0; i < config.checkpoints; ++i) {
    if (probe.instret > 1) {
      stops.push_back(1 + rng.next() % (probe.instret - 1));
    }
  }
  stops.push_back(probe.instret);
  if (!probe.halted && probe.instret < config.max_insns) {
    // The probe faulted executing instruction instret+1: give every mode a
    // budget that reaches the faulting instruction so the fault itself
    // (message and restored state) is part of the comparison.
    stops.push_back(probe.instret + 1);
  }
  std::sort(stops.begin(), stops.end());
  stops.erase(std::unique(stops.begin(), stops.end()), stops.end());

  const std::vector<Snapshot> ref =
      run_mode(arena.step, program, sim::Dispatch::kStep, stops);
  const std::vector<Snapshot> chained =
      run_mode(arena.block, program, sim::Dispatch::kBlock, stops);
  if (!compare_traces(ref, chained, stops, "block", report)) return report;

  if (config.check_jit && sim::jit_available()) {
    const std::vector<Snapshot> jit =
        run_mode(arena.jit, program, sim::Dispatch::kJit, stops);
    if (!compare_traces(ref, jit, stops, "jit", report)) return report;
  }

  if (config.check_snapshot) {
    const std::vector<Snapshot> snap =
        run_snapshot_mode(arena.snap_a, arena.snap_b, program, stops);
    if (!compare_traces(ref, snap, stops, "snapshot", report)) return report;
  }

  const bool board_jit = config.check_board_jit && sim::jit_available();
  if (config.check_board || board_jit) {
    // Board phase last (it is the most expensive: more platforms, cost
    // accounting on). The same stop schedule applies: board streams match
    // the ISS streams instruction for instruction.
    const std::vector<BoardSnapshot> bref =
        run_board_mode(arena.board_step, program, sim::Dispatch::kStep, stops);
    if (config.check_board) {
      const std::vector<BoardSnapshot> bblk = run_board_mode(
          arena.board_block, program, sim::Dispatch::kBlock, stops);
      if (!compare_board_traces(bref, bblk, stops, "board-block", report)) {
        return report;
      }
    }
    if (board_jit) {
      const std::vector<BoardSnapshot> bjit = run_board_mode(
          arena.board_jit, program, sim::Dispatch::kJit, stops);
      if (!compare_board_traces(bref, bjit, stops, "board-jit", report)) {
        return report;
      }
    }
    if (config.check_snapshot && config.check_board) {
      const std::vector<BoardSnapshot> bsnap = run_board_snapshot_mode(
          arena.board_snap_a, arena.board_snap_b, program, stops);
      compare_board_traces(bref, bsnap, stops, "board-snapshot", report);
    }
  }
  return report;
}

DiffReport run_differential_source(const std::string& source,
                                   const DiffConfig& config, DiffArena& arena) {
  const asmkit::Program program = asmkit::assemble(source, sim::kTextBase);
  return run_differential(program, config, arena);
}

}  // namespace nfp::fuzz
