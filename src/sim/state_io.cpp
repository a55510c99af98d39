#include "sim/state_io.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "sim/digest.h"
#include "sim/memmap.h"
#include "sim/platform.h"

namespace nfp::sim {
namespace {

constexpr std::uint8_t kMagic[4] = {'N', 'F', 'P', 'S'};
constexpr std::size_t kChunkHeaderSize = 4 + 8 + 8;  // tag, size, checksum

std::string tag_name(std::uint32_t tag) {
  std::string s;
  for (int shift = 0; shift < 32; shift += 8) {
    const char c = static_cast<char>((tag >> shift) & 0xFF);
    s += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s;
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_u32(out, static_cast<std::uint32_t>(v));
  append_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return std::uint64_t{read_u32(p)} | (std::uint64_t{read_u32(p + 4)} << 32);
}

}  // namespace

const char* state_error_code_name(StateErrorCode code) {
  switch (code) {
    case StateErrorCode::kTruncated: return "truncated";
    case StateErrorCode::kBadMagic: return "bad-magic";
    case StateErrorCode::kBadVersion: return "bad-version";
    case StateErrorCode::kBadChecksum: return "bad-checksum";
    case StateErrorCode::kUnknownChunk: return "unknown-chunk";
    case StateErrorCode::kDuplicateChunk: return "duplicate-chunk";
    case StateErrorCode::kTrailingData: return "trailing-data";
    case StateErrorCode::kMissingChunk: return "missing-chunk";
    case StateErrorCode::kBadPayload: return "bad-payload";
    case StateErrorCode::kConfigMismatch: return "config-mismatch";
    case StateErrorCode::kIo: return "io";
  }
  return "unknown";
}

// ---- StateWriter -----------------------------------------------------------

StateWriter::StateWriter() {
  buf_.insert(buf_.end(), kMagic, kMagic + 4);
  append_u32(buf_, kStateVersion);
}

void StateWriter::begin_chunk(std::uint32_t tag) {
  if (in_chunk_) {
    throw StateError(StateErrorCode::kIo, "begin_chunk inside a chunk");
  }
  in_chunk_ = true;
  chunk_tag_ = tag;
  chunk_.clear();
}

void StateWriter::end_chunk() {
  if (!in_chunk_) {
    throw StateError(StateErrorCode::kIo, "end_chunk outside a chunk");
  }
  append_u32(buf_, chunk_tag_);
  append_u64(buf_, chunk_.size());
  append_u64(buf_, fnv1a64(chunk_.data(), chunk_.size()));
  buf_.insert(buf_.end(), chunk_.begin(), chunk_.end());
  in_chunk_ = false;
}

void StateWriter::put_u8(std::uint8_t v) { chunk_.push_back(v); }
void StateWriter::put_u32(std::uint32_t v) { append_u32(chunk_, v); }
void StateWriter::put_u64(std::uint64_t v) { append_u64(chunk_, v); }
void StateWriter::put_f64(double v) {
  append_u64(chunk_, std::bit_cast<std::uint64_t>(v));
}

void StateWriter::put_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  chunk_.insert(chunk_.end(), p, p + size);
}

void StateWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void StateWriter::finish(std::ostream& out) {
  if (in_chunk_) {
    throw StateError(StateErrorCode::kIo, "finish inside an open chunk");
  }
  append_u32(buf_, kChunkEnd);
  append_u64(buf_, 0);
  append_u64(buf_, kFnvOffset);  // checksum of the empty payload
  out.write(reinterpret_cast<const char*>(buf_.data()),
            static_cast<std::streamsize>(buf_.size()));
  if (!out) {
    throw StateError(StateErrorCode::kIo, "stream write failed");
  }
}

// ---- StateReader -----------------------------------------------------------

StateReader::StateReader(std::istream& in,
                         const std::vector<std::uint32_t>& accepted) {
  std::vector<std::uint8_t> data;
  {
    char block[4096];
    while (in.read(block, sizeof(block)) || in.gcount() > 0) {
      data.insert(data.end(), block, block + in.gcount());
      if (in.eof()) break;
    }
  }
  if (data.size() < 8) {
    throw StateError(StateErrorCode::kTruncated,
                     "file shorter than the 8-byte header");
  }
  if (std::memcmp(data.data(), kMagic, 4) != 0) {
    throw StateError(StateErrorCode::kBadMagic, "not a snapshot file");
  }
  const std::uint32_t version = read_u32(data.data() + 4);
  if (version != kStateVersion) {
    throw StateError(StateErrorCode::kBadVersion,
                     "snapshot version " + std::to_string(version) +
                         ", this build reads version " +
                         std::to_string(kStateVersion));
  }

  std::size_t pos = 8;
  bool saw_end = false;
  while (pos < data.size()) {
    if (data.size() - pos < kChunkHeaderSize) {
      throw StateError(StateErrorCode::kTruncated,
                       "stream ends inside a chunk header");
    }
    const std::uint32_t tag = read_u32(data.data() + pos);
    const std::uint64_t size = read_u64(data.data() + pos + 4);
    const std::uint64_t checksum = read_u64(data.data() + pos + 12);
    pos += kChunkHeaderSize;
    if (tag == kChunkEnd) {
      if (size != 0 || checksum != kFnvOffset) {
        throw StateError(StateErrorCode::kBadPayload,
                         "end marker carries a payload");
      }
      saw_end = true;
      if (pos != data.size()) {
        throw StateError(StateErrorCode::kTrailingData,
                         std::to_string(data.size() - pos) +
                             " bytes after the end marker");
      }
      break;
    }
    if (size > data.size() - pos) {
      throw StateError(StateErrorCode::kTruncated,
                       "stream ends inside chunk " + tag_name(tag));
    }
    const std::uint8_t* payload = data.data() + pos;
    pos += size;
    if (fnv1a64(payload, size) != checksum) {
      throw StateError(StateErrorCode::kBadChecksum,
                       "chunk " + tag_name(tag) + " is corrupt");
    }
    bool known = false;
    for (const std::uint32_t a : accepted) known = known || a == tag;
    if (!known) {
      throw StateError(StateErrorCode::kUnknownChunk,
                       "this target does not accept chunk " + tag_name(tag));
    }
    for (const Chunk& c : chunks_) {
      if (c.tag == tag) {
        throw StateError(StateErrorCode::kDuplicateChunk,
                         "chunk " + tag_name(tag) + " appears twice");
      }
    }
    chunks_.push_back(
        Chunk{tag, std::vector<std::uint8_t>(payload, payload + size)});
  }
  if (!saw_end) {
    throw StateError(StateErrorCode::kTruncated, "no end marker");
  }
}

bool StateReader::has(std::uint32_t tag) const {
  for (const Chunk& c : chunks_) {
    if (c.tag == tag) return true;
  }
  return false;
}

const std::vector<std::uint8_t>& StateReader::payload(
    std::uint32_t tag) const {
  for (const Chunk& c : chunks_) {
    if (c.tag == tag) return c.payload;
  }
  throw StateError(StateErrorCode::kMissingChunk,
                   "snapshot has no chunk " + tag_name(tag));
}

// ---- ChunkCursor -----------------------------------------------------------

void ChunkCursor::need(std::size_t n) const {
  if (static_cast<std::size_t>(end_ - p_) < n) {
    throw StateError(StateErrorCode::kBadPayload,
                     "chunk payload shorter than its contents claim");
  }
}

std::uint8_t ChunkCursor::get_u8() {
  need(1);
  return *p_++;
}

std::uint32_t ChunkCursor::get_u32() {
  need(4);
  const std::uint32_t v = read_u32(p_);
  p_ += 4;
  return v;
}

std::uint64_t ChunkCursor::get_u64() {
  need(8);
  const std::uint64_t v = read_u64(p_);
  p_ += 8;
  return v;
}

double ChunkCursor::get_f64() { return std::bit_cast<double>(get_u64()); }

void ChunkCursor::get_bytes(void* dst, std::size_t size) {
  need(size);
  std::memcpy(dst, p_, size);
  p_ += size;
}

std::string ChunkCursor::get_string() {
  const std::uint32_t len = get_u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(p_), len);
  p_ += len;
  return s;
}

void ChunkCursor::done() const {
  if (p_ != end_) {
    throw StateError(StateErrorCode::kBadPayload,
                     "chunk payload has trailing bytes");
  }
}

// ---- platform chunks -------------------------------------------------------

std::vector<std::uint32_t> platform_chunk_tags() {
  return {kChunkCpu, kChunkProgram, kChunkRam, kChunkUart};
}

void append_platform_chunks(StateWriter& w, const Platform& p) {
  const CpuState& cpu = p.cpu();
  w.begin_chunk(kChunkCpu);
  for (const std::uint32_t r : cpu.r) w.put_u32(r);
  for (const std::uint32_t f : cpu.f) w.put_u32(f);
  w.put_u32(cpu.pc);
  w.put_u32(cpu.npc);
  w.put_u32(cpu.y);
  w.put_u8(static_cast<std::uint8_t>((cpu.icc_n << 3) | (cpu.icc_z << 2) |
                                     (cpu.icc_v << 1) |
                                     static_cast<int>(cpu.icc_c)));
  w.put_u8(cpu.fcc);
  w.put_u8(cpu.halted ? 1 : 0);
  w.put_u64(cpu.instret);
  w.put_u32(cpu.exit_code);
  w.end_chunk();

  const asmkit::Program& prog = p.loaded_program();
  w.begin_chunk(kChunkProgram);
  w.put_u32(prog.base());
  w.put_u32(prog.entry());
  w.put_u32(prog.text_size());
  w.put_u32(prog.size());
  w.put_bytes(prog.bytes().data(), prog.bytes().size());
  w.put_u32(static_cast<std::uint32_t>(prog.symbols().size()));
  for (const auto& [name, addr] : prog.symbols()) {
    w.put_string(name);
    w.put_u32(addr);
  }
  w.end_chunk();

  const Bus& bus = p.bus();
  const auto& touched = bus.touched_pages();
  const std::uint32_t page = bus.page_size();
  std::uint32_t dirty = 0;
  for (const std::uint8_t t : touched) dirty += t ? 1 : 0;
  w.begin_chunk(kChunkRam);
  w.put_u32(page);
  w.put_u32(dirty);
  for (std::uint32_t i = 0; i < touched.size(); ++i) {
    if (!touched[i]) continue;
    w.put_u32(i);
    w.put_bytes(bus.ram_data() + std::size_t{i} * page, page);
  }
  w.end_chunk();

  w.begin_chunk(kChunkUart);
  w.put_string(bus.uart_output());
  w.end_chunk();
}

void apply_platform_chunks(const StateReader& r, Platform& p) {
  // Decode phase: everything lands in locals; any throw leaves `p` untouched.
  CpuState cpu;
  {
    ChunkCursor c(r.payload(kChunkCpu));
    for (std::uint32_t& reg : cpu.r) reg = c.get_u32();
    for (std::uint32_t& reg : cpu.f) reg = c.get_u32();
    cpu.pc = c.get_u32();
    cpu.npc = c.get_u32();
    cpu.y = c.get_u32();
    const std::uint8_t icc = c.get_u8();
    if (icc & ~0x0Fu) {
      throw StateError(StateErrorCode::kBadPayload, "icc bits out of range");
    }
    cpu.icc_n = (icc & 8) != 0;
    cpu.icc_z = (icc & 4) != 0;
    cpu.icc_v = (icc & 2) != 0;
    cpu.icc_c = (icc & 1) != 0;
    cpu.fcc = c.get_u8();
    if (cpu.fcc > 3) {
      throw StateError(StateErrorCode::kBadPayload, "fcc out of range");
    }
    cpu.halted = c.get_u8() != 0;
    cpu.instret = c.get_u64();
    cpu.exit_code = c.get_u32();
    c.done();
  }

  asmkit::Program prog;
  {
    ChunkCursor c(r.payload(kChunkProgram));
    const std::uint32_t base = c.get_u32();
    const std::uint32_t entry = c.get_u32();
    const std::uint32_t text = c.get_u32();
    const std::uint32_t size = c.get_u32();
    if (base < kRamBase || std::uint64_t{base} + size > kRamEnd) {
      throw StateError(StateErrorCode::kBadPayload,
                       "program image does not fit in RAM");
    }
    std::vector<std::uint8_t> bytes(size);
    c.get_bytes(bytes.data(), bytes.size());
    prog = asmkit::Program(base, std::move(bytes));
    prog.set_entry(entry);
    if (text > size) {
      throw StateError(StateErrorCode::kBadPayload,
                       "text section larger than the image");
    }
    prog.set_text_size(text);
    const std::uint32_t nsyms = c.get_u32();
    for (std::uint32_t i = 0; i < nsyms; ++i) {
      const std::string name = c.get_string();
      prog.define_symbol(name, c.get_u32());
    }
    c.done();
  }

  struct Page {
    std::uint32_t index;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Page> pages;
  {
    ChunkCursor c(r.payload(kChunkRam));
    const std::uint32_t page = c.get_u32();
    if (page != p.bus().page_size()) {
      throw StateError(StateErrorCode::kBadPayload,
                       "dirty-page granule is " + std::to_string(page) +
                           " bytes, this build uses " +
                           std::to_string(p.bus().page_size()));
    }
    const std::uint32_t count = c.get_u32();
    const std::uint32_t npages = kRamSize / page;
    pages.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Page pg;
      pg.index = c.get_u32();
      if (pg.index >= npages ||
          (!pages.empty() && pg.index <= pages.back().index)) {
        throw StateError(StateErrorCode::kBadPayload,
                         "dirty pages out of order or out of range");
      }
      pg.bytes.resize(page);
      c.get_bytes(pg.bytes.data(), page);
      pages.push_back(std::move(pg));
    }
    c.done();
  }

  std::string uart;
  {
    ChunkCursor c(r.payload(kChunkUart));
    uart = c.get_string();
    c.done();
  }

  // Apply phase: the image comes from the snapshot's dirty pages, which
  // include every self-modified code word, so the installed image matches
  // the snapshot's RAM exactly.
  p.install(std::move(prog), [&] {
    for (const Page& pg : pages) {
      p.bus_.write_block(kRamBase + pg.index * p.bus_.page_size(),
                         pg.bytes.data(), pg.bytes.size());
    }
  });
  p.bus_.set_uart_output(std::move(uart));
  p.cpu_ = cpu;
}

void save_state(std::ostream& out, const Platform& p) {
  StateWriter w;
  append_platform_chunks(w, p);
  w.finish(out);
}

void restore_state(std::istream& in, Platform& p) {
  const StateReader r(in, platform_chunk_tags());
  apply_platform_chunks(r, p);
}

}  // namespace nfp::sim
