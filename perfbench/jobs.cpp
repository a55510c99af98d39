#include "jobs.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "codecs/sequence_gen.h"
#include "fse/image_gen.h"
#include "sim/memmap.h"

namespace nfpbench {
namespace {

using nfp::mcc::FloatAbi;
using Clock = std::chrono::steady_clock;

// workloads/kernels.cpp: the FSE kernels are 16 x 16 images, 48 iterations.
constexpr int kFseN = 16;

// Seed 0 keeps every generator seed of the library's campaign set; other
// seeds shift them all by a multiple of the 64-bit golden ratio.
std::uint64_t mix(std::uint64_t base, std::uint64_t seed) {
  return base + seed * 0x9E3779B97F4A7C15ull;
}

const char* abi_name(FloatAbi abi) {
  return abi == FloatAbi::kHard ? "float" : "fixed";
}

struct Stream {
  nfp::codec::EncodedStream stream;
  int seq = 0;
  std::vector<std::uint8_t> blob;
};

// The MVC streams in workloads::mvc_streams order (config, QP, sequence);
// `sequences` > 3 repeats the three sequence kinds with fresh seeds.
std::vector<Stream> make_streams(const nfp::workloads::MvcKernelParams& p,
                                 int sequences, std::uint64_t seed) {
  const nfp::codec::Config configs[] = {
      nfp::codec::Config::kIntra, nfp::codec::Config::kLowdelay,
      nfp::codec::Config::kLowdelayP, nfp::codec::Config::kRandomaccess};
  std::vector<Stream> out;
  for (const auto config : configs) {
    for (const int qp : p.qps) {
      for (int seq = 0; seq < sequences; ++seq) {
        const auto frames = nfp::codec::make_sequence(
            p.width, p.height, p.frames,
            static_cast<nfp::codec::SequenceKind>(seq % 3),
            mix(1000 + static_cast<std::uint64_t>(seq), seed));
        Stream s;
        s.stream =
            nfp::codec::encode(frames, p.width, p.height, qp, config).stream;
        s.seq = seq;
        s.blob = s.stream.to_input_blob();
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

void add_hevc_jobs(std::vector<Job>& jobs, const std::vector<Stream>& streams,
                   FloatAbi abi, const nfp::asmkit::Program& program) {
  for (const Stream& s : streams) {
    Job job;
    job.name = std::string("hevc/") + nfp::codec::to_string(s.stream.config) +
               "/qp" + std::to_string(s.stream.qp) + "/seq" +
               std::to_string(s.seq) + "/" + abi_name(abi);
    job.group = std::string("hevc-") + abi_name(abi);
    job.kind = Kind::kHevc;
    job.program = &program;
    job.input = s.blob;
    job.stream = s.stream;
    jobs.push_back(std::move(job));
  }
}

void add_fse_jobs(std::vector<Job>& jobs,
                  const std::vector<nfp::workloads::FseKernelData>& data,
                  const std::vector<std::vector<std::uint8_t>>& blobs,
                  FloatAbi abi, const nfp::asmkit::Program& program) {
  for (std::size_t k = 0; k < data.size(); ++k) {
    Job job;
    job.name = "fse/img" + std::to_string(k) + "/" + abi_name(abi);
    job.group = std::string("fse-") + abi_name(abi);
    job.kind = Kind::kFse;
    job.program = &program;
    job.input = blobs[k];
    job.fse = data[k];
    jobs.push_back(std::move(job));
  }
}

// The paper's Sec. VI set in nfpd --campaign order: per ABI (float, then
// fixed), the 36 MVC/HEVC kernels and then the 24 FSE kernels.
void make_campaign(Workload& w, std::uint64_t seed) {
  w.inputs.start = Clock::now();
  const nfp::workloads::MvcKernelParams mvc;
  const nfp::workloads::FseKernelParams fse;
  const auto streams = make_streams(mvc, 3, seed);
  std::vector<nfp::workloads::FseKernelData> data;
  std::vector<std::vector<std::uint8_t>> blobs;
  for (int k = 0; k < fse.count; ++k) {
    const std::uint64_t s = mix(42 + static_cast<std::uint64_t>(k), seed);
    nfp::workloads::FseKernelData d;
    d.signal = nfp::fse::make_image(kFseN, s);
    d.mask = nfp::fse::make_mask(kFseN, s,
                                 static_cast<nfp::fse::MaskKind>(k % 3));
    // FSE operates on the distorted signal: missing samples zeroed.
    for (std::size_t i = 0; i < d.signal.size(); ++i) {
      if (d.mask[i]) d.signal[i] = 0.0;
    }
    blobs.push_back(nfp::workloads::fse_input_blob(d.signal, d.mask,
                                                   fse.iterations, fse.rho));
    data.push_back(std::move(d));
  }
  w.inputs.end = Clock::now();

  w.compile.start = Clock::now();
  const FloatAbi abis[] = {FloatAbi::kHard, FloatAbi::kSoft};
  const nfp::asmkit::Program* mvc_prog[2];
  const nfp::asmkit::Program* fse_prog[2];
  for (int a = 0; a < 2; ++a) {
    mvc_prog[a] = &nfp::workloads::mvc_program(abis[a]);
    fse_prog[a] = &nfp::workloads::fse_program(abis[a]);
  }
  w.compile.end = Clock::now();

  for (int a = 0; a < 2; ++a) {
    add_hevc_jobs(w.jobs, streams, abis[a], *mvc_prog[a]);
    add_fse_jobs(w.jobs, data, blobs, abis[a], *fse_prog[a]);
  }
}

// Preemption workload: integer (fixed-ABI) HEVC decodes of shorter streams,
// nine sequences per configuration and QP, each job sliced every
// kPreemptSlice retired instructions.
constexpr int kPreemptSequences = 9;
constexpr int kPreemptFrames = 2;
constexpr std::uint64_t kPreemptSlice = 500'000;

void make_preempt(Workload& w, std::uint64_t seed) {
  w.inputs.start = Clock::now();
  nfp::workloads::MvcKernelParams mvc;
  mvc.frames = kPreemptFrames;
  const auto streams = make_streams(mvc, kPreemptSequences, seed);
  w.inputs.end = Clock::now();

  w.compile.start = Clock::now();
  const auto& program = nfp::workloads::mvc_program(FloatAbi::kSoft);
  w.compile.end = Clock::now();

  add_hevc_jobs(w.jobs, streams, FloatAbi::kSoft, program);
  w.slice_insns = kPreemptSlice;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

const std::vector<std::string>& groups() {
  static const std::vector<std::string> g = {"hevc-float", "hevc-fixed",
                                             "fse-float", "fse-fixed"};
  return g;
}

bool known_workload(const std::string& name) {
  return name == "campaign" || name == "iss_estimate" || name == "preempt";
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "campaign" || name == "iss_estimate") {
    make_campaign(w, seed);
    w.board = name == "campaign";
  } else if (name == "preempt") {
    make_preempt(w, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

bool matches_library_campaign(const Workload& w) {
  std::vector<nfp::model::KernelJob> lib;
  for (const auto abi : {FloatAbi::kHard, FloatAbi::kSoft}) {
    for (auto& j : nfp::workloads::make_mvc_jobs(abi)) lib.push_back(j);
    for (auto& j : nfp::workloads::make_fse_jobs(abi)) lib.push_back(j);
  }
  if (lib.size() != w.jobs.size()) return false;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const Job& job = w.jobs[i];
    if (lib[i].name != job.name || lib[i].inputs.size() != 1 ||
        lib[i].inputs[0].first != nfp::sim::kInputBase ||
        lib[i].inputs[0].second != job.input ||
        lib[i].program.bytes() != job.program->bytes()) {
      return false;
    }
  }
  return true;
}

Output read_output(nfp::sim::Bus& bus, const Job& job) {
  Output out;
  if (job.kind == Kind::kHevc) {
    const std::uint32_t bytes = static_cast<std::uint32_t>(
        job.stream.width * job.stream.height * job.stream.frames);
    out.bytes = bus.read_block(nfp::sim::kOutputBase, bytes);
    // The decoder's statistics double follows the frames, 8-aligned.
    out.values.push_back(
        bus.read_f64(nfp::sim::kOutputBase + ((bytes + 7u) & ~7u)));
  } else {
    for (int i = 0; i < kFseN * kFseN; ++i) {
      out.values.push_back(bus.read_f64(nfp::sim::kOutputBase +
                                        8 * static_cast<std::uint32_t>(i)));
    }
  }
  return out;
}

Output golden_output(const Job& job) {
  Output out;
  if (job.kind == Kind::kHevc) {
    const auto golden = nfp::codec::golden_decode(job.stream);
    if (golden.status != 0) {
      throw std::runtime_error("golden decoder refused " + job.name);
    }
    for (const auto& frame : golden.frames) {
      out.bytes.insert(out.bytes.end(), frame.begin(), frame.end());
    }
    out.values.push_back(golden.rms_activity);
  } else {
    // The blob header carries the iteration count; rho follows the pad word.
    const std::uint32_t iterations = load_be32(job.input.data() + 8);
    std::uint64_t bits = (std::uint64_t{load_be32(job.input.data() + 16)}
                          << 32) |
                         load_be32(job.input.data() + 20);
    double rho = 0.0;
    std::memcpy(&rho, &bits, sizeof rho);
    out.values = nfp::workloads::fse_golden(
        job.fse.signal, job.fse.mask, static_cast<int>(iterations), rho);
  }
  return out;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    u64(bits);
  }
};

}  // namespace

std::uint64_t digest(const std::vector<JobResult>& results) {
  Fnv f;
  for (const JobResult& r : results) {
    const auto& rec = r.rec;
    f.bytes(rec.name.data(), rec.name.size());
    f.u64(rec.ok);
    f.u64(rec.exit_code);
    f.u64(rec.instret);
    for (const std::uint64_t c : rec.counts) f.u64(c);
    f.f64(r.estimate.energy_nj);
    f.f64(r.estimate.time_s);
    if (r.board) {
      f.u64(rec.cycles);
      f.f64(rec.true_energy_nj);
      f.f64(rec.true_time_s);
      f.f64(rec.measured.energy_nj);
      f.f64(rec.measured.time_s);
      for (const std::uint64_t e : rec.events.v) f.u64(e);
    }
  }
  return f.h;
}

}  // namespace nfpbench
