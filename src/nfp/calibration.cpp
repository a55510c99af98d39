#include "nfp/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "asmkit/assembler.h"
#include "nfp/campaign.h"
#include "sim/memmap.h"

namespace nfp::model {
namespace {

// A recipe produces the i-th tested instruction line of a category's test
// kernel body.
struct Recipe {
  bool uses_fpu = false;
  bool uses_muldiv = false;
  std::function<std::string(std::uint32_t i)> line;
};

std::string rotate(std::initializer_list<const char*> lines,
                   std::uint32_t i) {
  return *(lines.begin() + (i % lines.size()));
}

std::string format(const char* fmt, std::uint32_t value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, fmt, value);
  return buf;
}

Recipe recipe_for(const std::string& category) {
  if (category == "Integer Arithmetic") {
    return {false, false, [](std::uint32_t i) {
              return rotate({"add %l1, %l2, %l5", "xor %l2, %l3, %l6",
                             "sub %l3, %l4, %l5", "and %l4, %l1, %l6",
                             "sll %l1, 3, %l5", "or %l2, %l4, %l6"},
                            i);
            }};
  }
  if (category == "Integer") {  // coarse: mul/div folded in
    return {false, true, [](std::uint32_t i) {
              return rotate({"add %l1, %l2, %l5", "xor %l2, %l3, %l6",
                             "sub %l3, %l4, %l5", "and %l4, %l1, %l6",
                             "sll %l1, 3, %l5", "or %l2, %l4, %l6",
                             "umul %l1, %l3, %l5", "udiv %l3, %l2, %l6"},
                            i);
            }};
  }
  if (category == "Integer Multiply") {
    return {false, true, [](std::uint32_t i) {
              return rotate({"umul %l1, %l2, %l5", "smul %l2, %l3, %l6",
                             "umul %l3, %l4, %l5", "smul %l4, %l1, %l6"},
                            i);
            }};
  }
  if (category == "Integer Divide") {
    return {false, true, [](std::uint32_t i) {
              return rotate({"udiv %l1, %l2, %l5", "sdiv %l3, %l4, %l6",
                             "udiv %l3, %l2, %l5", "sdiv %l1, %l4, %l6"},
                            i);
            }};
  }
  if (category == "Jump") {
    // Chains of always-taken annulled branches: each executes exactly once
    // per loop iteration and contributes nothing but the jump itself.
    return {false, false, [](std::uint32_t i) {
              const std::string label = "Lcal" + std::to_string(i);
              return "ba,a " + label + "\n" + label + ":";
            }};
  }
  if (category == "Memory Load" || category == "Load") {
    return {false, false, [](std::uint32_t i) {
              return format("ld [%%g1+%u], %%l5", (i * 4) % 512);
            }};
  }
  if (category == "Memory Store" || category == "Store") {
    return {false, false, [](std::uint32_t i) {
              return format("st %%l1, [%%g1+%u]", (i * 4) % 512);
            }};
  }
  if (category == "Memory Double") {
    return {false, false, [](std::uint32_t i) {
              if (i % 2 == 0) return format("ldd [%%g1+%u], %%l6", (i * 8) % 256);
              return format("std %%l6, [%%g1+%u]", (i * 8) % 256);
            }};
  }
  if (category == "NOP") {
    return {false, false, [](std::uint32_t) { return std::string("nop"); }};
  }
  if (category == "Other") {
    return {false, false, [](std::uint32_t i) {
              if (i % 2 == 1) return std::string("nop");  // coarse folds NOPs
              const std::uint32_t value =
                  (0x12345u + i * 0x1111u) << 10;
              return format("sethi %%hi(0x%08x), %%l5", value & 0xFFFFFC00u);
            }};
  }
  if (category == "FPU Arithmetic") {
    return {true, false, [](std::uint32_t i) {
              return rotate({"faddd %f0, %f2, %f10", "fmuld %f2, %f4, %f12",
                             "fsubd %f4, %f6, %f10", "faddd %f6, %f8, %f12",
                             "fmuld %f0, %f6, %f10"},
                            i);
            }};
  }
  if (category == "FPU Divide") {
    return {true, false, [](std::uint32_t i) {
              return rotate({"fdivd %f0, %f2, %f10", "fdivd %f2, %f4, %f12",
                             "fdivd %f4, %f6, %f10", "fdivd %f6, %f8, %f12"},
                            i);
            }};
  }
  if (category == "FPU Square root") {
    return {true, false, [](std::uint32_t i) {
              return rotate({"fsqrtd %f0, %f10", "fsqrtd %f2, %f12",
                             "fsqrtd %f4, %f10", "fsqrtd %f6, %f12"},
                            i);
            }};
  }
  if (category == "FPU Convert/Compare") {
    return {true, false, [](std::uint32_t i) {
              return rotate({"fcmpd %f0, %f2", "fitod %f14, %f10",
                             "fdtoi %f2, %f12", "fcmpd %f4, %f6"},
                            i);
            }};
  }
  if (category == "FPU") {  // coarse: everything FP in one bucket
    return {true, false, [](std::uint32_t i) {
              switch (i % 8) {
                case 5: return std::string("fdivd %f0, %f2, %f10");
                case 6: return std::string("fsqrtd %f4, %f12");
                case 7: return std::string("fcmpd %f0, %f2");
                default:
                  return rotate({"faddd %f0, %f2, %f10",
                                 "fmuld %f2, %f4, %f12",
                                 "fsubd %f4, %f6, %f10",
                                 "faddd %f6, %f8, %f12",
                                 "fmuld %f0, %f6, %f10"},
                                i);
              }
            }};
  }
  throw std::invalid_argument("no calibration recipe for category '" +
                              category + "'");
}

// Shared kernel skeleton (Table II): identical prologue and loop scaffold in
// the reference and test kernels; the test body is the only difference.
std::string make_source(const Recipe& recipe, std::uint32_t loops,
                        std::uint32_t per_loop, bool with_body) {
  std::string src;
  src += "_start:\n";
  src += "        set idata, %g1\n";
  src += "        set 0x13572468, %l1\n";
  src += "        set 0x0F0F1234, %l2\n";
  src += "        set 0x00A5C3E4, %l3\n";
  src += "        set 0x76543210, %l4\n";
  src += "        wr %g0, 0, %y\n";
  if (recipe.uses_fpu) {
    src += "        set fdata, %g2\n";
    src += "        lddf [%g2], %f0\n";
    src += "        lddf [%g2+8], %f2\n";
    src += "        lddf [%g2+16], %f4\n";
    src += "        lddf [%g2+24], %f6\n";
    src += "        lddf [%g2+32], %f8\n";
    src += "        ldf [%g2+40], %f14\n";
  }
  src += format("        set %u, %%l0\n", loops);
  src += "loop:\n";
  if (with_body) {
    for (std::uint32_t i = 0; i < per_loop; ++i) {
      src += "        " + recipe.line(i) + "\n";
    }
  }
  src += "        subcc %l0, 1, %l0\n";
  src += "        bne loop\n";
  src += "        nop\n";
  src += "        mov 0, %o0\n";
  src += "        ta 0\n";
  src += "        .data\n";
  src += "        .align 8\n";
  if (recipe.uses_fpu) {
    src += "fdata:  .double 1.5, 2.25, 3.125, 0.78125, 1.0009765625\n";
    src += "        .word 123456, 0\n";
  }
  src += "idata:\n";
  // Pseudo-random payload for the load/store kernels (varied bit patterns,
  // as typical application data would have).
  std::uint32_t x = 0x2545F491u;
  for (int i = 0; i < 128; i += 4) {
    x ^= x << 13; x ^= x >> 17; x ^= x << 5;
    const std::uint32_t a = x;
    x ^= x << 13; x ^= x >> 17; x ^= x << 5;
    const std::uint32_t b = x;
    x ^= x << 13; x ^= x >> 17; x ^= x << 5;
    const std::uint32_t c = x;
    x ^= x << 13; x ^= x >> 17; x ^= x << 5;
    src += format("        .word 0x%08x, ", a) + format("0x%08x, ", b) +
           format("0x%08x, ", c) + format("0x%08x\n", x);
  }
  return src;
}

bool calibratable(const Recipe& recipe, const board::BoardConfig& cfg) {
  return (!recipe.uses_fpu || cfg.has_fpu) &&
         (!recipe.uses_muldiv || cfg.has_hw_muldiv);
}

KernelPair make_pair(const std::string& category, const Recipe& recipe,
                     const CalibrationPlan& plan) {
  KernelPair pair;
  pair.category = category;
  pair.ref_asm = make_source(recipe, plan.loops, plan.per_loop, false);
  pair.test_asm = make_source(recipe, plan.loops, plan.per_loop, true);
  pair.n_test = std::uint64_t{plan.loops} * plan.per_loop;
  return pair;
}

// Runs the reference and test kernel of every pair as one campaign, each
// job named by its meter tag "cal/<category>/ref|test". Record 2·i is the
// reference run of pairs[i], record 2·i + 1 its test run.
std::vector<KernelRunRecord> measure_pairs(const std::vector<KernelPair>& pairs,
                                           const board::BoardConfig& cfg) {
  std::vector<KernelJob> jobs;
  for (const KernelPair& pair : pairs) {
    for (const bool is_test : {false, true}) {
      KernelJob job;
      job.name = "cal/" + pair.category + (is_test ? "/test" : "/ref");
      job.program = asmkit::assemble(is_test ? pair.test_asm : pair.ref_asm,
                                     sim::kTextBase);
      jobs.push_back(std::move(job));
    }
  }
  std::vector<KernelRunRecord> records = Campaign(cfg).run(jobs);
  for (const KernelRunRecord& rec : records) {
    if (!rec.ok) {
      throw std::runtime_error("calibration kernel " + rec.name + ": " +
                               rec.error);
    }
  }
  return records;
}

// Ridge-regularized least squares over the calibration samples, solved via
// column-scaled normal equations with Gaussian elimination (partial
// pivoting). All-zero feature columns (e.g. cache counters on a cache-less
// board, FPU categories on an FPU-less one) are pruned and get coefficient
// 0; the tiny relative ridge keeps collinear counter pairs (stall cycles
// are exactly row_misses * row_miss_cycles) deterministic without
// disturbing well-identified terms. No external solver dependency.
std::vector<double> fit_least_squares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& targets) {
  const std::size_t n = rows.size();
  const std::size_t k = n == 0 ? 0 : rows[0].size();
  std::vector<double> coeff(k, 0.0);
  if (n == 0 || k == 0) return coeff;

  // Column scales (max |x|): normalizes the wildly different magnitudes of
  // count columns (~1e7) and intercept/time columns (~1).
  std::vector<double> scale(k, 0.0);
  for (const auto& row : rows) {
    for (std::size_t j = 0; j < k; ++j) {
      scale[j] = std::max(scale[j], std::abs(row[j]));
    }
  }
  std::vector<std::size_t> active;
  for (std::size_t j = 0; j < k; ++j) {
    if (scale[j] > 0.0) active.push_back(j);
  }
  const std::size_t m = active.size();
  if (m == 0) return coeff;

  // Normal equations A = XᵀX + λI, b = Xᵀy over the scaled active columns.
  std::vector<double> a(m * m, 0.0);
  std::vector<double> b(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < m; ++p) {
      const double xp = rows[i][active[p]] / scale[active[p]];
      b[p] += xp * targets[i];
      for (std::size_t q = p; q < m; ++q) {
        a[p * m + q] += xp * rows[i][active[q]] / scale[active[q]];
      }
    }
  }
  double trace = 0.0;
  for (std::size_t p = 0; p < m; ++p) trace += a[p * m + p];
  const double ridge = 1e-8 * (trace / static_cast<double>(m));
  for (std::size_t p = 0; p < m; ++p) {
    a[p * m + p] += ridge;
    for (std::size_t q = 0; q < p; ++q) a[p * m + q] = a[q * m + p];
  }

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::abs(a[r * m + col]) > std::abs(a[pivot * m + col])) pivot = r;
    }
    if (a[pivot * m + col] == 0.0) continue;  // ridge makes this unreachable
    if (pivot != col) {
      for (std::size_t j = 0; j < m; ++j) {
        std::swap(a[col * m + j], a[pivot * m + j]);
      }
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < m; ++r) {
      const double f = a[r * m + col] / a[col * m + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < m; ++j) a[r * m + j] -= f * a[col * m + j];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> w(m, 0.0);
  for (std::size_t r = m; r-- > 0;) {
    double acc = b[r];
    for (std::size_t j = r + 1; j < m; ++j) acc -= a[r * m + j] * w[j];
    w[r] = a[r * m + r] != 0.0 ? acc / a[r * m + r] : 0.0;
  }
  for (std::size_t p = 0; p < m; ++p) {
    coeff[active[p]] = w[p] / scale[active[p]];
  }
  return coeff;
}

// Eq. 2 over the categories of `scheme`: one ref/test pair per category
// the board can run, e_c and t_c from each pair's energy and time deltas.
SchemeCalibration calibrate_eq2(const CategoryScheme& scheme,
                                const CalibrationPlan& plan,
                                const board::BoardConfig& cfg) {
  SchemeCalibration out;
  out.scheme = eq1_estimator().name();
  out.costs.energy_nj.assign(scheme.size(), 0.0);
  out.costs.time_ns.assign(scheme.size(), 0.0);
  std::vector<std::size_t> categories;
  std::vector<KernelPair> pairs;
  for (std::size_t c = 0; c < scheme.size(); ++c) {
    const std::string& name = scheme.category_name(c);
    out.term_names.push_back(name);
    const Recipe recipe = recipe_for(name);
    if (!calibratable(recipe, cfg)) continue;  // zero cost
    categories.push_back(c);
    pairs.push_back(make_pair(name, recipe, plan));
  }

  const std::vector<KernelRunRecord> records = measure_pairs(pairs, cfg);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const board::Measurement& ref = records[2 * i].measured;
    const board::Measurement& test = records[2 * i + 1].measured;
    CategoryCalibration detail;
    detail.category = pairs[i].category;
    detail.e_ref_nj = ref.energy_nj;
    detail.t_ref_s = ref.time_s;
    detail.e_test_nj = test.energy_nj;
    detail.t_test_s = test.time_s;

    const auto n = static_cast<double>(pairs[i].n_test);
    detail.specific_energy_nj = (detail.e_test_nj - detail.e_ref_nj) / n;
    detail.specific_time_ns =
        (detail.t_test_s - detail.t_ref_s) * 1e9 / n;
    out.costs.energy_nj[categories[i]] = detail.specific_energy_nj;
    out.costs.time_ns[categories[i]] = detail.specific_time_ns;
    out.details.push_back(detail);
  }
  out.samples = pairs.size();
  return out;
}

}  // namespace

Calibrator::Calibrator(CalibrationPlan plan) : plan_(plan) {
  if (plan_.loops == 0 || plan_.per_loop == 0) {
    throw std::invalid_argument(
        "Calibrator: plan.loops and plan.per_loop must be > 0");
  }
}

KernelPair Calibrator::make_kernels(const std::string& category) const {
  return make_pair(category, recipe_for(category), plan_);
}

SchemeCalibration Calibrator::fit(const Estimator& estimator,
                                  const board::BoardConfig& cfg) const {
  if (const auto* eq1 = dynamic_cast<const Eq1Estimator*>(&estimator)) {
    return calibrate_eq2(eq1->scheme(), plan_, cfg);
  }

  SchemeCalibration out;
  out.scheme = estimator.name();
  for (std::size_t t = 0; t < estimator.terms(); ++t) {
    out.term_names.push_back(estimator.term_name(t));
  }

  // Every other scheme: least squares over the same Table-II ref/test
  // pairs, generalizing Eq. 2 from a per-category scalar division to a
  // multivariate fit. Each pair contributes one DIFFERENCE sample —
  // features(test) - features(ref) against the measured energy/time deltas.
  // Differencing is essential, not cosmetic: it cancels the shared loop
  // scaffold and measurement baseline exactly, so feature columns that are
  // constant across calibration runs (the loop branch falls through exactly
  // once per run) difference to zero and get pruned instead of being
  // drafted as pseudo-intercepts with huge compensating coefficients that
  // extrapolate catastrophically to application kernels.
  // Pairs beyond the scheme's categories: the Table-II memory kernels
  // confine their accesses to a 512-byte window inside one open SDRAM row,
  // so the row-miss counter barely moves across them and a least-squares
  // fit would price it from measurement noise (with six-figure relative
  // error on row-heavy application kernels). The stride pair walks loads
  // across four 1 KiB rows — every access reopens a row — which pins the
  // row-miss/stall pricing to the hardware numbers.
  std::vector<KernelPair> pairs;
  const auto add_pair = [&](const std::string& name, const Recipe& recipe) {
    if (calibratable(recipe, cfg)) {
      pairs.push_back(make_pair(name, recipe, plan_));
    }
  };
  const CategoryScheme& paper = CategoryScheme::paper();
  for (std::size_t c = 0; c < paper.size(); ++c) {
    add_pair(paper.category_name(c), recipe_for(paper.category_name(c)));
  }
  add_pair("Row Stride", {false, false, [](std::uint32_t i) {
                            return format("ld [%%g1+%u], %%l5", (i % 4) * 1024);
                          }});
  // Same reasoning for the integer multiply/divide counter: the paper's
  // nine categories fold mul/div into Integer Arithmetic, whose kernel
  // retires neither, so without this pair the muldiv_ops column would
  // difference to zero and campaign mul/divs would be priced as cheap ALU
  // ops.
  add_pair("Mul/Div",
           {false, true, [](std::uint32_t i) {
              return rotate({"umul %l1, %l2, %l5", "udiv %l3, %l2, %l6",
                             "smul %l2, %l3, %l5", "sdiv %l1, %l4, %l6"},
                            i);
            }});

  const std::vector<KernelRunRecord> records = measure_pairs(pairs, cfg);
  std::vector<std::vector<double>> rows;
  std::vector<double> energy_nj;
  std::vector<double> time_ns;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const KernelRunRecord& ref = records[2 * i];
    const KernelRunRecord& test = records[2 * i + 1];
    const std::vector<double> features_ref =
        estimator.features(run_sample(ref));
    const std::vector<double> features_test =
        estimator.features(run_sample(test));
    std::vector<double> delta(features_test.size(), 0.0);
    for (std::size_t j = 0; j < delta.size(); ++j) {
      delta[j] = features_test[j] - features_ref[j];
    }
    rows.push_back(std::move(delta));
    energy_nj.push_back(test.measured.energy_nj - ref.measured.energy_nj);
    time_ns.push_back((test.measured.time_s - ref.measured.time_s) * 1e9);
  }
  out.samples = rows.size();
  out.costs.energy_nj = fit_least_squares(rows, energy_nj);
  out.costs.time_ns = fit_least_squares(rows, time_ns);
  if (out.costs.energy_nj.size() != estimator.terms()) {
    // No calibratable category at all (never happens for the shipped
    // schemes, but keep the coefficient arity invariant regardless).
    out.costs.energy_nj.assign(estimator.terms(), 0.0);
    out.costs.time_ns.assign(estimator.terms(), 0.0);
  }
  return out;
}

}  // namespace nfp::model
