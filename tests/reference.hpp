#pragma once
// Reference models the tests compare the library against.
//
// None of these is on a production path: each is either the paper's algebra
// written out literally (the permutation matrix A_pi of Eq. 4/5, the T
// matrix of Eq. 3 and its Frobenius product with C), an analytic theory a
// generator must match (the dual-bit-type model of the AR(1) stream), or
// the client half of a format the library only reads (service frames).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "phys/constants.hpp"
#include "phys/matrix.hpp"
#include "serve/protocol.hpp"
#include "stats/switching_types.hpp"
#include "tsv/linear_model.hpp"

namespace tsvcod::reference {

// --- Paper algebra ----------------------------------------------------------

/// The signed permutation matrix A_pi: A(line, bit) = +-1 (Eq. 5).
inline phys::Matrix permutation_matrix(const core::SignedPermutation& p) {
  const std::size_t n = p.size();
  phys::Matrix a(n, n);
  for (std::size_t bit = 0; bit < n; ++bit) {
    a(p.line_of_bit(bit), bit) = p.inverted(bit) ? -1.0 : 1.0;
  }
  return a;
}

/// T = T_s * 1_{NxN} - T_c (Eq. 3): T_ii = self_i, T_ij = self_i - coupling_ij.
inline phys::Matrix t_matrix(const stats::SwitchingStats& s) {
  phys::Matrix t(s.width, s.width);
  for (std::size_t i = 0; i < s.width; ++i) {
    for (std::size_t j = 0; j < s.width; ++j) {
      t(i, j) = i == j ? s.self[i] : s.self[i] - s.coupling(i, j);
    }
  }
  return t;
}

/// Frobenius inner product <A, B> = sum_ij A_ij * B_ij.
inline double frobenius(const phys::Matrix& a, const phys::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("frobenius: shape mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) acc += a.data()[i] * b.data()[i];
  return acc;
}

/// The constructive rule from the paper's text that Sawtooth closes: start
/// at the largest coupling capacitance and recursively pick the TSV with the
/// largest accumulated coupling to the already chosen ones.
inline std::vector<std::size_t> greedy_coupling_order(const phys::Matrix& c) {
  const std::size_t n = c.rows();
  if (n != c.cols() || n == 0) throw std::invalid_argument("greedy_coupling_order: bad matrix");
  if (n == 1) return {0};

  std::size_t best_i = 0, best_j = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (c(i, j) > c(best_i, best_j)) {
        best_i = i;
        best_j = j;
      }
    }
  }
  std::vector<std::size_t> order{best_i, best_j};
  std::vector<bool> used(n, false);
  used[best_i] = used[best_j] = true;

  while (order.size() < n) {
    std::size_t best = n;
    double best_acc = -1.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (used[k]) continue;
      double acc = 0.0;
      for (const auto a : order) acc += c(k, a);
      if (acc > best_acc) {
        best_acc = acc;
        best = k;
      }
    }
    used[best] = true;
    order.push_back(best);
  }
  return order;
}

/// Normalized RMS error of the linear model (Eq. 6/7) against the backend,
/// sampled at `samples` random probability vectors (normalization: RMS of
/// the backend entries), mirroring the <2 % figure quoted in the paper.
inline double linearity_nrmse(const tsv::CapacitanceBackend& backend,
                              const tsv::LinearCapacitanceModel& model, std::size_t n,
                              int samples, unsigned seed = 1) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  double err2 = 0.0;
  double ref2 = 0.0;
  std::vector<double> pr(n);
  for (int s = 0; s < samples; ++s) {
    for (auto& p : pr) p = uni(rng);
    const phys::Matrix exact = backend(pr);
    const phys::Matrix approx = model.evaluate(pr);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double d = exact(i, j) - approx(i, j);
        err2 += d * d;
        ref2 += exact(i, j) * exact(i, j);
      }
    }
  }
  return ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
}

/// True iff the codeword has no two adjacent 1s (the Fibonacci CAC invariant).
inline bool is_forbidden_pattern_free(std::uint64_t code) { return (code & (code >> 1)) == 0; }

// --- Dual-bit-type model (Landman & Rabaey, TVLSI'95; paper Sec. 4) ---------
//
// Two's-complement encodings of zero-mean Gaussian processes have two bit
// regions: uncorrelated LSBs that toggle like fair coins, and MSBs that all
// mirror the sign bit. For a lag-1 autocorrelation rho, the sign of a
// stationary Gaussian AR(1) process changes with probability acos(rho)/pi,
// which is both the MSB self-switching activity and (for a shared sign) the
// pairwise MSB switching correlation. Between the breakpoints the behaviour
// interpolates. It is the theory the GaussianAr1Stream generator must match.

struct DbtParams {
  std::size_t width = 16;   ///< word width (two's complement)
  double sigma = 1024.0;    ///< standard deviation in LSBs
  double rho = 0.0;         ///< lag-1 temporal correlation, in (-1, 1)
};

/// Lower breakpoint BP0: bits below it are pure LSB-type (activity 1/2).
inline std::size_t dbt_bp0(const DbtParams& p) {
  // Landman-Rabaey: BP0 = log2(sigma) + log2(sqrt(1 - rho^2)) bounded to the word.
  const double bp =
      std::log2(std::max(p.sigma * std::sqrt(std::max(1e-12, 1.0 - p.rho * p.rho)), 1.0));
  return std::min<std::size_t>(p.width, static_cast<std::size_t>(std::max(0.0, std::floor(bp))));
}

/// Upper breakpoint BP1: bits at or above it are pure MSB/sign-type, from
/// about 3 sigma upwards.
inline std::size_t dbt_bp1(const DbtParams& p) {
  const double bp = std::log2(std::max(3.0 * p.sigma, 1.0));
  const std::size_t b = static_cast<std::size_t>(std::max(0.0, std::ceil(bp)));
  return std::min<std::size_t>(p.width, std::max(b, dbt_bp0(p)));
}

/// Sign-change probability of a stationary Gaussian AR(1) process.
inline double sign_toggle_probability(double rho) {
  if (!(rho > -1.0) || !(rho < 1.0)) {
    throw std::invalid_argument("sign_toggle_probability: rho must be in (-1, 1)");
  }
  return std::acos(rho) / phys::pi;
}

/// Analytic switching statistics for the DBT signal model.
inline stats::SwitchingStats dbt_stats(const DbtParams& p) {
  if (p.width == 0 || p.width > 64) throw std::invalid_argument("dbt_stats: bad width");
  const std::size_t bp0 = dbt_bp0(p);
  const std::size_t bp1 = dbt_bp1(p);
  const double msb_self = sign_toggle_probability(p.rho);

  stats::SwitchingStats s;
  s.width = p.width;
  s.transitions = 0;  // analytic, not measured
  s.self.resize(p.width);
  s.prob_one.assign(p.width, 0.5);  // zero-mean two's complement
  s.coupling = phys::Matrix(p.width, p.width);

  // "MSB-ness" of each bit: 0 below BP0, 1 above BP1, linear in between.
  auto msbness = [&](std::size_t bit) -> double {
    if (bit < bp0) return 0.0;
    if (bit >= bp1) return 1.0;
    if (bp1 == bp0) return 1.0;
    return static_cast<double>(bit - bp0 + 1) / static_cast<double>(bp1 - bp0 + 1);
  };

  for (std::size_t i = 0; i < p.width; ++i) {
    const double m = msbness(i);
    s.self[i] = 0.5 * (1.0 - m) + msb_self * m;
    s.coupling(i, i) = s.self[i];
  }
  // Pairwise switching correlation: only the shared sign region correlates.
  // Two pure MSBs switch in lockstep, so E{db_i db_j} = E{db^2} = msb_self.
  for (std::size_t i = 0; i < p.width; ++i) {
    for (std::size_t j = i + 1; j < p.width; ++j) {
      const double c = msbness(i) * msbness(j) * msb_self;
      s.coupling(i, j) = c;
      s.coupling(j, i) = c;
    }
  }
  return s;
}

// --- Service frames ---------------------------------------------------------

/// Serialize a frame: the client half of serve/protocol.hpp's format.
inline std::string encode_frame(const serve::Frame& frame) {
  const auto store_u32le = [](std::string& out, std::uint32_t v) {
    for (int k = 0; k < 4; ++k) out.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
  };
  std::string payload;
  switch (frame.type) {
    case serve::FrameType::data:
      payload.reserve(frame.words.size() * 8);
      for (const std::uint64_t w : frame.words) {
        store_u32le(payload, static_cast<std::uint32_t>(w & 0xffffffffu));
        store_u32le(payload, static_cast<std::uint32_t>(w >> 32));
      }
      break;
    case serve::FrameType::open: payload = frame.text; break;
    case serve::FrameType::stats:
    case serve::FrameType::close:
    case serve::FrameType::shutdown: break;
  }
  if (payload.size() > serve::kMaxFramePayload) {
    throw std::runtime_error("serve: frame payload exceeds 64 MiB cap");
  }

  std::string out;
  out.reserve(12 + payload.size());
  store_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(frame.type));
  out.append(3, '\0');
  store_u32le(out, frame.session);
  out += payload;
  return out;
}

}  // namespace tsvcod::reference
