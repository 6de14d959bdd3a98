#include "integrals/hermite.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

#include "basis/spherical.hpp"
#include "integrals/boys.hpp"
#include "robust/audit.hpp"

namespace mako {

HermiteBasis::HermiteBasis(int l) : l_(l) {
  lut_.assign((l + 1) * (l + 1) * (l + 1), -1);
  for (int n = 0; n <= l; ++n) {
    for (int t = n; t >= 0; --t) {
      for (int u = n - t; u >= 0; --u) {
        const int v = n - t - u;
        lut_[(t * (l + 1) + u) * (l + 1) + v] =
            static_cast<int>(comps_.size());
        comps_.push_back({t, u, v});
      }
    }
  }
}

namespace {
// One slot per order.  Every E build and r-integral call looks its order up
// here, from every pool thread, so the hit path is a single acquire load.
// Only the first use of an order takes the mutex; instances are never freed
// (references are handed out for the program lifetime).
constinit std::array<std::atomic<const HermiteBasis*>, kBoysMaxM + 1>
    g_hermite_bases{};
constinit std::mutex g_hermite_build_mutex;
}  // namespace

const HermiteBasis& HermiteBasis::get(int l) {
  if (l < 0 || l > kBoysMaxM) {
    throw std::out_of_range("HermiteBasis::get: order " + std::to_string(l) +
                            " outside [0, kBoysMaxM]");
  }
  std::atomic<const HermiteBasis*>& slot = g_hermite_bases[l];
  const HermiteBasis* hb = slot.load(std::memory_order_acquire);
  if (hb != nullptr) return *hb;
  std::lock_guard<std::mutex> lock(g_hermite_build_mutex);
  hb = slot.load(std::memory_order_relaxed);
  if (hb == nullptr) {
    hb = new HermiteBasis(l);
    slot.store(hb, std::memory_order_release);
  }
  return *hb;
}

void Hermite1D::reset(int imax, int jmax, double xpa, double xpb, double p,
                      double e00) {
  imax_ = imax;
  jmax_ = jmax;
  const int tdim = imax + jmax + 1;
  data_.assign((imax + 1) * (jmax + 1) * tdim, 0.0);
  const double inv2p = 0.5 / p;

  auto at = [&](int i, int j, int t) -> double& {
    return data_[(i * (jmax_ + 1) + j) * tdim + t];
  };
  auto val = [&](int i, int j, int t) -> double {
    if (t < 0 || t > i + j || i < 0 || j < 0) return 0.0;
    return data_[(i * (jmax_ + 1) + j) * tdim + t];
  };

  at(0, 0, 0) = e00;
  // Raise i with j = 0:
  //   E_t^{i+1,0} = inv2p E_{t-1}^{i,0} + xpa E_t^{i,0} + (t+1) E_{t+1}^{i,0}
  for (int i = 0; i < imax; ++i) {
    for (int t = 0; t <= i + 1; ++t) {
      at(i + 1, 0, t) = inv2p * val(i, 0, t - 1) + xpa * val(i, 0, t) +
                        (t + 1) * val(i, 0, t + 1);
    }
  }
  // Raise j for every i:
  //   E_t^{i,j+1} = inv2p E_{t-1}^{i,j} + xpb E_t^{i,j} + (t+1) E_{t+1}^{i,j}
  for (int i = 0; i <= imax; ++i) {
    for (int j = 0; j < jmax; ++j) {
      for (int t = 0; t <= i + j + 1; ++t) {
        at(i, j + 1, t) = inv2p * val(i, j, t - 1) + xpb * val(i, j, t) +
                          (t + 1) * val(i, j, t + 1);
      }
    }
  }
}

void make_prim_pairs(const Vec3& a_center, const std::vector<double>& a_exps,
                     const std::vector<double>& a_coefs, const Vec3& b_center,
                     const std::vector<double>& b_exps,
                     const std::vector<double>& b_coefs, PrimPair* out) {
  const double ab2 = distance(a_center, b_center) * distance(a_center, b_center);
  for (std::size_t i = 0; i < a_exps.size(); ++i) {
    for (std::size_t j = 0; j < b_exps.size(); ++j) {
      PrimPair pp;
      pp.alpha = a_exps[i];
      pp.beta = b_exps[j];
      pp.p = pp.alpha + pp.beta;
      const double mu = pp.alpha * pp.beta / pp.p;
      pp.kab = std::exp(-mu * ab2);
      for (int ax = 0; ax < 3; ++ax) {
        pp.center[ax] =
            (pp.alpha * a_center[ax] + pp.beta * b_center[ax]) / pp.p;
      }
      pp.coef = a_coefs[i] * b_coefs[j];
      *out++ = pp;
    }
  }
}

std::vector<PrimPair> make_prim_pairs(const Vec3& a_center,
                                      const std::vector<double>& a_exps,
                                      const std::vector<double>& a_coefs,
                                      const Vec3& b_center,
                                      const std::vector<double>& b_exps,
                                      const std::vector<double>& b_coefs) {
  std::vector<PrimPair> pairs(a_exps.size() * b_exps.size());
  make_prim_pairs(a_center, a_exps, a_coefs, b_center, b_exps, b_coefs,
                  pairs.data());
  return pairs;
}

void build_e_matrix(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, MatrixD& out) {
  const std::size_t nh = static_cast<std::size_t>(nherm(la + lb));
  const std::size_t ncab = static_cast<std::size_t>(ncart(la) * ncart(lb));
  if (out.rows() != nh || out.cols() != ncab) out.resize(nh, ncab);
  build_e_matrix(la, lb, a, b, alpha, beta, coef, out.data());
}

std::size_t e_matrix_size(int la, int lb) {
  return static_cast<std::size_t>(nherm(la + lb)) * ncart(la) * ncart(lb);
}

void build_e_matrix(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, double* out) {
  const HermiteBasis& hb = HermiteBasis::get(la + lb);
  const int ncab = ncart(la) * ncart(lb);

  const double p = alpha + beta;
  Vec3 pc;
  for (int ax = 0; ax < 3; ++ax) {
    pc[ax] = (alpha * a[ax] + beta * b[ax]) / p;
  }
  const double mu = alpha * beta / p;

  // Per-axis 1D tables; the exponential prefactor factorizes across axes.
  // Thread-local instances are rebuilt in place (storage reused), keeping the
  // batched engine's steady-state hot path allocation-free.
  static thread_local Hermite1D e1d[3];
  for (int ax = 0; ax < 3; ++ax) {
    const double xab = a[ax] - b[ax];
    e1d[ax].reset(la, lb, pc[ax] - a[ax], pc[ax] - b[ax], p,
                  std::exp(-mu * xab * xab));
  }

  for (int ia = 0; ia < ncart(la); ++ia) {
    int ax_a, ay_a, az_a;
    cart_components(la, ia, ax_a, ay_a, az_a);
    for (int ib = 0; ib < ncart(lb); ++ib) {
      int ax_b, ay_b, az_b;
      cart_components(lb, ib, ax_b, ay_b, az_b);
      const int col = ia * ncart(lb) + ib;
      for (int h = 0; h < hb.size(); ++h) {
        const auto& tuv = hb.component(h);
        double& e = out[static_cast<std::size_t>(h) * ncab + col];
        if (tuv[0] > ax_a + ax_b || tuv[1] > ay_a + ay_b ||
            tuv[2] > az_a + az_b) {
          e = 0.0;
          continue;
        }
        e = coef * e1d[0](ax_a, ax_b, tuv[0]) * e1d[1](ay_a, ay_b, tuv[1]) *
            e1d[2](az_a, az_b, tuv[2]);
      }
    }
  }
}

ShellPairData make_shell_pair_data(const Shell& a, const Shell& b,
                                   PrimPair* prims, double* e) {
  make_prim_pairs(a.center, a.exponents, a.coefficients, b.center,
                  b.exponents, b.coefficients, prims);
  const std::size_t k = a.exponents.size() * b.exponents.size();
  const std::size_t esz = e_matrix_size(a.l, b.l);
  ShellPairData data{prims, e, 0.0};
  for (std::size_t i = 0; i < k; ++i) {
    build_e_matrix(a.l, b.l, a.center, b.center, prims[i].alpha,
                   prims[i].beta, prims[i].coef, e + i * esz);
  }
  for (std::size_t i = 0; i < k * esz; ++i) {
    data.e_max = std::max(data.e_max, std::fabs(e[i]));
  }
  return data;
}

void compute_r_integrals(int l_total, double alpha, const Vec3& pq,
                         double prefactor, double* out) {
  const HermiteBasis& hb = HermiteBasis::get(l_total);
  const int nh = hb.size();

  // Domain guard: the Gaussian-product reduced exponent is strictly positive
  // and the prefactor finite for any healthy primitive pair.  Poison the
  // outputs on violation (counted; the SCF finite sentinel reacts) rather
  // than feeding the recursion garbage.
  if (!(alpha > 0.0) || !std::isfinite(prefactor) ||
      !std::isfinite(pq[0] + pq[1] + pq[2])) {
    record_domain_fault();
    for (int h = 0; h < nh; ++h) {
      out[h] = std::numeric_limits<double>::quiet_NaN();
    }
    return;
  }

  const double t_arg =
      alpha * (pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2]);

  // Seed: R^{(m)}_{000} = (-2 alpha)^m F_m(T).
  double fm[kBoysMaxM + 1];
  boys(l_total, t_arg, fm);

  // r[m * nh + idx] = R^{(m)}_{tuv}; fill orders n = t+u+v ascending with the
  // recursion R^{(m)}_{t+1,u,v} = t R^{(m+1)}_{t-1,u,v} + PQ_x R^{(m+1)}_{t,u,v}.
  // Thread-local so the per-primitive-pair hot loop does not allocate.
  static thread_local std::vector<double> r;
  r.assign(static_cast<std::size_t>(l_total + 1) * nh, 0.0);
  double pow_m = 1.0;
  for (int m = 0; m <= l_total; ++m) {
    r[static_cast<std::size_t>(m) * nh + 0] = pow_m * fm[m];
    pow_m *= -2.0 * alpha;
  }

  for (int h = 1; h < nh; ++h) {
    const auto& tuv = hb.component(h);
    const int n = tuv[0] + tuv[1] + tuv[2];
    // Reduce along the first axis with a nonzero component.
    int axis = (tuv[0] > 0) ? 0 : (tuv[1] > 0 ? 1 : 2);
    std::array<int, 3> lower = tuv;
    --lower[axis];
    const int idx1 = hb.index(lower[0], lower[1], lower[2]);
    int idx2 = -1;
    if (lower[axis] > 0) {
      std::array<int, 3> lower2 = lower;
      --lower2[axis];
      idx2 = hb.index(lower2[0], lower2[1], lower2[2]);
    }
    const double coeff = static_cast<double>(lower[axis]);
    for (int m = 0; m <= l_total - n; ++m) {
      const double* rm1 = r.data() + static_cast<std::size_t>(m + 1) * nh;
      double v = pq[axis] * rm1[idx1];
      if (idx2 >= 0) v += coeff * rm1[idx2];
      r[static_cast<std::size_t>(m) * nh + h] = v;
    }
  }

  for (int h = 0; h < nh; ++h) out[h] = prefactor * r[h];
}

}  // namespace mako
