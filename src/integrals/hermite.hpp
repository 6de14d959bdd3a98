// McMurchie-Davidson machinery: Hermite Gaussian expansion coefficients (E)
// and Hermite Coulomb integrals (the r-integrals of Eq. 4-5 in the paper).
//
// Everything downstream — one-electron integrals, the reference ERI engine,
// and KernelMako's matrix-aligned pipeline — is built from these two pieces.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace mako {

/// Number of Hermite components (t,u,v) with t+u+v <= L.
constexpr int nherm(int l) noexcept {
  return (l + 1) * (l + 2) * (l + 3) / 6;
}

/// Enumeration of Hermite components for a given total order L with O(1)
/// index lookup.  Component order: ascending total order n, then t
/// descending, then u descending.
class HermiteBasis {
 public:
  explicit HermiteBasis(int l);

  [[nodiscard]] int order() const noexcept { return l_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(comps_.size());
  }
  [[nodiscard]] const std::array<int, 3>& component(int i) const {
    return comps_[i];
  }
  [[nodiscard]] int index(int t, int u, int v) const {
    return lut_[(t * (l_ + 1) + u) * (l_ + 1) + v];
  }

  /// Shared instance per order 0..kBoysMaxM, built once on first use and
  /// never freed.  Lookups after the first take no lock; out-of-range orders
  /// throw std::out_of_range.
  static const HermiteBasis& get(int l);

 private:
  int l_;
  std::vector<std::array<int, 3>> comps_;
  std::vector<int> lut_;
};

/// One-dimensional Hermite expansion coefficients E_t^{ij} for a primitive
/// pair along one axis, including the Gaussian-product exponential prefactor
/// in E_0^{00}.  Valid ranges: 0 <= i <= imax, 0 <= j <= jmax, 0 <= t <= i+j.
class Hermite1D {
 public:
  Hermite1D() = default;

  /// xpa = P - A (this axis), xpb = P - B, p = alpha + beta,
  /// e00 = exp(-alpha*beta/p * X_AB^2) for this axis.
  Hermite1D(int imax, int jmax, double xpa, double xpb, double p, double e00) {
    reset(imax, jmax, xpa, xpb, p, e00);
  }

  /// Rebuilds the table in place, reusing the existing storage — the batched
  /// engine cycles one instance per axis through every primitive pair.
  void reset(int imax, int jmax, double xpa, double xpb, double p, double e00);

  [[nodiscard]] double operator()(int i, int j, int t) const noexcept {
    if (t < 0 || t > i + j) return 0.0;
    return data_[(i * (jmax_ + 1) + j) * (imax_ + jmax_ + 1) + t];
  }

 private:
  int imax_ = 0;
  int jmax_ = 0;
  std::vector<double> data_;
};

/// Scaled per-primitive-pair data entering ERI pipelines.
struct PrimPair {
  double p = 0.0;      ///< alpha + beta
  Vec3 center{};       ///< Gaussian product center P
  double coef = 1.0;   ///< c_a * c_b (normalized contraction coefficients)
  double kab = 1.0;    ///< exp(-alpha*beta/p |AB|^2) (screening factor)
  double alpha = 0.0;  ///< bra exponent
  double beta = 0.0;   ///< ket exponent
};

/// All primitive pairs of two contracted shells (Gaussian product theorem).
std::vector<PrimPair> make_prim_pairs(const Vec3& a_center,
                                      const std::vector<double>& a_exps,
                                      const std::vector<double>& a_coefs,
                                      const Vec3& b_center,
                                      const std::vector<double>& b_exps,
                                      const std::vector<double>& b_coefs);

/// Allocation-free variant: writes the nprim(a)*nprim(b) pairs to `out`,
/// which must have room for them.  Used by the batched engine's scratch arena.
void make_prim_pairs(const Vec3& a_center, const std::vector<double>& a_exps,
                     const std::vector<double>& a_coefs, const Vec3& b_center,
                     const std::vector<double>& b_exps,
                     const std::vector<double>& b_coefs, PrimPair* out);

/// Builds the Hermite->Cartesian transformation matrix E for one primitive
/// pair of shells (la, lb): shape [nherm(la+lb) x ncart(la)*ncart(lb)],
/// element (p~, iab) = coef * Ex_t^{ax bx} Ey_u^{ay by} Ez_v^{az bz}.
/// This is the E_AB / E_CD operand of the paper's Eq. 7 GEMMs.
void build_e_matrix(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, MatrixD& out);

/// Allocation-free variant: writes the row-major E matrix to `out`, which
/// must have room for e_matrix_size(la, lb) doubles.
void build_e_matrix(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, double* out);

/// Doubles in one E matrix of a (la, lb) pair:
/// nherm(la+lb) * ncart(la) * ncart(lb).
std::size_t e_matrix_size(int la, int lb);

/// Iteration-invariant data of one ordered shell pair (a, b): its
/// K = nprim(a) * nprim(b) primitive pairs and one E matrix per primitive
/// pair.  A read-only view of storage owned elsewhere — a FockPlan arena for
/// the plan-resident copy, or a kernel scratch arena for pairs built on the
/// fly.
struct ShellPairData {
  const PrimPair* prims = nullptr;  ///< [K]
  /// [K][nherm(la+lb)][ncart(la)*ncart(lb)], each E matrix row-major.
  const double* e = nullptr;
  double e_max = 0.0;  ///< max |E| over all K matrices (group scaling)
};

/// The one producer of shell-pair data: make_prim_pairs + build_e_matrix per
/// primitive pair, written to caller storage — `prims` needs K slots and `e`
/// K * e_matrix_size(a.l, b.l) doubles.  Returns the view of that storage.
ShellPairData make_shell_pair_data(const Shell& a, const Shell& b,
                                   PrimPair* prims, double* e);

/// Hermite Coulomb r-integrals R^{(0)}_{tuv} for all t+u+v <= L, scaled by
/// `prefactor`:  R recursion of Eq. 5 seeded with Boys values
/// R^{(m)}_{000} = (-2 alpha)^m F_m(alpha |PQ|^2).
/// `out` must have nherm(L) slots, indexed by HermiteBasis::get(L).
void compute_r_integrals(int l_total, double alpha, const Vec3& pq,
                         double prefactor, double* out);

}  // namespace mako
