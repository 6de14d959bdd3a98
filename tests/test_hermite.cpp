// MMD machinery tests: Hermite index bases, E coefficients and r-integrals.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "basis/spherical.hpp"
#include "integrals/boys.hpp"
#include "integrals/hermite.hpp"
#include "parallel/thread_pool.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

class HermiteBasisTest : public ::testing::TestWithParam<int> {};

TEST_P(HermiteBasisTest, SizeAndRoundTrip) {
  const int l = GetParam();
  const HermiteBasis& hb = HermiteBasis::get(l);
  EXPECT_EQ(hb.size(), nherm(l));
  for (int i = 0; i < hb.size(); ++i) {
    const auto& c = hb.component(i);
    EXPECT_LE(c[0] + c[1] + c[2], l);
    EXPECT_EQ(hb.index(c[0], c[1], c[2]), i);
  }
}

TEST_P(HermiteBasisTest, OrderedByTotalDegree) {
  const int l = GetParam();
  const HermiteBasis& hb = HermiteBasis::get(l);
  int prev = 0;
  for (int i = 0; i < hb.size(); ++i) {
    const auto& c = hb.component(i);
    const int n = c[0] + c[1] + c[2];
    EXPECT_GE(n, prev);
    prev = n;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, HermiteBasisTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16));

TEST(HermiteCountTest, Formula) {
  EXPECT_EQ(nherm(0), 1);
  EXPECT_EQ(nherm(1), 4);
  EXPECT_EQ(nherm(2), 10);
  EXPECT_EQ(nherm(16), 969);
}

TEST(Hermite1DTest, SShellIsPrefactor) {
  const Hermite1D e(0, 0, 0.3, -0.2, 1.5, 0.77);
  EXPECT_DOUBLE_EQ(e(0, 0, 0), 0.77);
}

TEST(Hermite1DTest, OutOfRangeIsZero) {
  const Hermite1D e(1, 1, 0.3, -0.2, 1.5, 1.0);
  EXPECT_DOUBLE_EQ(e(1, 1, 3), 0.0);  // t > i + j
}

TEST(Hermite1DTest, KnownPRecursion) {
  // E_0^{10} = XPA * E_0^{00}; E_1^{10} = 1/(2p) E_0^{00}.
  const double xpa = 0.37, p = 2.1, e00 = 0.9;
  const Hermite1D e(1, 0, xpa, -0.1, p, e00);
  EXPECT_NEAR(e(1, 0, 0), xpa * e00, 1e-14);
  EXPECT_NEAR(e(1, 0, 1), e00 / (2.0 * p), 1e-14);
}

TEST(Hermite1DTest, SumRuleGivesOverlapMoment) {
  // For same-center (xpa = xpb = 0, e00 = 1), E_0^{ij} is the Gaussian
  // moment <x^{i+j}> / <1> in Hermite form: E_0^{11} = 1/(2p).
  const double p = 1.7;
  const Hermite1D e(1, 1, 0.0, 0.0, p, 1.0);
  EXPECT_NEAR(e(1, 1, 0), 1.0 / (2.0 * p), 1e-14);
  // Odd moment vanishes.
  EXPECT_NEAR(e(1, 0, 0), 0.0, 1e-15);
}

TEST(PrimPairTest, GaussianProductTheorem) {
  const Vec3 a{0, 0, 0}, b{0, 0, 2.0};
  const auto pairs = make_prim_pairs(a, {1.0, 2.0}, {0.3, 0.7}, b, {0.5},
                                     {1.0});
  ASSERT_EQ(pairs.size(), 2u);
  const PrimPair& pp = pairs[0];  // (1.0, 0.5)
  EXPECT_DOUBLE_EQ(pp.p, 1.5);
  EXPECT_NEAR(pp.center[2], (1.0 * 0.0 + 0.5 * 2.0) / 1.5, 1e-14);
  EXPECT_NEAR(pp.kab, std::exp(-1.0 * 0.5 / 1.5 * 4.0), 1e-14);
  EXPECT_DOUBLE_EQ(pp.coef, 0.3);
}

TEST(EMatrixTest, SSshellSingleEntry) {
  MatrixD e;
  build_e_matrix(0, 0, {0, 0, 0}, {0, 0, 1.0}, 1.0, 1.0, 2.0, e);
  ASSERT_EQ(e.rows(), 1u);
  ASSERT_EQ(e.cols(), 1u);
  // coef * exp(-mu |AB|^2), mu = 0.5.
  EXPECT_NEAR(e(0, 0), 2.0 * std::exp(-0.5), 1e-13);
}

TEST(EMatrixTest, SparsityPattern) {
  // E(h, col) must vanish when any Hermite component exceeds the summed
  // Cartesian angular momentum on that axis.
  MatrixD e;
  build_e_matrix(1, 1, {0, 0, 0}, {0.5, -0.3, 0.8}, 1.2, 0.8, 1.0, e);
  const HermiteBasis& hb = HermiteBasis::get(2);
  // Column for (px, px): ax=1+1 on x, 0 elsewhere.
  const int col = 0 * 3 + 0;
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    if (c[1] > 0 || c[2] > 0) {
      EXPECT_EQ(e(h, col), 0.0) << h;
    }
  }
}

TEST(RIntegralTest, ZeroDistanceOddComponentsVanish) {
  // At PQ = 0 the Hermite Coulomb integrals with any odd t/u/v are zero by
  // symmetry.
  const int l = 6;
  const HermiteBasis& hb = HermiteBasis::get(l);
  std::vector<double> r(hb.size());
  compute_r_integrals(l, 0.8, {0, 0, 0}, 1.0, r.data());
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    if (c[0] % 2 || c[1] % 2 || c[2] % 2) {
      EXPECT_NEAR(r[h], 0.0, 1e-14) << h;
    }
  }
}

TEST(RIntegralTest, BaseValueIsBoys) {
  std::vector<double> r(nherm(0));
  const double alpha = 0.9;
  const Vec3 pq{0.3, -0.4, 0.5};
  const double t = alpha * 0.5;  // |pq|^2 = 0.5
  compute_r_integrals(0, alpha, pq, 3.0, r.data());
  EXPECT_NEAR(r[0], 3.0 * BoysTable::instance().value(0, t), 1e-13);
}

TEST(RIntegralTest, FirstDerivativeComponent) {
  // R_{100} = PQ_x * (-2 alpha) F_1(T).
  std::vector<double> r(nherm(1));
  const double alpha = 1.3;
  const Vec3 pq{0.7, 0.0, 0.0};
  compute_r_integrals(1, alpha, pq, 1.0, r.data());
  const double t = alpha * 0.49;
  const double f1 = BoysTable::instance().value(1, t);
  const int idx = HermiteBasis::get(1).index(1, 0, 0);
  EXPECT_NEAR(r[idx], 0.7 * (-2.0 * alpha) * f1, 1e-12);
}

TEST(RIntegralTest, AxisPermutationSymmetry) {
  // Swapping PQ components permutes the R components identically.
  const int l = 4;
  const HermiteBasis& hb = HermiteBasis::get(l);
  std::vector<double> r1(hb.size()), r2(hb.size());
  compute_r_integrals(l, 0.6, {0.3, 0.9, -0.2}, 1.0, r1.data());
  compute_r_integrals(l, 0.6, {0.9, 0.3, -0.2}, 1.0, r2.data());
  for (int h = 0; h < hb.size(); ++h) {
    const auto& c = hb.component(h);
    const int swapped = hb.index(c[1], c[0], c[2]);
    EXPECT_NEAR(r1[h], r2[swapped], 1e-12 * std::max(1.0, std::fabs(r1[h])));
  }
}

TEST(RIntegralTest, SsssMatchesClosedForm) {
  // The full (ss|ss) primitive ERI has the closed form
  // 2 pi^{5/2} / (p q sqrt(p+q)) F_0(alpha |PQ|^2) (with unit prefactors
  // folded in here via `prefactor`).
  const double p = 1.1, q = 0.7;
  const double alpha = p * q / (p + q);
  const Vec3 pq{0.0, 0.0, 1.9};
  const double pref = 2.0 * std::pow(kPi, 2.5) / (p * q * std::sqrt(p + q));
  std::vector<double> r(1);
  compute_r_integrals(0, alpha, pq, pref, r.data());
  const double f0 = BoysTable::instance().value(0, alpha * 1.9 * 1.9);
  EXPECT_NEAR(r[0], pref * f0, 1e-13);
}

// --- Shared read-only tables under concurrency -------------------------------

TEST(HermiteTest, ConcurrentGetReturnsOneStableInstancePerOrder) {
  // Every pool thread looks up every order at once, each starting at a
  // different order, so first-use builds race with lock-free hits.  Run
  // under TSan in CI.
  ThreadPool pool(4);
  const std::size_t nthreads = pool.size();
  constexpr int kOrders = kBoysMaxM + 1;
  std::vector<std::vector<const HermiteBasis*>> seen(
      nthreads, std::vector<const HermiteBasis*>(kOrders, nullptr));
  std::atomic<std::size_t> arrived{0};
  pool.parallel_for(nthreads, [&](std::size_t t) {
    // Bounded rendezvous: start together when the pool runs every task
    // concurrently, and never deadlock when it does not.
    arrived.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (arrived.load() < nthreads &&
           std::chrono::steady_clock::now() < give_up) {
    }
    for (int i = 0; i < kOrders; ++i) {
      const int l = (i + static_cast<int>(t) * 7) % kOrders;
      seen[t][l] = &HermiteBasis::get(l);
    }
  });
  for (int l = 0; l < kOrders; ++l) {
    const HermiteBasis* first = seen[0][l];
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->order(), l);
    EXPECT_EQ(first->size(), nherm(l));
    for (std::size_t t = 1; t < nthreads; ++t) {
      EXPECT_EQ(seen[t][l], first) << "order " << l << " thread " << t;
    }
    EXPECT_EQ(&HermiteBasis::get(l), first);
  }
}

TEST(HermiteTest, OrderOutsideTheTableThrows) {
  EXPECT_THROW(HermiteBasis::get(-1), std::out_of_range);
  EXPECT_THROW(HermiteBasis::get(kBoysMaxM + 1), std::out_of_range);
}

// --- Shell-pair data producer ---------------------------------------------------

TEST(HermiteTest, ShellPairDataMatchesPrimPairsAndEMatrices) {
  Shell a, b;
  a.l = 2;
  a.center = {0.1, -0.2, 0.3};
  a.exponents = {3.0, 0.8};
  a.coefficients = {0.4, 0.7};
  b.l = 1;
  b.center = {-0.5, 0.4, 1.1};
  b.exponents = {1.3, 0.5, 0.2};
  b.coefficients = {0.2, 0.5, 0.6};
  const std::size_t k = 6;
  const std::size_t esz = e_matrix_size(a.l, b.l);
  ASSERT_EQ(esz, static_cast<std::size_t>(nherm(3) * ncart(2) * ncart(1)));

  std::vector<PrimPair> prims(k);
  std::vector<double> e(k * esz);
  const ShellPairData data =
      make_shell_pair_data(a, b, prims.data(), e.data());
  EXPECT_EQ(data.prims, prims.data());
  EXPECT_EQ(data.e, e.data());

  const std::vector<PrimPair> want = make_prim_pairs(
      a.center, a.exponents, a.coefficients, b.center, b.exponents,
      b.coefficients);
  double e_max = 0.0;
  MatrixD em;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(prims[i].alpha, want[i].alpha);
    EXPECT_EQ(prims[i].beta, want[i].beta);
    EXPECT_EQ(prims[i].coef, want[i].coef);
    build_e_matrix(a.l, b.l, a.center, b.center, want[i].alpha, want[i].beta,
                   want[i].coef, em);
    ASSERT_EQ(em.size(), esz);
    for (std::size_t j = 0; j < esz; ++j) {
      EXPECT_EQ(e[i * esz + j], em.data()[j]);
      e_max = std::max(e_max, std::fabs(em.data()[j]));
    }
  }
  EXPECT_EQ(data.e_max, e_max);
  EXPECT_GT(data.e_max, 0.0);
}

}  // namespace
}  // namespace mako
