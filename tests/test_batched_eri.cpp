// KernelMako batched-engine tests: agreement with the reference engine
// across ERI classes and every kernel configuration, plus the quantized
// execution contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "chem/builders.hpp"
#include "compilermako/autotuner.hpp"
#include "integrals/eri_reference.hpp"
#include "kernelmako/batched_eri.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/fock_plan.hpp"

namespace mako {
namespace {

double compare_batch_to_reference(const EriClassKey& key,
                                  const KernelConfig& config,
                                  std::size_t batch_size, unsigned seed) {
  const CalibrationBatch batch = make_calibration_batch(key, batch_size, seed);
  BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;
  engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets), out);

  ReferenceEriEngine ref;
  std::vector<double> expected;
  double worst = 0.0;
  for (std::size_t q = 0; q < batch.quartets.size(); ++q) {
    const QuartetRef& r = batch.quartets[q];
    ref.compute(*r.a, *r.b, *r.c, *r.d, expected);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      worst = std::max(worst, std::fabs(expected[i] - out[q][i]));
    }
  }
  return worst;
}

struct ClassParam {
  int la, lb, lc, ld, kab, kcd;
};

class BatchedClassTest : public ::testing::TestWithParam<ClassParam> {};

TEST_P(BatchedClassTest, MatchesReferenceFp64) {
  const auto [la, lb, lc, ld, kab, kcd] = GetParam();
  const EriClassKey key{la, lb, lc, ld, kab, kcd};
  KernelConfig config;
  EXPECT_LT(compare_batch_to_reference(key, config, 3, 5), 1e-11)
      << key.name();
}

TEST_P(BatchedClassTest, QuantizedErrorBounded) {
  const auto [la, lb, lc, ld, kab, kcd] = GetParam();
  const EriClassKey key{la, lb, lc, ld, kab, kcd};
  KernelConfig config;
  config.gemm.precision = Precision::kFP16;
  // FP16-with-group-scaling kernels stay within ~1e-2 absolute of FP64 on
  // normalized quartets (Table-2 scale errors).
  EXPECT_LT(compare_batch_to_reference(key, config, 3, 5), 2e-2)
      << key.name();
}

INSTANTIATE_TEST_SUITE_P(
    Classes, BatchedClassTest,
    ::testing::Values(ClassParam{0, 0, 0, 0, 1, 1}, ClassParam{0, 0, 0, 0, 9, 9},
                      ClassParam{1, 0, 1, 0, 2, 2}, ClassParam{1, 1, 1, 1, 1, 1},
                      ClassParam{1, 1, 1, 1, 4, 4}, ClassParam{2, 1, 1, 0, 2, 1},
                      ClassParam{2, 2, 2, 2, 1, 1}, ClassParam{3, 2, 1, 0, 1, 2},
                      ClassParam{3, 3, 3, 3, 1, 1}, ClassParam{4, 4, 4, 4, 1, 1},
                      ClassParam{4, 0, 2, 2, 1, 1}));

// Every configuration knob must preserve exact FP64 results.
class BatchedConfigTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchedConfigTest, ConfigVariantsAllAgree) {
  const int variant = GetParam();
  KernelConfig config;
  config.fuse_gemms = variant & 1;
  config.use_swizzle = variant & 2;
  config.gemm.ilp = 1 << (variant % 5);
  config.gemm.tile_m = (variant & 4) ? 16 : 48;
  config.gemm.tile_n = (variant & 1) ? 32 : 48;

  for (const EriClassKey& key :
       {EriClassKey{2, 2, 2, 2, 1, 1}, EriClassKey{1, 1, 0, 0, 4, 2}}) {
    EXPECT_LT(compare_batch_to_reference(key, config, 4, 11), 1e-11)
        << key.name() << " variant=" << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, BatchedConfigTest,
                         ::testing::Range(0, 8));

TEST(BatchedEriTest, ClassifyReadsShells) {
  const EriClassKey key{2, 1, 1, 0, 6, 3};
  const CalibrationBatch batch = make_calibration_batch(key, 1, 1);
  const EriClassKey derived = BatchedEriEngine::classify(batch.quartets[0]);
  EXPECT_EQ(derived, key);
}

TEST(BatchedEriTest, HeterogeneousBatchRejected) {
  const CalibrationBatch b1 =
      make_calibration_batch(EriClassKey{1, 1, 1, 1, 1, 1}, 1, 1);
  const EriClassKey wrong{2, 2, 2, 2, 1, 1};
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  EXPECT_THROW(engine.compute_batch(
                   wrong, std::span<const QuartetRef>(b1.quartets), out),
               std::invalid_argument);
}

TEST(BatchedEriTest, EmptyBatchIsNoop) {
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out{{1.0}};
  const BatchStats stats = engine.compute_batch(
      EriClassKey{0, 0, 0, 0, 1, 1}, {}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.kernel_launches, 0);
}

TEST(BatchedEriTest, StatsAccumulateWork) {
  const EriClassKey key{2, 2, 2, 2, 1, 1};
  const CalibrationBatch batch = make_calibration_batch(key, 4, 2);
  BatchedEriEngine engine;
  std::vector<std::vector<double>> out;
  const BatchStats stats = engine.compute_batch(
      key, std::span<const QuartetRef>(batch.quartets), out);
  EXPECT_GT(stats.gemm_flops, 0.0);
  EXPECT_GT(stats.scalar_flops, 0.0);
  EXPECT_GT(stats.global_bytes, 0.0);
  EXPECT_GT(stats.kernel_launches, 0);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(BatchedEriTest, UnfusedLaunchesMoreKernels) {
  const EriClassKey key{2, 2, 2, 2, 1, 1};
  const CalibrationBatch batch = make_calibration_batch(key, 4, 2);
  std::vector<std::vector<double>> out;

  KernelConfig fused;
  fused.fuse_gemms = true;
  KernelConfig unfused;
  unfused.fuse_gemms = false;
  unfused.use_swizzle = false;

  const BatchStats sf = BatchedEriEngine(fused).compute_batch(
      key, std::span<const QuartetRef>(batch.quartets), out);
  const BatchStats su = BatchedEriEngine(unfused).compute_batch(
      key, std::span<const QuartetRef>(batch.quartets), out);
  EXPECT_LT(sf.kernel_launches, su.kernel_launches);
  EXPECT_LT(sf.global_bytes, su.global_bytes);
}

TEST(BatchedEriTest, GroupScalingImprovesFp16Accuracy) {
  const EriClassKey key{2, 2, 2, 2, 1, 1};
  KernelConfig with;
  with.gemm.precision = Precision::kFP16;
  with.group_scaling = true;
  KernelConfig without = with;
  without.group_scaling = false;

  const double err_with = compare_batch_to_reference(key, with, 4, 3);
  const double err_without = compare_batch_to_reference(key, without, 4, 3);
  EXPECT_LE(err_with, err_without * 1.5 + 1e-12);
}

TEST(BatchedEriTest, DualStageAccumulationBeatsNaiveFp16) {
  // The Table-2 contrast: QuantMako's FP32 in-kernel accumulation must be
  // at least as accurate as the naive FP16-accumulator kernel on contracted
  // classes (where many partial sums accumulate).
  const EriClassKey key{2, 2, 2, 2, 4, 4};
  KernelConfig dual;
  dual.gemm.precision = Precision::kFP16;
  dual.dual_stage_accumulation = true;
  KernelConfig naive = dual;
  naive.dual_stage_accumulation = false;
  const double err_dual = compare_batch_to_reference(key, dual, 3, 21);
  const double err_naive = compare_batch_to_reference(key, naive, 3, 21);
  EXPECT_LE(err_dual, err_naive * 1.2 + 1e-12);
}

TEST(BatchedEriTest, PrecisionErrorOrdering) {
  // FP32 < TF32 <= FP16 quantization error on the same batch.
  const EriClassKey key{2, 1, 2, 1, 2, 2};
  auto err_at = [&](Precision p) {
    KernelConfig config;
    config.gemm.precision = p;
    return compare_batch_to_reference(key, config, 4, 9);
  };
  const double e32 = err_at(Precision::kFP32);
  const double etf = err_at(Precision::kTF32);
  const double e16 = err_at(Precision::kFP16);
  EXPECT_LT(e32, e16);
  EXPECT_LE(e32, etf * 1.01 + 1e-15);
  EXPECT_LE(etf, e16 * 1.5 + 1e-15);
}

// --- Plan-resident pair data: bit-identity with on-the-fly pairs -------------

/// One class-homogeneous batch, as bare refs (pairs built on the fly) and as
/// the same refs carrying the plan's pair data.
struct PairDataBatch {
  EriClassKey key;
  std::vector<QuartetRef> bare, with_data;
};

/// Up to `per_class` quartets of every ERI class of the plan's basis, spread
/// over the class so one batch mixes distinct pairs, in FockBuilder's
/// canonical roles (bra = the lexicographically greater pair).
std::vector<PairDataBatch> every_class(const FockPlan& plan,
                                       std::size_t per_class) {
  const std::vector<FockShellPair>& pairs = plan.pairs();
  std::map<EriClassKey, std::vector<std::pair<std::size_t, std::size_t>>>
      by_class;
  for (std::size_t bi = 0; bi < pairs.size(); ++bi) {
    for (std::size_t ki = bi; ki < pairs.size(); ++ki) {
      std::size_t b = bi, k = ki;
      if (pairs[k].i1 > pairs[b].i1 ||
          (pairs[k].i1 == pairs[b].i1 && pairs[k].i2 > pairs[b].i2)) {
        std::swap(b, k);
      }
      const EriClassKey& key =
          plan.quartet_classes()[plan.class_slot(pairs[b].klass,
                                                 pairs[k].klass)];
      by_class[key].emplace_back(b, k);
    }
  }
  std::vector<PairDataBatch> batches;
  for (const auto& [key, quartets] : by_class) {
    PairDataBatch batch;
    batch.key = key;
    const std::size_t stride =
        std::max<std::size_t>(1, quartets.size() / per_class);
    for (std::size_t i = 0; i < quartets.size() && batch.bare.size() < per_class;
         i += stride) {
      const FockShellPair& bra = pairs[quartets[i].first];
      const FockShellPair& ket = pairs[quartets[i].second];
      batch.bare.push_back(QuartetRef{bra.s1, bra.s2, ket.s1, ket.s2});
      batch.with_data.push_back(
          QuartetRef{bra.s1, bra.s2, ket.s1, ket.s2,
                     &plan.pair_data()[quartets[i].first],
                     &plan.pair_data()[quartets[i].second]});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

KernelConfig kernel_config(const std::string& name) {
  KernelConfig config;
  if (name == "fp32") config.gemm.precision = Precision::kFP32;
  if (name == "tf32") config.gemm.precision = Precision::kTF32;
  if (name == "fp16" || name == "fp16_naive") {
    config.gemm.precision = Precision::kFP16;
  }
  if (name == "fp16_naive") config.dual_stage_accumulation = false;
  if (name == "fp64_unfused") {
    config.fuse_gemms = false;
    config.use_swizzle = false;
  }
  return config;
}

class PairDataIdentityTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(PairDataIdentityTest, PlanPairDataGivesByteIdenticalBatches) {
  const auto& [basis, config_name] = GetParam();
  const Molecule w = make_water();
  const BasisSet bs(w, basis);
  const FockPlan plan(bs, ThreadPool::global());
  const BatchedEriEngine engine(kernel_config(config_name));

  std::vector<std::vector<double>> bare_out, data_out;
  const std::vector<PairDataBatch> batches = every_class(plan, 2);
  ASSERT_FALSE(batches.empty());
  for (const PairDataBatch& batch : batches) {
    engine.compute_batch(batch.key, std::span<const QuartetRef>(batch.bare),
                         bare_out);
    engine.compute_batch(batch.key,
                         std::span<const QuartetRef>(batch.with_data),
                         data_out);
    ASSERT_EQ(bare_out.size(), data_out.size());
    for (std::size_t q = 0; q < bare_out.size(); ++q) {
      ASSERT_EQ(bare_out[q].size(), data_out[q].size());
      EXPECT_EQ(std::memcmp(bare_out[q].data(), data_out[q].data(),
                            bare_out[q].size() * sizeof(double)),
                0)
          << "class " << batch.key.name() << " quartet " << q;
    }
  }
}

// The naive binary16 accumulator is emulated element by element and takes
// minutes on the g-shell classes, so it runs on 6-31G only.
INSTANTIATE_TEST_SUITE_P(
    BasesAndFormats, PairDataIdentityTest,
    ::testing::Values(std::make_tuple("def2-qzvp", "fp64"),
                      std::make_tuple("def2-qzvp", "fp64_unfused"),
                      std::make_tuple("def2-qzvp", "fp32"),
                      std::make_tuple("def2-qzvp", "tf32"),
                      std::make_tuple("def2-qzvp", "fp16"),
                      std::make_tuple("6-31g", "fp64"),
                      std::make_tuple("6-31g", "fp64_unfused"),
                      std::make_tuple("6-31g", "fp32"),
                      std::make_tuple("6-31g", "tf32"),
                      std::make_tuple("6-31g", "fp16"),
                      std::make_tuple("6-31g", "fp16_naive")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == "6-31g" ? "W631g" : "WQzvp";
      return name + "_" + std::get<1>(info.param);
    });

TEST(BatchedEriTest, MixedPairPointersMatchBareRefs) {
  // Within one batch, some quartets carry pair data and some do not; each
  // null pointer is built on the fly beside the plan-resident ones.
  const Molecule w = make_water();
  const BasisSet bs(w, "6-31g");
  const FockPlan plan(bs, ThreadPool::global());
  KernelConfig config;
  config.gemm.precision = Precision::kFP16;
  const BatchedEriEngine engine(config);
  std::vector<std::vector<double>> bare_out, mixed_out;
  for (PairDataBatch& batch : every_class(plan, 6)) {
    for (std::size_t q = 0; q < batch.with_data.size(); ++q) {
      if (q % 3 == 1) batch.with_data[q].bra = nullptr;
      if (q % 3 == 2) batch.with_data[q].ket = nullptr;
    }
    engine.compute_batch(batch.key, std::span<const QuartetRef>(batch.bare),
                         bare_out);
    engine.compute_batch(batch.key,
                         std::span<const QuartetRef>(batch.with_data),
                         mixed_out);
    for (std::size_t q = 0; q < bare_out.size(); ++q) {
      EXPECT_EQ(std::memcmp(bare_out[q].data(), mixed_out[q].data(),
                            bare_out[q].size() * sizeof(double)),
                0)
          << "class " << batch.key.name() << " quartet " << q;
    }
  }
}

}  // namespace
}  // namespace mako
