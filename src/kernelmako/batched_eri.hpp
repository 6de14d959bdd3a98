// KernelMako: the matrix-aligned batched ERI engine (Section 3.1).
//
// Implements Algorithm 1 of the paper: for each primitive-pair combination,
// compute r-integrals (Eq. 4-5), assemble two-index Hermite [p~|q~] matrices
// (Eq. 6), and execute the Hermite->AO basis transformation as GEMMs
// (Eq. 7):
//
//     (ab|q~]  += E_AB^T x [p~|q~]        (per bra primitive pair)
//     (ab|cd)  += (ab|q~] x E_CD          (per ket primitive pair)
//
// The three operator-level optimizations are all present and toggleable so
// the Fig-7 ablation can isolate them:
//   * Implicit instruction parallelism — the GEMM micro-kernels carry a
//     CUTLASS-style unroll factor (GemmConfig::ilp);
//   * Lightweight layout swizzle — the batch's r-integrals are produced in
//     striped layout (the coalesced-write order) and converted to the
//     blocked layout MatMul requires through XOR-swizzled tiles;
//   * GEMM coalescing — for K_AB = K_CD = 1 classes the two GEMMs fuse,
//     keeping (ab|q~] in a hot on-chip-sized staging tile (Eq. 11).
//
// Quantized execution (QuantMako, Section 3.2) plugs in through the same
// config: the basis-transformation GEMMs run at FP16/TF32 with group scaling
// and FP32 accumulation; r/pq stages stay FP64 (stage-aware quantization).
#pragma once

#include <span>
#include <vector>

#include "accel/device.hpp"
#include "basis/basis_set.hpp"
#include "integrals/hermite.hpp"
#include "kernelmako/class_plan.hpp"
#include "kernelmako/eri_class.hpp"
#include "linalg/backend.hpp"

namespace mako {

/// One shell quartet to evaluate.  All quartets of a batch must share the
/// same EriClassKey.
///
/// `bra` and `ket` optionally point at precomputed data of the pairs (a, b)
/// and (c, d) — FockBuilder routing fills them from its FockPlan, whose
/// storage outlives the batch.  compute_batch reads primitive pairs and E
/// operands through these pointers; a null pointer (the default, so the
/// four-shell form `QuartetRef{a, b, c, d}` still works) makes it build that
/// pair with make_shell_pair_data into its scratch arena first.  Both ways
/// give bit-identical results.
struct QuartetRef {
  const Shell* a = nullptr;
  const Shell* b = nullptr;
  const Shell* c = nullptr;
  const Shell* d = nullptr;
  const ShellPairData* bra = nullptr;  ///< data of (a, b), or null
  const ShellPairData* ket = nullptr;  ///< data of (c, d), or null
};

/// Kernel configuration (what CompilerMako tunes).
struct KernelConfig {
  GemmConfig gemm{};            ///< tile shape + ILP factor + precision
  bool fuse_gemms = true;       ///< GEMM coalescing when K_AB == K_CD == 1
  bool use_swizzle = true;      ///< swizzled striped->blocked conversion
  bool group_scaling = true;    ///< per-class scaling in quantized mode
  /// FP32 in-kernel accumulation with FP64 hand-off (Section 3.2.2).  When
  /// false in FP16 mode, the Table-2 "Baseline FP16" kernel (naive binary16
  /// accumulator) runs instead.
  bool dual_stage_accumulation = true;

  [[nodiscard]] bool quantized() const noexcept {
    return gemm.precision != Precision::kFP64;
  }
};

/// Work/statistics record of a batch execution, consumed by the device
/// time model and the benchmark harnesses.
struct BatchStats {
  double gemm_flops = 0.0;
  double scalar_flops = 0.0;
  double global_bytes = 0.0;
  int kernel_launches = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] KernelWork work(Precision p) const {
    return KernelWork{gemm_flops, scalar_flops, global_bytes, kernel_launches,
                      p};
  }
};

/// Batched matrix-aligned ERI engine.
///
/// Every basis-transformation GEMM dispatches through a GemmBackend; the
/// ExecutionContext (via FockBuilder) injects the run's backend and plan
/// cache.  When none is injected the engine pins the registry's built-in
/// default backend — deliberately ignoring the MAKO_BACKEND ambient override
/// so direct unit tests of quantized kernel numerics stay deterministic.
/// Quantized execution additionally requires the backend's `quantized`
/// capability; without it the transform GEMMs degrade to exact FP64.
class BatchedEriEngine {
 public:
  explicit BatchedEriEngine(KernelConfig config = {},
                            const GemmBackend* backend = nullptr,
                            EriPlanCache* plans = nullptr)
      : config_(config), backend_(backend), plans_(plans) {}

  [[nodiscard]] const KernelConfig& config() const noexcept { return config_; }
  void set_config(const KernelConfig& config) noexcept { config_ = config; }

  /// The backend this engine dispatches through.
  [[nodiscard]] const GemmBackend& backend() const;

  /// Computes spherical quartets for a class-homogeneous batch.
  /// out is resized to batch.size(); out[i] is row-major
  /// [nsph(la)][nsph(lb)][nsph(lc)][nsph(ld)].
  /// Returns execution statistics.
  ///
  /// Resolves the class plan from the process-wide cache and executes on a
  /// thread-local scratch arena — steady-state calls are allocation-free.
  BatchStats compute_batch(const EriClassKey& key,
                           std::span<const QuartetRef> batch,
                           std::vector<std::vector<double>>& out) const;

  /// Plan-explicit variant: executes against a pre-resolved class plan and a
  /// caller-owned scratch arena (one per thread).  Callers whose batches are
  /// pre-classified by construction (FockPlan routing emits class-segmented
  /// spans) pass `verify_class = false` to skip the per-quartet homogeneity
  /// checks on the hot path.
  BatchStats compute_batch(const EriClassPlan& plan,
                           std::span<const QuartetRef> batch,
                           std::vector<std::vector<double>>& out,
                           EriScratch& scratch,
                           bool verify_class = true) const;

  /// Derives the class key of a quartet (contraction degrees included).
  static EriClassKey classify(const QuartetRef& q);

 private:
  KernelConfig config_;
  const GemmBackend* backend_;  ///< null -> registry default
  EriPlanCache* plans_;         ///< null -> process-wide cache
};

}  // namespace mako
