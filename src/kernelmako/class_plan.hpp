// Batch-persistent ERI execution plans (CompilerMako's static planning,
// Section 3.3, realized as data).
//
// Every quartet of one ERI class follows the same static execution pattern:
// identical intermediate shapes, identical Hermite index algebra, identical
// spherical transforms.  An EriClassPlan bakes all of that class-static state
// once — the (-1)^{|q~|} sign table, the combined Hermite index table of
// Eq. 6, the cart->sph pair transforms — and is cached process-wide, so
// BatchedEriEngine::compute_batch does no per-batch table rebuilding.
//
// EriScratch is the companion per-thread workspace arena: every working
// buffer of a batch execution lives here and is reused across batches, which
// makes the steady-state hot path allocation-free (asserted by the
// allocation-count test).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "integrals/hermite.hpp"
#include "kernelmako/eri_class.hpp"
#include "linalg/matrix.hpp"

namespace mako {

/// Immutable per-class execution plan, shared across engines and threads.
class EriClassPlan {
 public:
  explicit EriClassPlan(const EriClassKey& key);

  /// Shorthand for EriPlanCache::process().get(key) — the process-wide cache.
  static const EriClassPlan& get(const EriClassKey& key);

  /// Number of distinct plans in the process-wide cache.
  static std::size_t cache_size();

  [[nodiscard]] const EriClassKey& key() const noexcept { return key_; }

  // Cached dimensions (all derivable from the key; cached to keep the hot
  // loop free of recomputation).
  int nhb = 0;   ///< Hermite components of the bra pair
  int nhk = 0;   ///< Hermite components of the ket pair
  int nht = 0;   ///< Hermite components of the total order
  int ncb = 0;   ///< Cartesian pair size, bra
  int nck = 0;   ///< Cartesian pair size, ket
  int nsb = 0;   ///< spherical pair size, bra
  int nsk = 0;   ///< spherical pair size, ket
  int ltot = 0;  ///< total angular momentum

  /// (-1)^{|q~|} per ket Hermite component (Eq. 6).
  std::vector<double> sign_cd;
  /// combined[hp * nhk + hq] = total-order Hermite index of p~+q~.
  std::vector<int> combined;

  /// Cart->sph pair transform of the bra, [nsb x ncb] (borrowed from the
  /// process-wide spherical cache; stable for the program lifetime).
  const MatrixD* sph_bra = nullptr;
  /// Cart->sph pair transform of the ket, [nsk x nck].
  const MatrixD* sph_ket = nullptr;

 private:
  EriClassKey key_;
};

/// Cache of EriClassPlan instances, keyed by ERI class.  Plans are built on
/// first lookup, never evicted (they are small and class-static), and handed
/// out by stable reference.  Thread-safe; lookups after first construction
/// are allocation-free.
///
/// ExecutionContext owns the cache used by a run (normally the process-wide
/// instance so tuned plans are shared across engines); isolated instances
/// exist for tests that need cache-size determinism.
class EriPlanCache {
 public:
  EriPlanCache() = default;
  EriPlanCache(const EriPlanCache&) = delete;
  EriPlanCache& operator=(const EriPlanCache&) = delete;

  /// The process-wide cache (leaky singleton).
  static EriPlanCache& process();

  const EriClassPlan& get(const EriClassKey& key);
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<EriClassKey, std::unique_ptr<EriClassPlan>> plans_;
};

/// Reusable working-buffer arena for one thread's batch executions.  Buffers
/// grow to the high-water mark of the classes seen and are never shrunk;
/// after warm-up, compute_batch performs zero heap allocations.
struct EriScratch {
  // Per-quartet shell-pair data, read through these pointers for every
  // quartet: the plan-resident copy (QuartetRef::bra/ket) when given, else
  // an entry of fly_data.
  std::vector<const ShellPairData*> bra_data, ket_data;
  // On-the-fly pair storage for quartets without plan data: two
  // ShellPairData views per quartet over fly_prims / fly_e.
  std::vector<ShellPairData> fly_data;
  std::vector<PrimPair> fly_prims;
  std::vector<double> fly_e;
  // Quantized route only: the batch's E operands times the group scale,
  // bra_e row-major [nhb x ncb] per (q, jp), ket_e [nhk x nck] per (q, kp).
  std::vector<double> bra_e, ket_e;
  // Quantized-operand caches: the E arenas rounded to the kernel precision
  // once per batch instead of once per GEMM call.
  std::vector<float> q_bra, q_ket, q_dyn;
  // r-integral staging, [p~|q~] assembly, and transform intermediates.
  std::vector<double> r_striped, r_blocked, r_tmp, abq, cart, pq_one, pq_all,
      sph_tmp;
};

}  // namespace mako
