#include "kernelmako/batched_eri.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "basis/spherical.hpp"
#include "integrals/hermite.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault_injector.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Striped -> blocked conversion of the batch r-integral tensor.
/// striped[h * nq + q] -> blocked[q * nh + h].
///
/// The swizzled variant stages 32x32 tiles through a TileBuffer using the
/// XOR layout of Eq. 10: rows are written in striped order and columns read
/// in blocked order, both conflict-free — this is the in-SMEM transpose of
/// Section 3.1.2.  The naive variant models the direct strided gather.
void striped_to_blocked(const double* striped, double* blocked, std::size_t nh,
                        std::size_t nq, bool use_swizzle) {
  if (!use_swizzle) {
    for (std::size_t h = 0; h < nh; ++h) {
      for (std::size_t q = 0; q < nq; ++q) {
        blocked[q * nh + h] = striped[h * nq + q];
      }
    }
    return;
  }

  // Tiled transpose through a swizzled 32x32 staging tile.  The XOR column
  // mapping (Eq. 10) is applied inline; on the host this doubles as a
  // cache-blocked transpose, on the modeled device it is the conflict-free
  // in-SMEM layout conversion (verified separately via TileBuffer).
  constexpr std::size_t kTile = 32;
  double tile[kTile * kTile];
  for (std::size_t h0 = 0; h0 < nh; h0 += kTile) {
    const std::size_t hN = std::min(kTile, nh - h0);
    for (std::size_t q0 = 0; q0 < nq; q0 += kTile) {
      const std::size_t qN = std::min(kTile, nq - q0);
      // Coalesced load: lanes sweep q for each h row; store swizzled.
      for (std::size_t h = 0; h < hN; ++h) {
        const double* src = striped + (h0 + h) * nq + q0;
        double* row = tile + h * kTile;
        for (std::size_t q = 0; q < qN; ++q) row[q ^ h] = src[q];
      }
      // Conflict-free transposed read: lanes sweep h for each q.
      for (std::size_t q = 0; q < qN; ++q) {
        double* dst = blocked + (q0 + q) * nh + h0;
        for (std::size_t h = 0; h < hN; ++h) dst[h] = tile[h * kTile + (q ^ h)];
      }
    }
  }
}

/// Builds the [p~|q~] matrix (Eq. 6) of one quartet from its blocked
/// r-integrals: pq(hp, hq) = (-1)^{|q~|} R_{p~+q~}, optionally scaled.
void assemble_pq(const double* r, const int* combined, const double* sign_cd,
                 int nhb, int nhk, double scale, double* pq) {
  for (int hp = 0; hp < nhb; ++hp) {
    const int* comb = combined + static_cast<std::size_t>(hp) * nhk;
    double* row = pq + static_cast<std::size_t>(hp) * nhk;
    for (int hq = 0; hq < nhk; ++hq) {
      row[hq] = scale * sign_cd[hq] * r[comb[hq]];
    }
  }
}

double max_abs(const double* p, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

void scale_copy(const double* src, std::size_t n, double s, double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * s;
}

}  // namespace

EriClassKey BatchedEriEngine::classify(const QuartetRef& q) {
  EriClassKey key;
  key.la = q.a->l;
  key.lb = q.b->l;
  key.lc = q.c->l;
  key.ld = q.d->l;
  key.kab = q.a->nprim() * q.b->nprim();
  key.kcd = q.c->nprim() * q.d->nprim();
  return key;
}

const GemmBackend& BatchedEriEngine::backend() const {
  return backend_ != nullptr
             ? *backend_
             : resolve_gemm_backend(GemmBackendRegistry::kDefaultName);
}

BatchStats BatchedEriEngine::compute_batch(
    const EriClassKey& key, std::span<const QuartetRef> batch,
    std::vector<std::vector<double>>& out) const {
  static thread_local EriScratch scratch;
  EriPlanCache& plans =
      plans_ != nullptr ? *plans_ : EriPlanCache::process();
  return compute_batch(plans.get(key), batch, out, scratch);
}

BatchStats BatchedEriEngine::compute_batch(
    const EriClassPlan& plan, std::span<const QuartetRef> batch,
    std::vector<std::vector<double>>& out, EriScratch& scratch,
    bool verify_class) const {
  Timer timer;
  BatchStats stats;
  const EriClassKey& key = plan.key();
  const std::size_t nq = batch.size();
  out.resize(nq);
  if (nq == 0) return stats;

  obs::TraceSpan span(obs::TraceCat::kKernel, "kernelmako.batch");
  if (span.active()) {
    char args[96];
    std::snprintf(args, sizeof args,
                  "\"class\":\"(%d%d|%d%d)\",\"quartets\":%zu", key.la, key.lb,
                  key.lc, key.ld, nq);
    span.set_args(args);
  }
  MAKO_METRIC_COUNT("kernel.batches", 1);
  MAKO_METRIC_COUNT("kernel.quartets",
                    static_cast<std::int64_t>(nq));

  const int nhb = plan.nhb;
  const int nhk = plan.nhk;
  const int ncb = plan.ncb;
  const int nck = plan.nck;
  const int nht = plan.nht;
  const int ltot = plan.ltot;
  const std::size_t kab = static_cast<std::size_t>(key.kab);
  const std::size_t kcd = static_cast<std::size_t>(key.kcd);

  if (verify_class) {
    for (const QuartetRef& ref : batch) {
      if (ref.a->l != key.la || ref.b->l != key.lb || ref.c->l != key.lc ||
          ref.d->l != key.ld) {
        throw std::invalid_argument("compute_batch: heterogeneous batch");
      }
      if (ref.a->nprim() * ref.b->nprim() != key.kab ||
          ref.c->nprim() * ref.d->nprim() != key.kcd) {
        throw std::invalid_argument(
            "compute_batch: contraction degree mismatch with class key");
      }
    }
  }

  // --- Shell-pair data: primitive pairs and E operands ----------------------
  // Both depend on the shell pair alone.  Every quartet reads them through a
  // pointer: the plan-resident copy when the QuartetRef carries one, else a
  // copy built here into the arena (sized up front so no pointer into it
  // moves).  E_AB stays in its natural [nhb x ncb] layout; GEMM1 consumes it
  // through the packed kernel's native transpose (no copies).
  const std::size_t e_bra_sz = static_cast<std::size_t>(nhb) * ncb;
  const std::size_t e_ket_sz = static_cast<std::size_t>(nhk) * nck;
  const std::size_t fly_e_stride = kab * e_bra_sz + kcd * e_ket_sz;
  const bool any_fly =
      std::any_of(batch.begin(), batch.end(), [](const QuartetRef& r) {
        return r.bra == nullptr || r.ket == nullptr;
      });
  if (any_fly) {
    scratch.fly_data.resize(2 * nq);
    scratch.fly_prims.resize(nq * (kab + kcd));
    scratch.fly_e.resize(nq * fly_e_stride);
  }
  scratch.bra_data.resize(nq);
  scratch.ket_data.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    const QuartetRef& ref = batch[q];
    const ShellPairData* bra = ref.bra;
    const ShellPairData* ket = ref.ket;
    if (bra == nullptr) {
      scratch.fly_data[2 * q] = make_shell_pair_data(
          *ref.a, *ref.b, scratch.fly_prims.data() + q * (kab + kcd),
          scratch.fly_e.data() + q * fly_e_stride);
      bra = &scratch.fly_data[2 * q];
    }
    if (ket == nullptr) {
      scratch.fly_data[2 * q + 1] = make_shell_pair_data(
          *ref.c, *ref.d, scratch.fly_prims.data() + q * (kab + kcd) + kab,
          scratch.fly_e.data() + q * fly_e_stride + kab * e_bra_sz);
      ket = &scratch.fly_data[2 * q + 1];
    }
    scratch.bra_data[q] = bra;
    scratch.ket_data[q] = ket;
  }

  // --- Group scaling for quantized execution (Section 3.2.1) ----------------
  // Scales are per class & per operand group; dequantization happens at the
  // FP32->FP64 widening of each GEMM (dual-stage accumulation).  The group
  // maximum is the max of the stored per-pair maxima, and the scaled E
  // operands are per-batch copies — pair data is never written.
  // Quantized execution needs the backend's reduced-precision datapath; on a
  // backend without it every transform GEMM runs exact FP64 instead.
  const GemmBackend& be = backend();
  const bool quant = config_.quantized() && be.capabilities().quantized;
  double s_bra = 1.0, s_ket = 1.0;
  if (quant) {
    if (config_.group_scaling) {
      double m_bra = 0.0, m_ket = 0.0;
      for (std::size_t q = 0; q < nq; ++q) {
        m_bra = std::max(m_bra, scratch.bra_data[q]->e_max);
        m_ket = std::max(m_ket, scratch.ket_data[q]->e_max);
      }
      if (m_bra > 0.0) s_bra = 1.0 / m_bra;
      if (m_ket > 0.0) s_ket = 1.0 / m_ket;
    }
    scratch.bra_e.resize(nq * kab * e_bra_sz);
    scratch.ket_e.resize(nq * kcd * e_ket_sz);
    for (std::size_t q = 0; q < nq; ++q) {
      scale_copy(scratch.bra_data[q]->e, kab * e_bra_sz, s_bra,
                 scratch.bra_e.data() + q * kab * e_bra_sz);
      scale_copy(scratch.ket_data[q]->e, kcd * e_ket_sz, s_ket,
                 scratch.ket_e.data() + q * kcd * e_ket_sz);
    }
  }

  const GemmConfig& gc = config_.gemm;
  const bool naive_fp16 = quant && gc.precision == Precision::kFP16 &&
                          !config_.dual_stage_accumulation;

  // --- Quantized-operand cache ----------------------------------------------
  // The E operands are invariant across the batch: round them to the kernel
  // precision once here, instead of once per GEMM call inside the loops.
  const bool use_qcache = quant && !naive_fp16;
  if (use_qcache) {
    scratch.q_bra.resize(scratch.bra_e.size());
    scratch.q_ket.resize(scratch.ket_e.size());
    quantize_to_float(scratch.bra_e.data(), scratch.q_bra.data(),
                      scratch.bra_e.size(), gc.precision);
    quantize_to_float(scratch.ket_e.data(), scratch.q_ket.data(),
                      scratch.ket_e.size(), gc.precision);
    scratch.q_dyn.resize(std::max(static_cast<std::size_t>(nhb) * nhk,
                                  static_cast<std::size_t>(ncb) * nhk));
    // Injection site: corrupt one element of the quantized bra E-operand
    // cache (models a faulty tensor-core operand tile).  The corruption flows
    // through GEMM1 into every quartet sharing the tile, exactly the blast
    // radius a real bad tile would have.
    if (MAKO_FAULT_POINT("kernelmako.quant_e_tile")) {
      FaultInjector::instance().corrupt("kernelmako.quant_e_tile",
                                        scratch.q_bra.data(),
                                        scratch.q_bra.size());
    }
  }

  // --- Working buffers (arena-backed; no steady-state allocation) -----------
  const std::size_t abq_stride = static_cast<std::size_t>(ncb) * nhk;
  const std::size_t cart_stride = static_cast<std::size_t>(ncb) * nck;
  scratch.r_striped.resize(static_cast<std::size_t>(nht) * nq);
  scratch.r_blocked.resize(scratch.r_striped.size());
  scratch.r_tmp.resize(nht);
  scratch.abq.resize(nq * abq_stride);
  scratch.cart.assign(nq * cart_stride, 0.0);
  scratch.pq_one.resize(static_cast<std::size_t>(nhb) * nhk);
  // Unfused mode stages every quartet's [p~|q~] through "global memory".
  const bool fully_fused =
      config_.fuse_gemms && key.kab == 1 && key.kcd == 1;
  const bool stage_pq_globally = !config_.fuse_gemms;
  if (stage_pq_globally) scratch.pq_all.resize(nq * scratch.pq_one.size());

  // GEMM1 dispatch: C[ncb x nhk] += alpha * E_AB^T x [p~|q~].  The bra
  // operand enters through the native transpose; the quantized route reads
  // the batch-persistent operand cache.
  auto run_gemm1 = [&](std::size_t q, std::size_t jp, const double* pq,
                       double* c, double alpha) {
    if (naive_fp16) {
      be.fp16_baseline(scratch.bra_e.data() + (q * kab + jp) * e_bra_sz, pq, c,
                       ncb, nhk, nhb, alpha, 1.0, /*trans_a=*/true);
    } else if (quant) {
      quantize_to_float(pq, scratch.q_dyn.data(),
                        static_cast<std::size_t>(nhb) * nhk, gc.precision);
      be.mixed(scratch.q_bra.data() + (q * kab + jp) * e_bra_sz,
               /*trans_a=*/true, scratch.q_dyn.data(), false, c, ncb, nhk, nhb,
               alpha, 1.0, gc);
    } else {
      be.fp64(scratch.bra_data[q]->e + jp * e_bra_sz, /*trans_a=*/true, pq,
              false, c, ncb, nhk, nhb, alpha, 1.0, gc);
    }
    stats.gemm_flops += gemm_flops(ncb, nhk, nhb);
  };

  // GEMM2 dispatch: C[ncb x nck] += alpha * (ab|q~] x E_CD.
  auto run_gemm2 = [&](std::size_t q, std::size_t kp, const double* abq_slice,
                       double* c, double alpha) {
    if (naive_fp16) {
      be.fp16_baseline(abq_slice,
                       scratch.ket_e.data() + (q * kcd + kp) * e_ket_sz, c,
                       ncb, nck, nhk, alpha, 1.0);
    } else if (quant) {
      quantize_to_float(abq_slice, scratch.q_dyn.data(), abq_stride,
                        gc.precision);
      be.mixed(scratch.q_dyn.data(), false,
               scratch.q_ket.data() + (q * kcd + kp) * e_ket_sz, false, c, ncb,
               nck, nhk, alpha, 1.0, gc);
    } else {
      be.fp64(abq_slice, false, scratch.ket_data[q]->e + kp * e_ket_sz, false,
              c, ncb, nck, nhk, alpha, 1.0, gc);
    }
    stats.gemm_flops += gemm_flops(ncb, nck, nhk);
  };

  for (std::size_t kp = 0; kp < kcd; ++kp) {
    // (ab|q~] accumulates bra primitive pairs for this ket pair only.
    std::fill(scratch.abq.begin(), scratch.abq.end(), 0.0);
    for (std::size_t jp = 0; jp < kab; ++jp) {
      // Stage 1: r-integrals, produced striped (quartet-fastest), the order
      // a quartet-per-thread kernel writes coalesced.
      for (std::size_t q = 0; q < nq; ++q) {
        const PrimPair& bra = scratch.bra_data[q]->prims[jp];
        const PrimPair& ket = scratch.ket_data[q]->prims[kp];
        const double denom = bra.p * ket.p * std::sqrt(bra.p + ket.p);
        const double pref = 2.0 * std::pow(kPi, 2.5) / denom;
        const double alpha_rq = bra.p * ket.p / (bra.p + ket.p);
        const Vec3 pq_vec{bra.center[0] - ket.center[0],
                          bra.center[1] - ket.center[1],
                          bra.center[2] - ket.center[2]};
        compute_r_integrals(ltot, alpha_rq, pq_vec, pref,
                            scratch.r_tmp.data());
        for (int h = 0; h < nht; ++h) {
          scratch.r_striped[static_cast<std::size_t>(h) * nq + q] =
              scratch.r_tmp[h];
        }
      }
      stats.scalar_flops += static_cast<double>(nq) * nht * (ltot + 2) * 4.0;
      stats.global_bytes += 8.0 * nq * nht;
      stats.kernel_launches += 1;

      // Stage 2: layout conversion (swizzled in-SMEM transpose vs explicit
      // global transpose — the latter costs an extra kernel + traffic).
      striped_to_blocked(scratch.r_striped.data(), scratch.r_blocked.data(),
                         nht, nq, config_.use_swizzle);
      if (!config_.use_swizzle) {
        stats.global_bytes += 16.0 * nq * nht;
        stats.kernel_launches += 1;
      }

      // Quantized pq scale for this primitive-pair slice.
      double s_pq = 1.0;
      if (quant && config_.group_scaling) {
        const double m =
            max_abs(scratch.r_blocked.data(), scratch.r_blocked.size());
        if (m > 0.0) s_pq = 1.0 / m;
      }
      const double dequant = 1.0 / (s_pq * s_bra);

      // Stage 3: pq assembly + GEMM1 (Eq. 7 first transform).
      if (stage_pq_globally) {
        // Unfused: one kernel writes all [p~|q~] to global memory...
        for (std::size_t q = 0; q < nq; ++q) {
          assemble_pq(scratch.r_blocked.data() + q * nht, plan.combined.data(),
                      plan.sign_cd.data(), nhb, nhk, s_pq,
                      scratch.pq_all.data() + q * scratch.pq_one.size());
        }
        stats.global_bytes +=
            2.0 * static_cast<double>(bytes_per_element(gc.precision)) * nq *
            scratch.pq_one.size();
        stats.kernel_launches += 1;
        // ... and a second kernel runs the batched GEMM over them.
        for (std::size_t q = 0; q < nq; ++q) {
          run_gemm1(q, jp, scratch.pq_all.data() + q * scratch.pq_one.size(),
                    scratch.abq.data() + q * abq_stride,
                    quant ? dequant : 1.0);
        }
        stats.kernel_launches += 1;
      } else {
        // Fused: assembly feeds the GEMM while the tile is hot.
        for (std::size_t q = 0; q < nq; ++q) {
          assemble_pq(scratch.r_blocked.data() + q * nht, plan.combined.data(),
                      plan.sign_cd.data(), nhb, nhk, s_pq,
                      scratch.pq_one.data());
          run_gemm1(q, jp, scratch.pq_one.data(),
                    scratch.abq.data() + q * abq_stride,
                    quant ? dequant : 1.0);
          if (fully_fused) {
            // GEMM coalescing (Eq. 11): consume (ab|q~] immediately.
            double* slice = scratch.abq.data() + q * abq_stride;
            double s_abq = 1.0;
            if (quant && config_.group_scaling) {
              const double m = max_abs(slice, abq_stride);
              if (m > 0.0) s_abq = 1.0 / m;
              for (std::size_t i = 0; i < abq_stride; ++i) slice[i] *= s_abq;
            }
            run_gemm2(q, kp, slice, scratch.cart.data() + q * cart_stride,
                      quant ? 1.0 / (s_ket * s_abq) : 1.0);
          }
        }
        stats.kernel_launches += 1;
      }
      stats.scalar_flops += 2.0 * nq * nhb * nhk;
    }

    // Stage 4: GEMM2 (Eq. 7 second transform), skipped when coalesced above.
    if (!fully_fused) {
      double s_abq = 1.0;
      if (quant && config_.group_scaling) {
        const double m = max_abs(scratch.abq.data(), scratch.abq.size());
        if (m > 0.0) s_abq = 1.0 / m;
        for (double& v : scratch.abq) v *= s_abq;
      }
      for (std::size_t q = 0; q < nq; ++q) {
        run_gemm2(q, kp, scratch.abq.data() + q * abq_stride,
                  scratch.cart.data() + q * cart_stride,
                  quant ? 1.0 / (s_ket * s_abq) : 1.0);
      }
      stats.global_bytes += static_cast<double>(quant ? 4 : 8) * nq *
                             (abq_stride + cart_stride);
      stats.kernel_launches += 1;
    }
  }

  // Stage 5: Cartesian -> spherical, two batched GEMMs.  The transform
  // matrices come from the class plan; the ket side runs through the native
  // transpose instead of a materialized copy.
  const int nsb = plan.nsb;
  const int nsk = plan.nsk;
  scratch.sph_tmp.resize(static_cast<std::size_t>(nsb) * nck);
  for (std::size_t q = 0; q < nq; ++q) {
    out[q].assign(static_cast<std::size_t>(nsb) * nsk, 0.0);
    be.fp64(plan.sph_bra->data(), false,
            scratch.cart.data() + q * cart_stride, false,
            scratch.sph_tmp.data(), nsb, nck, ncb, 1.0, 0.0, gc);
    be.fp64(scratch.sph_tmp.data(), false, plan.sph_ket->data(),
            /*trans_b=*/true, out[q].data(), nsb, nsk, nck, 1.0, 0.0, gc);
    stats.gemm_flops += gemm_flops(nsb, nck, ncb) + gemm_flops(nsb, nsk, nck);
  }
  stats.kernel_launches += 2;
  stats.global_bytes += 8.0 * nq * (cart_stride + nsb * nsk);

  stats.wall_seconds = timer.seconds();
  MAKO_METRIC_OBSERVE("kernel.batch_s", stats.wall_seconds);
  return stats;
}

}  // namespace mako
