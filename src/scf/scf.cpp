#include "scf/scf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/execution_context.hpp"
#include "integrals/one_electron.hpp"
#include "linalg/backend.hpp"
#include "linalg/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/audit.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injector.hpp"
#include "robust/watchdog.hpp"
#include "scf/diis.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

/// Closed-shell density D = 2 C_occ C_occ^T from MO coefficients.
MatrixD build_density(const MatrixD& c, std::size_t nocc) {
  const std::size_t n = c.rows();
  MatrixD d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t o = 0; o < nocc; ++o) acc += c(i, o) * c(j, o);
      d(i, j) = 2.0 * acc;
    }
  }
  return d;
}

// Health sentinels and the staged recovery ladder.  The ladder escalates
// strictly in order; reaching a rung applies every rung below it first, and
// rungs 3-5 latch for the rest of the run:
//   1. DIIS reset            (discard a possibly-poisoned subspace)
//   2. damping + level shift (static density mixing, virtual level shift)
//   3. precision escalation  (force FP64 through the governor)
//   4. diagonalizer fallback (kSubspace -> kDirect)
//   5. full Fock rebuilds    (incremental deltas latched off)
// Soft faults (divergence / oscillation / stagnation) climb one rung per
// event; hard numeric faults (non-finite or asymmetric J/K) jump straight
// to rung 3 and retry the build within the same iteration; diagonalizer
// faults jump to rung 4.
constexpr int kTopRung = 5;
constexpr double kSymmetryTol = 1e-10;   ///< relative J/K symmetry tolerance
constexpr double kOrthoTol = 1e-8;       ///< eigenvector orthonormality
constexpr int kDivergenceWindow = 3;     ///< consecutive rises => divergence
constexpr double kDivergenceTol = 1e-7;  ///< energy rises below this ignored
constexpr std::size_t kStagnationWindow = 6;  ///< iterations to progress in
/// "No progress" means err_now > factor * err_(now - window).
constexpr double kStagnationFactor = 0.9;
constexpr int kMaxRetries = 3;           ///< hard-fault rebuilds/iteration
constexpr double kDampingFactor = 0.3;   ///< rung-2 static density mixing
constexpr double kLevelShift = 0.25;     ///< rung-2 virtual level shift (Ha)
constexpr std::size_t kSubspaceMaxIter = 300;  ///< kSubspace budget
constexpr double kSubspaceTol = 1e-11;         ///< kSubspace residual

inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

/// Content fingerprint of everything that shapes the SCF trajectory: the
/// basis (via FockPlan::fingerprint), molecule, backend, and every
/// trajectory-shaping option.  A checkpoint restore validates this — resuming
/// against a different problem must fail loudly, never compute garbage.
std::uint64_t scf_fingerprint(const Molecule& mol, const BasisSet& basis,
                              const ScfOptions& options,
                              const std::string& backend_name, int ranks) {
  std::uint64_t h = FockPlan::fingerprint(basis);
  const int charge = mol.charge();
  fnv1a(h, &charge, sizeof charge);
  for (const Atom& a : mol.atoms()) {
    fnv1a(h, &a.z, sizeof a.z);
    fnv1a(h, &a.position, 3 * sizeof(double));
  }
  const char* xc_name = options.xc.name();
  fnv1a(h, xc_name, std::strlen(xc_name));
  fnv1a(h, backend_name.data(), backend_name.size());
  const std::int32_t ints[] = {
      static_cast<std::int32_t>(options.diagonalizer),
      options.incremental_fock ? 1 : 0,
      options.incremental_rebuild_period,
      options.use_diis ? 1 : 0,
      options.enable_quantization ? 1 : 0,
      options.fixed_iterations,
      // Precision governance: mode, kernel format, ladder, and per-L cap all
      // shape the trajectory — a checkpoint written under one --precision
      // must be refused under another (kCheckpointMismatch), never resumed
      // with silently different precision semantics.
      static_cast<std::int32_t>(options.precision.mode),
      static_cast<std::int32_t>(options.precision.quant_precision),
      options.precision.use_precision_ladder ? 1 : 0,
      options.precision.quantized_max_l,
      // Rank topology: results are bit-identical across rank counts, but
      // comm accounting and failure behavior are not — a checkpoint written
      // under one topology must be refused under another rather than
      // resuming with silently different collective semantics.
      ranks,
  };
  fnv1a(h, ints, sizeof ints);
  const double doubles[] = {
      options.energy_convergence,    options.diis_convergence,
      options.lindep_threshold,      options.prune_threshold,
      options.precision.start_fp64_threshold,
      options.precision.end_fp64_threshold,
      options.precision.prune_threshold,
      options.precision.exact_switch_error,
      options.precision.ladder_switch_error,
  };
  fnv1a(h, doubles, sizeof doubles);
  return h;
}

void validate_inputs(const Molecule& mol, const BasisSet& basis,
                     std::size_t* nocc_out) {
  const int nelec = mol.num_electrons();
  char msg[256];
  if (nelec <= 0) {
    std::snprintf(msg, sizeof msg,
                  "run_scf: molecule has %d electrons (sum of nuclear charges "
                  "minus charge %+d); a closed-shell SCF needs at least 2 — "
                  "check the charge sign and magnitude",
                  nelec, mol.charge());
    throw InputError(FaultKind::kInvalidInput, msg);
  }
  if (nelec % 2 != 0) {
    std::snprintf(msg, sizeof msg,
                  "run_scf: odd electron count %d (charge %+d) is open-shell; "
                  "this driver is restricted closed-shell RHF/RKS only — "
                  "adjust the charge to %+d or %+d for a closed-shell state",
                  nelec, mol.charge(), mol.charge() - 1, mol.charge() + 1);
    throw InputError(FaultKind::kInvalidInput, msg);
  }
  const std::size_t nocc = static_cast<std::size_t>(nelec) / 2;
  if (nocc > basis.nbf()) {
    std::snprintf(msg, sizeof msg,
                  "run_scf: basis provides %zu orbitals but %zu doubly-"
                  "occupied orbitals are required for %d electrons; use a "
                  "larger basis set",
                  basis.nbf(), nocc, nelec);
    throw InputError(FaultKind::kInvalidInput, msg);
  }
  *nocc_out = nocc;
}

/// What a step tells the iteration loop.
enum class Step { kContinue, kConverged, kCancelled, kAbort };

/// What the steps share: the run's inputs and fixed matrices, the objects
/// that own live state outside ScfState (Fock builder, DIIS, governor), the
/// result being assembled, and the checkpoint snapshot.
struct Run {
  Run(const Molecule& mol, const BasisSet& basis_in,
      const ScfOptions& options_in, const ExecutionContext& exec_in,
      std::size_t nocc_in)
      : basis(basis_in),
        options(options_in),
        exec(exec_in),
        be(&exec.backend()),
        comm(exec.comm()),
        cancel(exec.cancel()),
        nocc(nocc_in),
        niter(options.fixed_iterations > 0 ? options.fixed_iterations
                                           : options.max_iterations),
        e_nuclear(mol.nuclear_repulsion()),
        cx(options.xc.exact_exchange()),
        s(overlap_matrix(basis)),
        x(inverse_sqrt(s, options.lindep_threshold)),
        hcore(core_hamiltonian(basis, mol)),
        grid(options.xc.is_hf_only()
                 ? nullptr
                 : std::make_unique<MolecularGrid>(mol, options.grid)),
        fock_builder(basis, options.fock, &exec),
        // The run's precision authority: every per-iteration plan —
        // thresholds, kernel format, allow_quantized verdict, per-L cap —
        // comes from here.  Capability degradation (quantization requested
        // on a backend without a reduced-precision datapath) is counted and
        // carries a reason; the governor then plans pure FP64 rather than
        // silently running quantized math at full precision.
        governor(exec.make_governor(options.precision,
                                    options.enable_quantization,
                                    options.prune_threshold)) {}

  const BasisSet& basis;
  const ScfOptions& options;
  const ExecutionContext& exec;
  const GemmBackend* const be;
  // Rank communicator of the run ("local" on one rank).  The driver itself
  // stays replicated — DIIS, diagonalization, and the convergence test run
  // identically on every rank — while the Fock build is owner-computes with
  // allreduced partials (fock.cpp) and the initial guess is broadcast.
  Communicator& comm;
  CancelToken& cancel;
  const std::size_t nocc;
  const int niter;
  const double e_nuclear;
  const double cx;  ///< exact-exchange fraction of the functional
  const MatrixD s, x, hcore;  ///< overlap, orthogonalizer, core Hamiltonian
  const std::unique_ptr<MolecularGrid> grid;  ///< null for Hartree-Fock
  FockBuilder fock_builder;
  Diis diis;
  PrecisionGovernor governor;
  ScfResult result;
  ScfState last;           ///< snapshot of the last completed iteration
  bool have_last = false;
  int saved_next = -1;     ///< next_iteration of the snapshot on disk
};

/// One iteration's work in progress.  The best-so-far result in ScfState
/// changes only once the diagonalization is done, so a cancellation before
/// then returns a result whose terms all describe the previous iteration.
struct Iteration {
  explicit Iteration(int index_in)
      : index(index_in), span(obs::TraceCat::kScf, "scf.iteration") {
    if (span.active()) {
      char args[32];
      std::snprintf(args, sizeof args, "\"iter\":%d", index);
      span.set_args(args);
    }
    MAKO_METRIC_COUNT("scf.iterations", 1);
  }

  const int index;
  Timer timer;
  obs::TraceSpan span;
  ScfIterationRecord record;
  IterationPolicy policy;  ///< precision plan of the last Fock-build attempt
  FockStats fs;
  MatrixD j, k, fock;
  XcResult xres;
  double e_one = 0.0, e_coul = 0.0, e_xx = 0.0, energy = 0.0;
  EigenResult es;
};

/// Appends the iteration's log record and its observability twin.
void log_iteration(Run& run, const ScfState& st, const Iteration& it) {
  const ScfIterationRecord& record = it.record;
  run.result.iteration_log.push_back(record);
  obs::IterationTelemetry t;
  t.iteration = it.index;
  t.energy = record.energy;
  t.error = record.error;
  t.seconds = record.seconds;
  t.precision = it.policy.allow_quantized
                    ? to_string(it.policy.quant_precision)
                    : "fp64";
  t.reason = to_string(it.policy.reason);
  t.quantized_allowed = it.policy.allow_quantized;
  t.fp64_threshold = it.policy.fp64_threshold;
  t.prune_threshold = it.policy.prune_threshold;
  t.quartets_fp64 = it.fs.quartets_fp64;
  t.quartets_quantized = it.fs.quartets_quantized;
  t.quartets_pruned = it.fs.quartets_pruned;
  t.quartets_fp64_high_l = it.fs.quartets_fp64_high_l;
  t.eri_seconds = it.fs.eri_seconds;
  t.digest_seconds = it.fs.digest_seconds;
  t.route_seconds = it.fs.route_seconds;
  t.ladder_rung = st.ladder_rung;
  t.retries = record.retries;
  t.domain_faults = record.domain_faults;
  t.comm_retries = it.fs.comm_retries;
  t.comm_allreduce_s = it.fs.comm_seconds;
  t.comm_bytes = it.fs.comm_bytes;
  run.result.telemetry.push_back(t);
  MAKO_METRIC_OBSERVE("scf.iteration_s", record.seconds);
}

/// Climbs the recovery ladder up to rung `target`, recording each rung.
void escalate(Run& run, ScfState& st, Iteration& it, FaultKind fault,
              int target, const std::string& detail) {
  // Health-sentinel feedback to the precision authority: with the TF32
  // ladder active, divergence/oscillation advances the format step early
  // (noisy kernels are the first suspect); otherwise a no-op.
  run.governor.observe_fault(fault);
  target = std::min(target, kTopRung);
  while (st.ladder_rung < target) {
    ++st.ladder_rung;
    RecoveryAction action = RecoveryAction::kNone;
    switch (st.ladder_rung) {
      case 1:
        run.diis.reset();
        action = RecoveryAction::kDiisReset;
        break;
      case 2:
        st.damping = 1;
        action = RecoveryAction::kDamping;
        break;
      case 3:
        // Rung 3 requests FP64 through the governor — the SCF loop never
        // mutates precision state directly.
        run.governor.latch_fp64();
        action = RecoveryAction::kPrecisionEscalation;
        break;
      case 4:
        st.direct_diag = 1;
        action = RecoveryAction::kDiagonalizerFallback;
        break;
      case 5:
        st.full_rebuild = 1;
        action = RecoveryAction::kFockRebuild;
        break;
      default:
        break;
    }
    it.record.recovery_mask |= recovery_bit(action);
    st.recovery_log.push_back({it.index, fault, action, detail});
    log_warn("scf iter %d: recovery rung %d (%s) after %s fault", it.index,
             st.ladder_rung, to_string(action), to_string(fault));
  }
}

/// Restores the checkpoint, or builds the core-Hamiltonian guess and
/// broadcasts it to every rank.
Step start(Run& run, ScfState& st) {
  const std::string& restore_path = run.options.durability.restore_path;
  if (!restore_path.empty()) {
    // Throws InputError (kCheckpointCorrupt / kCheckpointMismatch) on a bad
    // or foreign file — a restore never silently restarts from scratch.
    st = load_checkpoint(restore_path, st.fingerprint);
    run.result.resumed_from = st.next_iteration;
    run.governor.restore(GovernorState{st.governor_ladder_stage,
                                       st.fp64_latched, st.force_exact});
    run.diis.import_state(st.diis_focks, st.diis_errors, st.last_error);
    // The Diis owns the live history; ScfState only carries snapshots.
    st.diis_focks.clear();
    st.diis_errors.clear();
    MAKO_METRIC_COUNT("scf.restores", 1);
    log_info("run_scf: restored checkpoint '%s' at iteration %d (E=%.10f)",
             restore_path.c_str(), st.next_iteration, st.last_energy);
    // A run that had already converged has nothing left to iterate.
    return st.converged != 0 ? Step::kConverged : Step::kContinue;
  }
  const GemmBackend* const be = run.be;
  MatrixD f0 =
      matmul(matmul(run.x, Trans::kYes, run.hcore, Trans::kNo, be), run.x, be);
  EigenResult es = eigh(f0);
  st.coefficients = matmul(run.x, es.eigenvectors, be);
  st.orbital_energies = es.eigenvalues;
  st.density = build_density(st.coefficients, run.nocc);
  if (run.comm.size() > 1) {
    // Every rank iterates from rank 0's guess.  With in-process ranks the
    // canonical buffer IS the payload, so a successful broadcast leaves it
    // unchanged while exercising verified delivery and charging the
    // modeled time; an exhausted retry budget means the ranks never agreed
    // on a starting density, which is unrecoverable for this run.
    run.result.comm_seconds += run.comm.broadcast(st.density, 0);
    const Status bst = run.comm.last_status();
    if (!bst.is_ok()) {
      run.result.status = bst;
      st.recovery_log.push_back(
          {0, bst.kind(), RecoveryAction::kAbort, bst.message()});
      log_error("run_scf: initial-guess broadcast failed: %s",
                bst.message().c_str());
      return Step::kAbort;
    }
  }
  return Step::kContinue;
}

/// J and K from the current density (incrementally from the density change
/// when enabled), audited.  A hard fault — a failed allreduce, non-finite or
/// asymmetric J/K — escalates to rung 3 (or the next rung up) and rebuilds
/// within the iteration, up to kMaxRetries times.
Step build_jk(Run& run, ScfState& st, Iteration& it) {
  const ScfOptions& options = run.options;
  const int iter = it.index;
  bool force_full = st.full_rebuild != 0;
  for (int attempt = 0;; ++attempt) {
    // Precision plan for this attempt: the convergence-aware schedule, the
    // capability gate, the rung-3 FP64 latch, and the exact-final polish.
    it.policy =
        run.governor.plan_for_iteration(iter, iter == 0 ? 1.0 : st.last_error);

    const std::uint64_t domain_before = domain_fault_count();
    const bool do_incremental =
        options.incremental_fock && iter > 0 && !run.governor.exact_final() &&
        !force_full &&
        (iter % std::max(options.incremental_rebuild_period, 1) != 0);
    if (do_incremental) {
      // Two-electron response of the density change only.
      MatrixD delta = st.density;
      delta -= st.d_prev;
      MatrixD dj, dk;
      it.fs = run.fock_builder.build_jk(delta, it.policy, dj, dk);
      if (MAKO_FAULT_POINT("scf.incremental_drift")) {
        // Symmetric bias on the delta contribution: models accumulated
        // incremental error that only full rebuilds (rung 5) clear.
        const FaultSpec spec =
            run.exec.faults().armed_spec("scf.incremental_drift");
        dj(0, 0) += spec.magnitude;
      }
      it.j = st.j_prev;
      it.j += dj;
      it.k = st.k_prev;
      it.k += dk;
    } else {
      it.fs = run.fock_builder.build_jk(st.density, it.policy, it.j, it.k);
    }
    it.record.domain_faults +=
        static_cast<std::int64_t>(domain_fault_count() - domain_before);

    // Cancellation trips leave J/K partial.  Bail BEFORE the audits: a
    // half-built Fock legitimately fails the symmetry sentinel, and letting
    // that read as a numerical fault would spuriously escalate the ladder
    // on an otherwise healthy run.
    if (it.fs.cancelled || run.cancel.cancelled()) return Step::kCancelled;

    // Collective failure first: an exhausted allreduce retry budget leaves
    // J/K unusable in a way no sentinel can detect — a partial J is still
    // symmetric and finite.
    Status status = it.fs.comm_status;
    if (status.is_ok()) status = audit_finite(it.j, "J");
    if (status.is_ok()) status = audit_finite(it.k, "K");
    if (status.is_ok()) status = audit_symmetry(it.j, "J", kSymmetryTol);
    if (status.is_ok()) status = audit_symmetry(it.k, "K", kSymmetryTol);
    if (status.is_ok()) break;
    it.record.fault_mask |= fault_bit(status.kind());
    log_warn("scf iter %d: %s", iter, status.message().c_str());
    if (attempt == kMaxRetries) {
      run.result.status = status;
      return Step::kAbort;
    }
    escalate(run, st, it, status.kind(), std::max(3, st.ladder_rung + 1),
             status.message());
    force_full = true;
    ++it.record.retries;
  }
  st.d_prev = st.density;
  st.j_prev = it.j;
  st.k_prev = it.k;
  it.record.quartets_fp64 = it.fs.quartets_fp64;
  it.record.quartets_quantized = it.fs.quartets_quantized;
  it.record.quartets_pruned = it.fs.quartets_pruned;
  run.result.comm_seconds += it.fs.comm_seconds;
  run.result.comm_bytes += it.fs.comm_bytes;
  run.result.comm_retries += it.fs.comm_retries;
  return Step::kContinue;
}

/// XC quadrature, F = H + J - (cx/2) K + Vxc, and the energy terms.
Step assemble_fock(Run& run, const ScfState& st, Iteration& it) {
  if (run.grid) {
    MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "scf.xc");
    it.xres = integrate_xc(run.basis, *run.grid, run.options.xc, st.density,
                           run.be, &run.cancel);
    MAKO_METRIC_COUNT("scf.xc_builds", 1);
    if (it.xres.cancelled) return Step::kCancelled;  // partial quadrature
  }
  it.fock = run.hcore;
  it.fock += it.j;
  if (run.cx != 0.0) {
    MatrixD kscaled = it.k;
    kscaled *= -0.5 * run.cx;
    it.fock += kscaled;
  }
  if (run.grid) it.fock += it.xres.vxc;

  it.e_one = trace_product(st.density, run.hcore);
  it.e_coul = 0.5 * trace_product(st.density, it.j);
  it.e_xx = -0.25 * run.cx * trace_product(st.density, it.k);
  const double e_elec = it.e_one + it.e_coul + it.e_xx + it.xres.energy;
  it.energy = e_elec + run.e_nuclear;
  if (!std::isfinite(it.energy)) {
    it.record.fault_mask |= fault_bit(FaultKind::kNonFinite);
    run.result.status = Status::fault(FaultKind::kNonFinite,
                                      "run_scf: total energy is non-finite");
    return Step::kAbort;
  }
  return Step::kContinue;
}

/// DIIS extrapolation, the rung-2 level shift, and the diagonalization in
/// the orthonormal basis.  A failed audit of the eigen-solution escalates to
/// rung 4 (or the next rung up) and re-solves with the direct solver.
Step solve(Run& run, ScfState& st, Iteration& it) {
  const ScfOptions& options = run.options;
  const GemmBackend* const be = run.be;
  MatrixD f_use = it.fock;
  if (options.use_diis) {
    MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "scf.diis");
    const MatrixD err =
        diis_error_matrix(it.fock, st.density, run.s, run.x, be);
    f_use = run.diis.extrapolate(it.fock, err);
    st.last_error = run.diis.last_error();
  } else {
    st.last_error = std::fabs(it.energy - st.last_energy);
  }

  MatrixD f_ortho =
      matmul(matmul(run.x, Trans::kYes, f_use, Trans::kNo, be), run.x, be);
  // Rung-2 level shift: F_ortho += shift * (I - Y_occ Y_occ^T) raises the
  // virtual block, suppressing occupied/virtual mixing while the run is
  // still far from converged.  Tapers off near convergence so final
  // orbital energies are unshifted.
  if (st.damping && st.prev_y_occ.rows() == f_ortho.rows() &&
      st.last_error > 10.0 * options.diis_convergence) {
    MatrixD p_occ =
        matmul(st.prev_y_occ, Trans::kNo, st.prev_y_occ, Trans::kYes, be);
    p_occ *= kLevelShift;
    for (std::size_t i = 0; i < f_ortho.rows(); ++i) {
      f_ortho(i, i) += kLevelShift;
    }
    f_ortho -= p_occ;
  }

  // Abandon before the (serial) diagonalization.
  if (run.cancel.cancelled()) return Step::kCancelled;
  obs::TraceSpan diag_span(obs::TraceCat::kScf, "scf.diagonalize");
  Timer diag_timer;
  const std::size_t nocc = run.nocc;
  Status dst = Status::ok();
  if (options.diagonalizer == Diagonalizer::kSubspace && !st.direct_diag) {
    // MatMul-aligned iterative path: only the occupied block (plus a
    // small buffer) is solved for.
    const std::size_t nev =
        std::min(f_ortho.rows(), nocc + std::min<std::size_t>(nocc, 6) + 2);
    std::size_t sub_iters = kSubspaceMaxIter;
    if (MAKO_FAULT_POINT("linalg.subspace_stall")) {
      sub_iters = 1;  // starve the solver: models a stalled eigensolver
    }
    it.es = eigh_subspace(f_ortho, nev, sub_iters, kSubspaceTol);
    if (!it.es.converged) {
      dst = Status::fault(FaultKind::kSubspaceStall,
                          "run_scf: subspace diagonalizer failed to converge "
                          "within its iteration budget");
    }
  } else {
    it.es = eigh(f_ortho);
  }
  if (dst.is_ok()) {
    const std::size_t probe = std::min(nocc + 2, it.es.eigenvectors.cols());
    dst = audit_eigen(it.es, "Fock diagonalization", probe, kOrthoTol);
  }
  if (!dst.is_ok()) {
    it.record.fault_mask |= fault_bit(dst.kind());
    log_warn("scf iter %d: %s", it.index, dst.message().c_str());
    escalate(run, st, it, dst.kind(), std::max(4, st.ladder_rung + 1),
             dst.message());
    it.es = eigh(f_ortho);
    ++it.record.retries;
  }
  diag_span.end();
  MAKO_METRIC_OBSERVE("scf.diag_s", diag_timer.seconds());
  // Save the occupied ortho-basis block for the next level shift.
  if (it.es.eigenvectors.cols() >= nocc) {
    st.prev_y_occ.resize(it.es.eigenvectors.rows(), nocc, 0.0);
    for (std::size_t i = 0; i < it.es.eigenvectors.rows(); ++i) {
      for (std::size_t o = 0; o < nocc; ++o) {
        st.prev_y_occ(i, o) = it.es.eigenvectors(i, o);
      }
    }
  }
  return Step::kContinue;
}

/// New orbitals and density — rung-2 damping mixes back part of the old
/// one — and this iteration's Fock matrix and energy terms become the
/// best-so-far result.
void update_density(Run& run, ScfState& st, Iteration& it) {
  st.coefficients = matmul(run.x, it.es.eigenvectors, run.be);
  st.orbital_energies = std::move(it.es.eigenvalues);
  MatrixD d_new = build_density(st.coefficients, run.nocc);
  if (st.damping) {
    d_new *= (1.0 - kDampingFactor);
    MatrixD d_old = st.density;
    d_old *= kDampingFactor;
    d_new += d_old;
  }
  st.density = std::move(d_new);
  if (MAKO_FAULT_POINT("scf.density_perturb")) {
    // Symmetric, finite perturbation of the next-iteration density: the
    // soft sentinels (oscillation/stagnation) must catch this — no hard
    // audit will.
    const FaultSpec spec = run.exec.faults().armed_spec("scf.density_perturb");
    st.density(0, 0) *= (1.0 + spec.magnitude);
  }
  st.fock = std::move(it.fock);
  st.e_one_electron = it.e_one;
  st.e_coulomb = it.e_coul;
  st.e_exact_exchange = it.e_xx;
  st.e_xc = it.xres.energy;

  // Iteration boundary: ranks synchronize before the convergence test.
  // DIIS and diagonalization are replicated, so the barrier only charges
  // the modeled latency of an empty collective.
  if (run.comm.size() > 1) run.result.comm_seconds += run.comm.barrier();
  it.record.energy = it.energy;
  it.record.error = st.last_error;
  it.record.seconds = it.timer.seconds();
}

/// Divergence / oscillation / stagnation detectors.  Each event climbs one
/// rung; the detectors then rest for a window so the rung can take effect.
/// Off in fixed-iteration (benchmark) runs.
void soft_sentinels(Run& run, ScfState& st, Iteration& it) {
  if (run.options.fixed_iterations > 0) return;
  const int iter = it.index;
  if (iter > 0 && it.energy > st.last_energy + kDivergenceTol) {
    ++st.rise_streak;
  } else {
    st.rise_streak = 0;
  }
  st.err_hist.push_back(st.last_error);
  constexpr std::size_t w = kStagnationWindow;
  if (iter < st.cooldown_until) return;
  char detail[128];
  if (st.rise_streak >= kDivergenceWindow) {
    it.record.fault_mask |= fault_bit(FaultKind::kDivergence);
    std::snprintf(detail, sizeof detail,
                  "energy rose %d consecutive iterations (now %.10f)",
                  st.rise_streak, it.energy);
    escalate(run, st, it, FaultKind::kDivergence, st.ladder_rung + 1, detail);
    st.rise_streak = 0;
    st.cooldown_until = iter + kDivergenceWindow + 1;
  } else if (st.err_hist.size() > w) {
    const double err_then = st.err_hist[st.err_hist.size() - 1 - w];
    if (st.last_error > kStagnationFactor * err_then &&
        st.last_error > run.options.diis_convergence) {
      // Classify: oscillation if the error bounced within the window,
      // stagnation if it sat flat.
      int rises = 0;
      for (std::size_t i = st.err_hist.size() - w; i < st.err_hist.size();
           ++i) {
        if (st.err_hist[i] > st.err_hist[i - 1]) ++rises;
      }
      const FaultKind fk = (2 * rises >= static_cast<int>(w))
                               ? FaultKind::kOscillation
                               : FaultKind::kStagnation;
      it.record.fault_mask |= fault_bit(fk);
      std::snprintf(detail, sizeof detail,
                    "DIIS error %.3e made no progress over %zu iterations "
                    "(was %.3e)",
                    st.last_error, w, err_then);
      escalate(run, st, it, fk, st.ladder_rung + 1, detail);
      st.cooldown_until = iter + static_cast<int>(w);
    }
  }
}

/// Writes the snapshot of the last completed iteration.
void write_checkpoint(Run& run) {
  const Status st = save_checkpoint(run.options.durability.checkpoint_path,
                                    run.last);
  if (st.is_ok()) {
    run.saved_next = run.last.next_iteration;
    MAKO_METRIC_COUNT("scf.checkpoints_written", 1);
  } else {
    // Never take down a healthy run over a failed checkpoint write.
    log_warn("run_scf: %s", st.message().c_str());
    MAKO_METRIC_COUNT("scf.checkpoint_write_failures", 1);
  }
}

/// Completes the iteration: logs it, runs the convergence test, advances
/// the cursor, and — when checkpointing — snapshots the state.
Step commit(Run& run, ScfState& st, Iteration& it) {
  const ScfOptions& options = run.options;
  const int iter = it.index;
  log_iteration(run, st, it);
  st.energy = it.energy;
  log_debug("scf iter %2d  E=%.10f  err=%.3e  (%lld fp64 / %lld quant / "
            "%lld pruned)",
            iter, it.energy, st.last_error,
            static_cast<long long>(it.record.quartets_fp64),
            static_cast<long long>(it.record.quartets_quantized),
            static_cast<long long>(it.record.quartets_pruned));

  if (options.fixed_iterations <= 0 && iter > 0 &&
      std::fabs(it.energy - st.last_energy) < options.energy_convergence &&
      st.last_error < options.diis_convergence) {
    // Once the SCF meets its thresholds under quantized kernels, one final
    // pure-FP64 iteration polishes the result (the endpoint of the paper's
    // convergence-aware schedule); the governor latches it.
    if (it.record.quartets_quantized > 0 && !run.governor.exact_final()) {
      run.governor.request_exact_final();
    } else {
      st.converged = 1;
    }
  }
  st.last_energy = it.energy;
  st.next_iteration = iter + 1;

  // The snapshot describes a run that is ready to start iteration iter+1
  // (or is finished).  Written on the configured cadence and on
  // convergence; the final write in run_scf covers every other exit path.
  const DurabilityOptions& dur = options.durability;
  if (!dur.checkpoint_path.empty()) {
    run.last = st;
    const GovernorState& gov = run.governor.state();
    run.last.governor_ladder_stage = gov.ladder_stage;
    run.last.fp64_latched = gov.fp64_latched;
    run.last.force_exact = gov.exact_final;
    double diis_error = 0.0;  // st.last_error (the driver's metric) covers it
    run.diis.export_state(run.last.diis_focks, run.last.diis_errors,
                          diis_error);
    run.have_last = true;
    const int every = std::max(dur.checkpoint_interval, 1);
    if (st.converged || st.next_iteration % every == 0) {
      write_checkpoint(run);
    }
  }
  return st.converged ? Step::kConverged : Step::kContinue;
}

/// The one abort sequence: the fault already in result.status ends the run.
void abort_iteration(Run& run, ScfState& st, Iteration& it) {
  const Status& status = run.result.status;
  it.record.recovery_mask |= recovery_bit(RecoveryAction::kAbort);
  st.recovery_log.push_back(
      {it.index, status.kind(), RecoveryAction::kAbort, status.message()});
  log_error("scf iter %d: unrecoverable fault, aborting: %s", it.index,
            status.message().c_str());
  it.record.seconds = it.timer.seconds();
  log_iteration(run, st, it);
}

/// Moves the final state into the result: the one place ScfResult is
/// filled from ScfState.
void fill_result(Run& run, ScfState& st) {
  ScfResult& r = run.result;
  r.converged = st.converged != 0;
  r.iterations = static_cast<int>(r.iteration_log.size());
  r.energy = st.energy;
  r.e_nuclear = run.e_nuclear;
  r.e_one_electron = st.e_one_electron;
  r.e_coulomb = st.e_coulomb;
  r.e_exact_exchange = st.e_exact_exchange;
  r.e_xc = st.e_xc;
  r.orbital_energies = std::move(st.orbital_energies);
  r.density = std::move(st.density);
  r.coefficients = std::move(st.coefficients);
  r.fock = std::move(st.fock);
  r.recovery_log = std::move(st.recovery_log);
  r.fp64_latched = run.governor.fp64_latched();
  r.diagonalizer_fallback = st.direct_diag != 0;
  r.full_rebuild_latched = st.full_rebuild != 0;
}

}  // namespace

double ScfResult::avg_iteration_seconds() const {
  if (iteration_log.size() <= 1) {
    return iteration_log.empty() ? 0.0 : iteration_log.front().seconds;
  }
  double total = 0.0;
  for (std::size_t i = 1; i < iteration_log.size(); ++i) {
    total += iteration_log[i].seconds;
  }
  return total / static_cast<double>(iteration_log.size() - 1);
}

ScfResult run_scf(const Molecule& mol, const BasisSet& basis,
                  const ScfOptions& options, const ExecutionContext* ctx) {
  std::size_t nocc = 0;
  validate_inputs(mol, basis, &nocc);

  MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "scf.run");
  MAKO_METRIC_COUNT("scf.runs", 1);

  // Execution environment: the engine-owned context, or the process default.
  Run run(mol, basis, options, ctx ? *ctx : ExecutionContext::process(),
          nocc);
  const DurabilityOptions& dur = options.durability;
  CancelToken& cancel = run.cancel;

  // Cooperative cancellation: the run's token (CLI signal handlers or a test
  // request() trip it) plus an optional wall-clock budget armed as a deadline
  // on the same token.  ScopedDeadline disarms on exit so a later run in this
  // process is not cancelled by THIS run's expired budget.
  ScopedDeadline deadline_guard(cancel, dur.max_seconds);
  // Liveness watchdog: detection only — a wedged parallel region records a
  // kWedged audit event and metrics; enforcement stays with the deadline.
  ScopedWatchdog watchdog_guard(options.watchdog_seconds);

  ScfState st;
  if (!dur.checkpoint_path.empty() || !dur.restore_path.empty()) {
    st.fingerprint =
        scf_fingerprint(mol, basis, options, run.be->name(), run.comm.size());
  }

  Step step = start(run, st);
  while (step == Step::kContinue && st.next_iteration < run.niter) {
    if (cancel.cancelled()) {
      step = Step::kCancelled;
      break;
    }
    Iteration it(st.next_iteration);
    step = build_jk(run, st, it);
    if (step == Step::kContinue) step = assemble_fock(run, st, it);
    if (step == Step::kContinue) step = solve(run, st, it);
    if (step == Step::kContinue) {
      update_density(run, st, it);
      soft_sentinels(run, st, it);
      step = commit(run, st, it);
    }
    if (step == Step::kAbort) abort_iteration(run, st, it);
  }

  // Final checkpoint: whatever the exit path (budget, signal, abort,
  // iteration cap), the last completed iteration is on disk before we return.
  if (run.have_last && run.saved_next != run.last.next_iteration) {
    write_checkpoint(run);
  }
  fill_result(run, st);
  ScfResult& result = run.result;

  // Terminal health classification — the CLI exit-code contract.  A cancel
  // that lands after the run already finished its work does not demote a
  // converged result.
  const bool aborted = step == Step::kAbort;
  const bool stopped_early =
      step == Step::kCancelled ||
      (cancel.cancelled() && !result.converged && !aborted &&
       result.iterations < run.niter);
  if (stopped_early) {
    const bool deadline = cancel.reason() == CancelReason::kDeadline;
    result.health =
        deadline ? Health::kDeadlineExceeded : Health::kCancelled;
    char msg[224];
    std::snprintf(
        msg, sizeof msg,
        "run_scf: stopped early (%s) after %d completed iterations, "
        "E=%.10f; %s",
        to_string(cancel.reason()), result.resumed_from + result.iterations,
        result.energy,
        dur.checkpoint_path.empty()
            ? "no checkpoint configured, restarting loses this progress"
            : "restore the checkpoint to continue bit-identically");
    result.status = Status::fault(
        deadline ? FaultKind::kDeadlineExceeded : FaultKind::kCancelled, msg);
    log_warn("%s", msg);
    if (deadline) {
      MAKO_METRIC_COUNT("scf.deadline_stops", 1);
    } else {
      MAKO_METRIC_COUNT("scf.cancel_stops", 1);
    }
  } else if (aborted) {
    result.health = Health::kFault;
  } else if (!result.converged && options.fixed_iterations <= 0) {
    result.health = Health::kNotConverged;
    if (result.status.is_ok()) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "run_scf: no convergence within %d iterations "
                    "(last error %.3e); see ScfResult::recovery_log for what "
                    "the resilience ladder attempted",
                    result.iterations, st.last_error);
      result.status = Status::fault(FaultKind::kStagnation, msg);
    }
  } else if (result.recovered()) {
    result.health = Health::kRecovered;
  }
  return std::move(run.result);
}

}  // namespace mako
