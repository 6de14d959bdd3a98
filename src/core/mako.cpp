#include "core/mako.hpp"

#include <sstream>

#include "basis/basis_set.hpp"
#include "compilermako/registry.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mako {

std::string MakoReport::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(10);
  out << "== Mako run report ==\n";
  out << "basis functions:        " << nbf << " (" << num_shells
      << " shells)\n";
  if (!backend.empty()) {
    out << "GEMM backend:           " << backend << "\n";
  }
  if (ranks > 1) {
    out << "ranks:                  " << ranks << " (simcomm)\n";
  }
  out << "SCF iterations:         " << scf.iterations
      << (scf.converged ? " (converged)" : " (NOT converged)");
  if (scf.resumed_from > 0) {
    out << " [resumed from iteration " << scf.resumed_from << "]";
  }
  out << "\n";
  out << "health:                 " << to_string(scf.health) << "\n";
  out << "Total Energy:           " << scf.energy << " Eh\n";
  out << "  nuclear repulsion:    " << scf.e_nuclear << "\n";
  out << "  one-electron:         " << scf.e_one_electron << "\n";
  out << "  Coulomb:              " << scf.e_coulomb << "\n";
  out << "  exact exchange:       " << scf.e_exact_exchange << "\n";
  out << "  XC functional:        " << scf.e_xc << "\n";
  out.precision(4);
  out << "total wall-clock time:  " << total_seconds << " s\n";
  out << "avg SCF iteration time: " << scf.avg_iteration_seconds()
      << " s (excluding first iteration)\n";
  if (ranks > 1) {
    out.precision(6);
    out << "modeled comm time:      " << scf.comm_seconds << " s ("
        << scf.comm_bytes << " bytes, " << scf.comm_retries << " retries)\n";
    out.precision(4);
  }
  if (classes_tuned > 0) {
    out << "ERI classes tuned:      " << classes_tuned << "\n";
  }
  return out.str();
}

MakoEngine::MakoEngine(MakoOptions options)
    : options_(std::move(options)),
      context_(ExecutionContextOptions{
          .backend = options_.backend,
          .device = options_.device,
          .precision =
              PrecisionConfig{
                  .mode = resolve_precision_mode(options_.precision),
                  .use_precision_ladder = options_.precision_ladder},
          .enable_quantization = options_.quantization,
          .ranks = options_.ranks,
          .cluster = options_.cluster}),
      tuner_(options_.device, options_.tuner, &context_.backend()) {}

ScfOptions scf_options_from(const MakoOptions& options) {
  ScfOptions scf;
  scf.xc = XcFunctional::from_name(options.functional);
  scf.fock.engine = options.engine;
  scf.fock.batch_size = options.batch_size;
  scf.grid = options.grid;
  scf.max_iterations = options.max_iterations;
  scf.fixed_iterations = options.fixed_iterations;
  scf.energy_convergence = options.convergence;
  scf.enable_quantization = options.quantization;
  // The single precision-resolution point: mode names (and the
  // MAKO_PRECISION fallback for "") are parsed here, so engine and batch
  // runs see identical governance and direct run_scf callers are immune to
  // the environment.  Unknown names throw InputError (kInvalidInput).
  scf.precision.mode = resolve_precision_mode(options.precision);
  scf.precision.use_precision_ladder = options.precision_ladder;
  scf.durability = options.durability;
  scf.watchdog_seconds = options.watchdog_seconds;
  return scf;
}

int MakoEngine::tune_for(const Molecule& mol) {
  const BasisSet basis(mol, options_.basis);
  const auto classes = enumerate_eri_classes(basis);
  int tuned = 0;
  for (const EriClassKey& key : classes) {
    tuner_.tune(key, Precision::kFP64);
    ++tuned;
    if (options_.quantization) {
      tuner_.tune(key, Precision::kFP16);
      ++tuned;
    }
  }
  log_info("CompilerMako: tuned %d kernel variants for %zu ERI classes",
           tuned, classes.size());
  return tuned;
}

MakoReport MakoEngine::compute_energy(const Molecule& mol) {
  MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "mako.compute_energy");
  Timer total;
  MakoReport report;
  report.backend = context_.backend().name();
  report.ranks = context_.comm().size();

  if (options_.autotune) {
    report.classes_tuned = tune_for(mol);
  }

  const BasisSet basis(mol, options_.basis);
  report.nbf = basis.nbf();
  report.num_shells = basis.num_shells();

  ScfOptions scf_options = scf_options_from(options_);
  if (options_.autotune) {
    scf_options.fock.tuner = &tuner_;
  }
  report.scf = run_scf(mol, basis, scf_options, &context_);
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace mako
