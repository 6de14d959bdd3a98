// Crash-consistent SCF checkpoints.
//
// A killed process must not lose hours of SCF iterations.  The SCF driver
// keeps every loop-carried datum in one ScfState — density, Fock, recovery-
// ladder and soft-detector state, incremental-Fock accumulators — and a
// checkpoint is a snapshot of that struct plus the DIIS history and the
// precision governor's state, so a restored run continues *bit-identically*:
// the resumed trajectory (per-iteration energies, quartet routing counts) is
// exactly the trajectory the uninterrupted run would have produced.  That
// property is what makes resume trustworthy, and it is enforced by ctest.
//
// File format (version 3, little-endian host layout):
//
//   [magic "MAKOCKPT"] [u32 format version] [u64 content fingerprint]
//   [u32 section count]
//   section*: [u32 fourcc tag] [u64 payload bytes] [u32 CRC32(payload)]
//             [payload bytes]
//
// Each ScfState member except the fingerprint is one section.  A single
// field table in checkpoint.cpp maps members to section tags and drives both
// the writer and the reader, so a new member is one table line.  The
// round-trip test compares whole states with ScfState's defaulted
// operator==, so a member it sets that the table misses fails it.  Any
// layout change bumps the version, and a file of another version is refused.
//
// The fingerprint hashes the molecule, basis, backend name and every
// trajectory-shaping option; restoring against a different problem is an
// InputError, never a silent restart-from-garbage.  Every section carries its
// own CRC32 and the reader validates all of them eagerly — a single flipped
// byte anywhere is detected and reported with the offending section.  Size
// fields are checked against the remaining payload before anything is
// allocated, so a crafted file with valid CRCs cannot force a huge
// allocation either.
//
// Writes are atomic: serialize to `<path>.tmp.<pid>.<seq>` (the sequence
// number makes the staging name unique per write, so concurrent batch jobs
// checkpointing into one directory never collide), fsync the file, rename
// over the target, fsync the directory.  A crash mid-write leaves either the
// previous checkpoint or a stray .tmp — never a torn file at `path`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "robust/status.hpp"

namespace mako {

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) of a byte range.  Exposed for
/// tests that deliberately corrupt checkpoints.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0) noexcept;

/// The SCF driver's loop-carried state: everything run_scf needs to continue
/// a run bit-identically, plus the best-so-far result.  Plain data — the
/// driver works on these members directly; this layer only (de)serializes.
/// The DIIS history and the governor fields are a snapshot: the Diis and the
/// PrecisionGovernor own the live copies and the driver syncs them here
/// only when it takes a checkpoint.
struct ScfState {
  // --- identity ----------------------------------------------------------
  std::uint64_t fingerprint = 0;  ///< molecule/basis/options content hash

  // --- iteration cursor and convergence state ----------------------------
  std::int32_t next_iteration = 0;  ///< first iteration not yet completed
  double last_energy = 0.0;         ///< energy of the last completed iteration
  double last_error = 1.0;          ///< DIIS error entering next_iteration
  std::uint8_t converged = 0;       ///< run already met its thresholds

  // --- best-so-far result ------------------------------------------------
  double energy = 0.0;
  double e_one_electron = 0.0;
  double e_coulomb = 0.0;
  double e_exact_exchange = 0.0;
  double e_xc = 0.0;
  MatrixD density;
  MatrixD fock;
  MatrixD coefficients;
  VectorD orbital_energies;

  // --- recovery-ladder latches -------------------------------------------
  std::int32_t ladder_rung = 0;
  std::uint8_t damping = 0;       ///< rung 2 active
  std::uint8_t direct_diag = 0;   ///< rung 4 latched
  std::uint8_t full_rebuild = 0;  ///< rung 5 latched
  /// Soft detectors stay quiet until this iteration, giving each escalation
  /// a window to take effect before the next one is considered.
  std::int32_t cooldown_until = 0;

  // --- soft-detector state -----------------------------------------------
  std::int32_t rise_streak = 0;
  VectorD err_hist;
  MatrixD prev_y_occ;  ///< occupied ortho block for the rung-2 level shift

  // --- incremental-Fock accumulators -------------------------------------
  MatrixD d_prev, j_prev, k_prev;

  // --- recovery log so a resumed run reports the full story --------------
  std::vector<RecoveryEvent> recovery_log;

  // --- snapshot of the governor's GovernorState --------------------------
  std::int32_t governor_ladder_stage = 0;  ///< TF32 step of the ladder taken
  std::uint8_t fp64_latched = 0;           ///< recovery rung 3 fired
  std::uint8_t force_exact = 0;            ///< final FP64 polish pending

  // --- snapshot of the DIIS history (parallel lists, oldest first) -------
  std::vector<MatrixD> diis_focks;
  std::vector<MatrixD> diis_errors;

  bool operator==(const ScfState&) const = default;
};

/// Serializes `state` atomically to `path` (temp file + fsync + rename).
/// Returns a fault Status (kCheckpointError) on any I/O failure; never
/// throws — checkpointing must not take down a healthy run.
[[nodiscard]] Status save_checkpoint(const std::string& path,
                                     const ScfState& state);

/// Loads and validates a checkpoint.  Throws InputError
/// (FaultKind::kCheckpointCorrupt) on bad magic, another format version,
/// truncation, a size field larger than its payload, a missing section or
/// any section CRC mismatch, and (FaultKind::kCheckpointMismatch) when
/// `expected_fingerprint` is nonzero and does not match the file — the
/// caller must never silently continue from a checkpoint of a different
/// molecule/basis/options.
[[nodiscard]] ScfState load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint = 0);

}  // namespace mako
