// Tests for crash-consistent SCF checkpoints (robust/checkpoint.hpp) and the
// restore path of the SCF driver: format round-trip, corruption detection,
// fingerprint guarding, and — the property the subsystem exists for —
// bit-identical continuation of an interrupted run.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

/// Unique-per-process scratch path; the file is removed in TearDown.
std::string scratch_path(const std::string& name) {
  return "./ckpt_test_" + name + "." + std::to_string(::getpid());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
    FaultInjector::instance().disarm_all();
  }

  std::string track(const std::string& name) {
    cleanup_.push_back(scratch_path(name));
    return cleanup_.back();
  }

  static MatrixD filled(std::size_t rows, std::size_t cols, double base) {
    MatrixD m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = base + 0.25 * static_cast<double>(i);
    }
    return m;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Replaces the payload of section `tag` and recomputes its CRC, so the
  /// file stays CRC-valid — a crafted file, not an accidental corruption.
  /// Layout: magic(8) version(4) fingerprint(8) count(4), then per section
  /// tag(4) length(8) crc(4) payload.
  static void rewrite_section(const std::string& path, const char* tag,
                              const std::string& payload) {
    const std::string bytes = read_file(path);
    std::size_t off = 24;
    while (off + 16 <= bytes.size()) {
      std::uint64_t len = 0;
      std::memcpy(&len, bytes.data() + off + 4, sizeof len);
      if (bytes.compare(off, 4, tag) == 0) {
        std::string out = bytes.substr(0, off + 4);
        const std::uint64_t new_len = payload.size();
        const std::uint32_t crc = crc32(payload.data(), payload.size());
        out.append(reinterpret_cast<const char*>(&new_len), sizeof new_len);
        out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
        out += payload;
        out += bytes.substr(off + 16 + len);
        write_file(path, out);
        return;
      }
      off += 16 + len;
    }
    FAIL() << "section " << tag << " not found";
  }

  static std::string u64s(std::initializer_list<std::uint64_t> values) {
    std::string out;
    for (const std::uint64_t v : values) {
      out.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
    return out;
  }

  static long peak_rss_kib() {
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
  }

  static void expect_bitwise_equal(const MatrixD& a, const MatrixD& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  }

  std::vector<std::string> cleanup_;
};

constexpr int kPerturbedIterations = 11;
constexpr int kInterruptAt = 13;

TEST_F(CheckpointTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for the ASCII string "123456789".
  EXPECT_EQ(0xCBF43926u, crc32("123456789", 9));
  EXPECT_EQ(0u, crc32("", 0));
}

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  ScfState s;
  s.fingerprint = 0x1234'5678'9abc'def0ull;
  s.next_iteration = 17;
  s.last_energy = -76.02345678901234;
  s.last_error = 3.25e-5;
  s.force_exact = 1;
  s.converged = 0;
  s.energy = -76.0;
  s.e_one_electron = -120.5;
  s.e_coulomb = 46.9;
  s.e_exact_exchange = -8.9;
  s.e_xc = -2.6;
  s.density = filled(7, 7, 0.5);
  s.fock = filled(7, 7, -1.5);
  s.coefficients = filled(7, 7, 0.125);
  s.orbital_energies = VectorD(7, -0.375);
  s.ladder_rung = 3;
  s.damping = 1;
  s.fp64_latched = 1;
  s.direct_diag = 0;
  s.full_rebuild = 1;
  s.cooldown_until = 21;
  s.governor_ladder_stage = 1;
  s.rise_streak = 2;
  s.err_hist = VectorD(5, 1e-3);
  s.prev_y_occ = filled(7, 5, 0.0625);
  s.d_prev = filled(7, 7, 2.0);
  s.j_prev = filled(7, 7, 3.0);
  s.k_prev = filled(7, 7, 4.0);
  s.diis_focks = {filled(7, 7, 5.0), filled(7, 7, 6.0)};
  s.diis_errors = {filled(7, 7, 7.0), filled(7, 7, 8.0)};
  s.recovery_log.push_back({4, FaultKind::kNonFinite,
                            RecoveryAction::kPrecisionEscalation,
                            "test event"});

  const std::string path = track("roundtrip");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  const ScfState r = load_checkpoint(path, s.fingerprint);

  EXPECT_EQ(r.fingerprint, s.fingerprint);
  EXPECT_EQ(r.next_iteration, s.next_iteration);
  EXPECT_EQ(r.last_energy, s.last_energy);
  EXPECT_EQ(r.last_error, s.last_error);
  EXPECT_EQ(r.force_exact, s.force_exact);
  EXPECT_EQ(r.converged, s.converged);
  EXPECT_EQ(r.energy, s.energy);
  EXPECT_EQ(r.e_one_electron, s.e_one_electron);
  EXPECT_EQ(r.e_coulomb, s.e_coulomb);
  EXPECT_EQ(r.e_exact_exchange, s.e_exact_exchange);
  EXPECT_EQ(r.e_xc, s.e_xc);
  expect_bitwise_equal(r.density, s.density);
  expect_bitwise_equal(r.fock, s.fock);
  expect_bitwise_equal(r.coefficients, s.coefficients);
  ASSERT_EQ(r.orbital_energies.size(), s.orbital_energies.size());
  EXPECT_EQ(0, std::memcmp(r.orbital_energies.data(),
                           s.orbital_energies.data(),
                           s.orbital_energies.size() * sizeof(double)));
  EXPECT_EQ(r.ladder_rung, s.ladder_rung);
  EXPECT_EQ(r.damping, s.damping);
  EXPECT_EQ(r.fp64_latched, s.fp64_latched);
  EXPECT_EQ(r.direct_diag, s.direct_diag);
  EXPECT_EQ(r.full_rebuild, s.full_rebuild);
  EXPECT_EQ(r.cooldown_until, s.cooldown_until);
  EXPECT_EQ(r.governor_ladder_stage, s.governor_ladder_stage);
  EXPECT_EQ(r.rise_streak, s.rise_streak);
  ASSERT_EQ(r.err_hist.size(), s.err_hist.size());
  expect_bitwise_equal(r.prev_y_occ, s.prev_y_occ);
  expect_bitwise_equal(r.d_prev, s.d_prev);
  expect_bitwise_equal(r.j_prev, s.j_prev);
  expect_bitwise_equal(r.k_prev, s.k_prev);
  ASSERT_EQ(r.diis_focks.size(), s.diis_focks.size());
  ASSERT_EQ(r.diis_errors.size(), s.diis_errors.size());
  for (std::size_t i = 0; i < s.diis_focks.size(); ++i) {
    expect_bitwise_equal(r.diis_focks[i], s.diis_focks[i]);
    expect_bitwise_equal(r.diis_errors[i], s.diis_errors[i]);
  }
  ASSERT_EQ(r.recovery_log.size(), 1u);
  EXPECT_EQ(r.recovery_log[0].iteration, 4);
  EXPECT_EQ(r.recovery_log[0].fault, FaultKind::kNonFinite);
  EXPECT_EQ(r.recovery_log[0].action, RecoveryAction::kPrecisionEscalation);
  EXPECT_EQ(r.recovery_log[0].detail, "test event");
  EXPECT_TRUE(r == s) << "a member is missing from the checkpoint field table";
}

TEST_F(CheckpointTest, AtomicWriteLeavesNoTempFile) {
  const std::string path = track("atomic");
  ASSERT_TRUE(save_checkpoint(path, ScfState{}).is_ok());
  std::ifstream final_file(path, std::ios::binary);
  EXPECT_TRUE(final_file.good());
  // Writes stage at <path>.tmp.<pid>.<seq>: no entry with that prefix may
  // survive a successful save.
  namespace fs = std::filesystem;
  const fs::path target = fs::absolute(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (const fs::directory_entry& e :
       fs::directory_iterator(target.parent_path())) {
    EXPECT_NE(e.path().filename().string().rfind(prefix, 0), 0u)
        << "stray staging file " << e.path();
  }
}

TEST_F(CheckpointTest, SaveToUnwritablePathReturnsFaultNotThrow) {
  const Status st =
      save_checkpoint("/nonexistent-dir/ckpt.bin", ScfState{});
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.kind(), FaultKind::kCheckpointError);
}

TEST_F(CheckpointTest, SingleFlippedByteIsDetected) {
  ScfState s;
  s.density = filled(5, 5, 1.0);
  s.energy = -1.25;
  const std::string path = track("corrupt");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());

  // Flip one byte deep inside a payload section.
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 64);
  const std::streamoff at = size - 9;
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(at);
  f.write(&byte, 1);
  f.close();

  try {
    (void)load_checkpoint(path);
    FAIL() << "corrupt checkpoint loaded without error";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
}

TEST_F(CheckpointTest, TruncatedFileIsDetected) {
  ScfState s;
  s.fock = filled(6, 6, 2.0);
  const std::string path = track("truncated");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  try {
    (void)load_checkpoint(path);
    FAIL() << "truncated checkpoint loaded without error";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
}

// A crafted file with valid CRCs whose size fields claim far more data than
// the section holds must be refused before anything is allocated.
TEST_F(CheckpointTest, OversizedSizeFieldsAreRefusedBeforeAllocating) {
  struct Case {
    const char* name;
    const char* tag;
    std::string payload;
  };
  const Case cases[] = {
      // 2^28 doubles (2 GiB) claimed by a 474-byte-class file.
      {"vector", "EHST", u64s({1ull << 28})},
      // One 2^20 x 2^20 DIIS matrix (8 TiB).
      {"matrix", "DIIF", u64s({1, 1ull << 20, 1ull << 20})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = track(std::string("oversized-") + c.name);
    ASSERT_TRUE(save_checkpoint(path, ScfState{}).is_ok());
    rewrite_section(path, c.tag, c.payload);
    const long rss_before = peak_rss_kib();
    try {
      (void)load_checkpoint(path);
      ADD_FAILURE() << "oversized size field accepted";
    } catch (const InputError& e) {
      EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
    }
    EXPECT_LT(peak_rss_kib() - rss_before, 64L * 1024)
        << "the reader allocated before checking the payload";
  }
}

// Any layout change bumps the format version; a file of another version is
// refused with a message naming both.
TEST_F(CheckpointTest, OtherFormatVersionIsRefused) {
  const std::string path = track("version");
  ASSERT_TRUE(save_checkpoint(path, ScfState{}).is_ok());
  std::string bytes = read_file(path);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof version);
  EXPECT_EQ(version, 3u);
  const std::uint32_t old_version = 2;
  std::memcpy(bytes.data() + 8, &old_version, sizeof old_version);
  write_file(path, bytes);
  try {
    (void)load_checkpoint(path);
    FAIL() << "version-2 checkpoint accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
    const std::string what = e.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, MissingFileIsAnInputError) {
  EXPECT_THROW((void)load_checkpoint(scratch_path("never-written")),
               InputError);
}

TEST_F(CheckpointTest, FingerprintMismatchIsDetected) {
  ScfState s;
  s.fingerprint = 0xAAAA'BBBB'CCCC'DDDDull;
  const std::string path = track("fingerprint");
  ASSERT_TRUE(save_checkpoint(path, s).is_ok());
  try {
    (void)load_checkpoint(path, 0x1111'2222'3333'4444ull);
    FAIL() << "foreign checkpoint accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }
  // Zero means "don't check" (the caller has no expectation).
  EXPECT_EQ(load_checkpoint(path, 0).fingerprint, s.fingerprint);
}

// --- SCF driver integration ----------------------------------------------

/// The tentpole property: interrupt a run after N iterations, restore, and
/// the continuation reproduces the uninterrupted trajectory *bit for bit* —
/// identical per-iteration energies/errors and an identical final state.
TEST_F(CheckpointTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");

  const ScfResult full = run_scf(w, bs, {});
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 6);

  const std::string ck = track("resume");
  ScfOptions head;
  head.max_iterations = 4;  // interrupt: stop after 4 completed iterations
  head.durability.checkpoint_path = ck;
  const ScfResult part = run_scf(w, bs, head);
  ASSERT_FALSE(part.converged);
  EXPECT_EQ(part.health, Health::kNotConverged);
  EXPECT_EQ(part.iterations, 4);

  ScfOptions tail;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.health, Health::kOk);
  EXPECT_EQ(resumed.resumed_from, 4);
  EXPECT_EQ(resumed.resumed_from + resumed.iterations, full.iterations);

  // Bit-identical, not merely close: exact double equality everywhere.
  EXPECT_EQ(resumed.energy, full.energy);
  EXPECT_EQ(resumed.e_one_electron, full.e_one_electron);
  EXPECT_EQ(resumed.e_coulomb, full.e_coulomb);
  EXPECT_EQ(resumed.e_exact_exchange, full.e_exact_exchange);
  expect_bitwise_equal(resumed.density, full.density);
  expect_bitwise_equal(resumed.fock, full.fock);
  ASSERT_EQ(resumed.iteration_log.size(), full.iteration_log.size() - 4);
  for (std::size_t i = 0; i < resumed.iteration_log.size(); ++i) {
    EXPECT_EQ(resumed.iteration_log[i].energy,
              full.iteration_log[i + 4].energy)
        << "trajectory diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].error, full.iteration_log[i + 4].error)
        << "DIIS error diverged at resumed iteration " << i;
  }
}

/// Same property with the incremental-Fock accumulators in play — the
/// d_prev/j_prev/k_prev sections must carry the delta-build state across.
TEST_F(CheckpointTest, ResumeIsBitIdenticalWithIncrementalFock) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions base;
  base.incremental_fock = true;

  const ScfResult full = run_scf(w, bs, base);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 5);

  const std::string ck = track("resume-incr");
  ScfOptions head = base;
  head.max_iterations = 3;
  head.durability.checkpoint_path = ck;
  const ScfResult part = run_scf(w, bs, head);
  ASSERT_FALSE(part.converged);

  ScfOptions tail = base;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.resumed_from, 3);
  EXPECT_EQ(resumed.energy, full.energy);
  expect_bitwise_equal(resumed.density, full.density);
}

/// Mid-ladder interruption: the run is stopped after the precision ladder's
/// TF32 step latched, and the resumed run must continue with non-default
/// governor state — same TF32 kernels, same trajectory, bit for bit.
TEST_F(CheckpointTest, ResumeIsBitIdenticalMidPrecisionLadder) {
  if (!ExecutionContext::process().backend().capabilities().quantized) {
    GTEST_SKIP() << "ambient backend has no quantized datapath; the ladder "
                    "never steps (governance degrades to pure FP64)";
  }
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions base;
  base.enable_quantization = true;
  base.precision.use_precision_ladder = true;
  // Take the TF32 step early so the interruption lands after the latch.
  base.precision.ladder_switch_error = 1e-1;

  const ScfResult full = run_scf(w, bs, base);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 5);

  const std::string ck = track("resume-ladder");
  ScfOptions head = base;
  head.max_iterations = 4;
  head.durability.checkpoint_path = ck;
  const ScfResult part = run_scf(w, bs, head);
  ASSERT_FALSE(part.converged);

  // The checkpoint must carry the non-default governor state.
  const ScfState saved = load_checkpoint(ck);
  EXPECT_EQ(saved.governor_ladder_stage, 1)
      << "interruption did not land after the TF32 latch; trajectory changed";

  ScfOptions tail = base;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.resumed_from, 4);
  EXPECT_EQ(resumed.energy, full.energy);
  expect_bitwise_equal(resumed.density, full.density);
  ASSERT_EQ(resumed.iteration_log.size(), full.iteration_log.size() - 4);
  for (std::size_t i = 0; i < resumed.iteration_log.size(); ++i) {
    EXPECT_EQ(resumed.iteration_log[i].energy,
              full.iteration_log[i + 4].energy)
        << "trajectory diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].quartets_quantized,
              full.iteration_log[i + 4].quartets_quantized)
        << "quartet routing diverged at resumed iteration " << i;
  }
}

/// Interrupted while recovery rung 2 is active: damping, the level shift,
/// the soft-detector history and the cooldown window all carry non-default
/// values across the checkpoint, and the resumed run must still follow the
/// uninterrupted trajectory bit for bit.
TEST_F(CheckpointTest, ResumeIsBitIdenticalWithRecoveryRungActive) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
  }
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  // The perturbation ends (max_fires) before the interruption, so the head
  // and the uninterrupted run see exactly the same faults.
  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 0.3;
  spec.max_fires = kPerturbedIterations;
  ScfOptions base;
  base.max_iterations = 100;

  FaultInjector::instance().arm("scf.density_perturb", spec);
  const ScfResult full = run_scf(w, bs, base);
  FaultInjector::instance().disarm_all();
  ASSERT_TRUE(full.converged);

  const std::string ck = track("resume-rung");
  ScfOptions head = base;
  head.max_iterations = kInterruptAt;
  head.durability.checkpoint_path = ck;
  FaultInjector::instance().arm("scf.density_perturb", spec);
  const ScfResult part = run_scf(w, bs, head);
  FaultInjector::instance().disarm_all();
  ASSERT_FALSE(part.converged);

  // The checkpoint carries the rung-2 state this test is about.
  const ScfState saved = load_checkpoint(ck);
  ASSERT_EQ(saved.next_iteration, kInterruptAt);
  EXPECT_EQ(saved.ladder_rung, 2);
  EXPECT_EQ(saved.damping, 1);
  EXPECT_GT(saved.cooldown_until, saved.next_iteration);
  EXPECT_GT(saved.rise_streak, 0);
  EXPECT_FALSE(saved.err_hist.empty());
  EXPECT_GT(saved.last_error, 10.0 * base.diis_convergence)
      << "the level shift is inactive at the interruption";
  EXPECT_EQ(saved.prev_y_occ.rows(), bs.nbf());
  // The state survives another save/load unchanged, member for member.
  const std::string again = track("resume-rung-again");
  ASSERT_TRUE(save_checkpoint(again, saved).is_ok());
  EXPECT_TRUE(load_checkpoint(again) == saved);

  ScfOptions tail = base;
  tail.durability.restore_path = ck;
  const ScfResult resumed = run_scf(w, bs, tail);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.resumed_from, kInterruptAt);
  EXPECT_EQ(resumed.energy, full.energy);
  expect_bitwise_equal(resumed.density, full.density);
  EXPECT_TRUE(resumed.recovery_log == full.recovery_log);
  ASSERT_EQ(resumed.iteration_log.size(),
            full.iteration_log.size() - kInterruptAt);
  for (std::size_t i = 0; i < resumed.iteration_log.size(); ++i) {
    EXPECT_EQ(resumed.iteration_log[i].energy,
              full.iteration_log[i + kInterruptAt].energy)
        << "trajectory diverged at resumed iteration " << i;
    EXPECT_EQ(resumed.iteration_log[i].error,
              full.iteration_log[i + kInterruptAt].error)
        << "DIIS error diverged at resumed iteration " << i;
  }
}

/// Restoring under a different --precision mode is refused: the mode shapes
/// the whole trajectory, so it is part of the checkpoint fingerprint.
TEST_F(CheckpointTest, ScfRejectsCheckpointUnderDifferentPrecisionMode) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("precision-mode");
  ScfOptions head;
  head.enable_quantization = true;
  head.max_iterations = 2;
  head.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, head);

  ScfOptions tail = head;
  tail.max_iterations = 60;
  tail.durability.checkpoint_path.clear();
  tail.durability.restore_path = ck;
  tail.precision.mode = PrecisionMode::kFP64;
  try {
    (void)run_scf(w, bs, tail);
    FAIL() << "restored a checkpoint under a different precision mode";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }

  // A ladder flip is also trajectory-shaping and must be refused too.
  ScfOptions ladder = head;
  ladder.durability.checkpoint_path.clear();
  ladder.durability.restore_path = ck;
  ladder.precision.use_precision_ladder = true;
  EXPECT_THROW((void)run_scf(w, bs, ladder), InputError);
}

TEST_F(CheckpointTest, CheckpointIntervalSkipsIntermediateWrites) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("interval");
  ScfOptions opt;
  opt.max_iterations = 5;
  opt.durability.checkpoint_path = ck;
  opt.durability.checkpoint_interval = 3;
  const ScfResult r = run_scf(w, bs, opt);
  ASSERT_FALSE(r.converged);
  // Iterations 3 was the only periodic write; the final-state write then
  // persists iteration 5 on exit, so the file must resume at iteration 5.
  const ScfState s = load_checkpoint(ck);
  EXPECT_EQ(s.next_iteration, 5);
}

TEST_F(CheckpointTest, RestoringAConvergedCheckpointReturnsImmediately) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("converged");
  ScfOptions opt;
  opt.durability.checkpoint_path = ck;
  const ScfResult full = run_scf(w, bs, opt);
  ASSERT_TRUE(full.converged);

  ScfOptions again;
  again.durability.restore_path = ck;
  const ScfResult r = run_scf(w, bs, again);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.health, Health::kOk);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.resumed_from, full.iterations);
  EXPECT_EQ(r.energy, full.energy);
}

TEST_F(CheckpointTest, ScfRejectsCheckpointOfDifferentProblem) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("foreign");
  ScfOptions opt;
  opt.max_iterations = 2;
  opt.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, opt);

  // Same checkpoint, different molecule: the fingerprint must refuse it.
  const Molecule methane = make_alkane(1);
  const BasisSet mbs(methane, "sto-3g");
  ScfOptions restore;
  restore.durability.restore_path = ck;
  try {
    (void)run_scf(methane, mbs, restore);
    FAIL() << "restored a checkpoint of a different molecule";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }

  // Different trajectory-shaping option on the same molecule: also refused.
  ScfOptions nodiis;
  nodiis.use_diis = false;
  nodiis.durability.restore_path = ck;
  EXPECT_THROW((void)run_scf(w, bs, nodiis), InputError);
}

TEST_F(CheckpointTest, ScfRejectsCorruptedCheckpoint) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const std::string ck = track("scf-corrupt");
  ScfOptions opt;
  opt.max_iterations = 2;
  opt.durability.checkpoint_path = ck;
  (void)run_scf(w, bs, opt);

  std::fstream f(ck, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff at = static_cast<std::streamoff>(f.tellg()) / 2;
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(at);
  f.write(&byte, 1);
  f.close();

  ScfOptions restore;
  restore.durability.restore_path = ck;
  try {
    (void)run_scf(w, bs, restore);
    FAIL() << "restored a corrupted checkpoint";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointCorrupt);
  }
}

// Regression for the batch-exposed staging collision: writers used to stage
// into a shared `<path>.tmp.<pid>` name, so two same-process threads saving
// concurrently could rename each other's half-written file into place.
// Staging names are now unique per writer; every save must succeed and the
// surviving file must always be one complete, CRC-valid checkpoint.
TEST_F(CheckpointTest, ConcurrentWritersToOnePathNeverCorruptIt) {
  const std::string path = track("collision");
  constexpr int kWriters = 8;
  constexpr int kRounds = 25;

  std::vector<ScfState> states(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    states[w].fingerprint = 0xc0ffee;
    states[w].next_iteration = w + 1;
    states[w].last_energy = -76.0 - w;
    states[w].density = filled(6, 6, 1.0 + w);
    states[w].fock = filled(6, 6, -1.0 - w);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        if (!save_checkpoint(path, states[w]).is_ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Whichever writer won the last rename, the file is a complete state of
  // one of them — load_checkpoint throws on any torn/corrupt image.
  const ScfState r = load_checkpoint(path, 0xc0ffee);
  ASSERT_GE(r.next_iteration, 1);
  ASSERT_LE(r.next_iteration, kWriters);
  const ScfState& expect = states[r.next_iteration - 1];
  EXPECT_EQ(r.last_energy, expect.last_energy);
  expect_bitwise_equal(r.density, expect.density);
  expect_bitwise_equal(r.fock, expect.fock);
}

}  // namespace
}  // namespace mako
