// mako_perfbench — the measuring program of the repository benchmark.
//
// perfbench/run.py builds this program from the checkout and drives it; it
// is the only caller.  Two modes:
//
//   mako_perfbench reference --workload W --seed N
//       Computes the correctness references of one seeded input (energies of
//       the per-quartet reference engine, the FP64 solve, or solo runs) and
//       prints them as {"refs": {...}}.  Never timed.
//
//   mako_perfbench measure --workload W --seed N --seconds S --trace 0|1
//                  [--ref KEY=ENERGY]... [--trace-out PATH]
//       Runs the workload as a closed loop of about S seconds of work, gates
//       every result against the references, and prints one JSON record as
//       the last line of stdout.  --trace 1 additionally runs one more solve
//       (batch round) with tracing on and replays one SCF iteration through
//       the layers' public entry points, timing each call in a span (Chrome
//       trace-event file).
//
// The program drives the library from outside only: MakoEngine and its
// ExecutionContext, run_scf, BatchScheduler::run, and the layer entry points
// named in the replay.  Every configuration choice that the environment
// could override (backend, precision, ranks, grid, ERI batch size) is set
// explicitly.
//
// Exit codes: 0 all gates passed; 1 a correctness gate failed (the record is
// still printed); 2 benchmark error (usage, an exact count that did not
// repeat, a failed timing or layer-accounting identity, a sanitizer build) —
// no record is printed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/batch.hpp"
#include "core/mako.hpp"
#include "integrals/one_electron.hpp"
#include "kernelmako/batched_eri.hpp"
#include "linalg/backend.hpp"
#include "linalg/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/diis.hpp"
#include "scf/fock.hpp"
#include "scf/fock_plan.hpp"
#include "scf/grid.hpp"
#include "scf/scf.hpp"
#include "scf/xc.hpp"

namespace {

using namespace mako;
using Clock = std::chrono::steady_clock;

// --- Workload constants ------------------------------------------------------

constexpr const char* kBackend = "blocked+quantized";
constexpr std::size_t kEriBatch = 32;
constexpr int kHfIterations = 3;      // fixed-iteration mode (Fig 8)
// setup_s is the median of every set-up of a run.  They run in chunks
// (counts per workload: hf, b3lyp, batch), each after a short pause.  A
// batch set-up (scheduler and job list) takes 15-30 us and its speed
// changes in steps lasting tens of milliseconds on a shared host, so one
// chunk would catch one step; many chunks spread it over time.
constexpr int kSetupChunks[] = {21, 21, 40};
constexpr int kSetupsPerChunk[] = {1, 1, 50};
constexpr auto kSetupPause = std::chrono::milliseconds(10);
constexpr int kBatchDrivers = 2;      // jobs in flight
constexpr double kHfGateEh = 1e-8;    // vs the per-quartet reference engine
constexpr double kQuantGateEh = 1e-6; // quantized vs FP64 solve
constexpr double kBatchGateEh = 1e-10;  // batch job vs solo run_scf
// Nominal seconds of one solve (hf, b3lyp) or one batch round on a 4-core
// host.  A run does round(--seconds / nominal) of them (at least one): a
// fixed amount of work per --seconds, so that two program versions measure
// the same jobs and the batch percentiles fall on the same job kinds.
constexpr double kNominalUnitSeconds[] = {11.0, 16.0, 10.0};
// Layer-accounting identity: the replayed iteration's top-level spans must
// cover its wall time up to this share; the rest is reported as `other`.
constexpr double kOtherTolerance = 0.10;
// GEMM probe: wall time spent at each shape.
constexpr double kGemmProbeSeconds = 0.25;

enum class Kind { kHf, kB3lyp, kBatch };

int units_for(Kind kind, double seconds) {
  const double nominal = kNominalUnitSeconds[static_cast<int>(kind)];
  return std::max(1, static_cast<int>(std::lround(seconds / nominal)));
}

Kind parse_kind(const std::string& name) {
  if (name == "hf_tzvp_water3") return Kind::kHf;
  if (name == "b3lyp_631g_quant") return Kind::kB3lyp;
  if (name == "batch_small_mix") return Kind::kBatch;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

MakoOptions pinned_options(const std::string& basis,
                           const std::string& functional,
                           const std::string& precision, bool quantization) {
  MakoOptions o;
  o.basis = basis;
  o.functional = functional;
  o.engine = EriEngineKind::kMako;
  o.backend = kBackend;
  o.ranks = 1;
  o.precision = precision;
  o.quantization = quantization;
  o.grid = GridSpec::standard();
  o.batch_size = kEriBatch;
  return o;
}

struct SoloInput {
  Molecule mol;
  MakoOptions options;
};

SoloInput solo_input(Kind kind, unsigned seed) {
  SoloInput in;
  in.mol = make_water_cluster(3, seed);
  if (kind == Kind::kHf) {
    in.options = pinned_options("def2-tzvp", "hf", "fp64", false);
    in.options.fixed_iterations = kHfIterations;
  } else {
    in.options = pinned_options("6-31g", "b3lyp", "adaptive", true);
    in.options.convergence = 1e-7;
  }
  return in;
}

struct BatchGeometry {
  std::string key;  // "<geometry>/<basis>"
  Molecule mol;
  std::string basis;
  int repeats = 1;  // jobs of this geometry in one batch round
  int group = 0;    // jobs of one group are interleaved (see batch_jobs)
};

// Small HF jobs (7-23 basis functions): a seeded water monomer and dimer,
// and C1-C3 alkanes, in STO-3G and (where they stay small) 6-31G, listed
// from the costliest job to the cheapest.  Every geometry repeats.  The
// cheapest jobs repeat most, so that per-job fixed costs carry weight, and
// the round's median job falls inside the methane/STO-3G group rather than
// on a boundary between job kinds.
std::vector<BatchGeometry> batch_geometries(unsigned seed) {
  const Molecule water1 = make_water_cluster(1, seed);
  const Molecule water2 = make_water_cluster(2, seed);
  return {
      {"propane/sto-3g", make_alkane(3), "sto-3g", 2, 0},
      {"ethane/sto-3g", make_alkane(2), "sto-3g", 2, 0},
      {"water2/sto-3g", water2, "sto-3g", 2, 1},
      {"methane/6-31g", make_alkane(1), "6-31g", 2, 1},
      {"water1/6-31g", water1, "6-31g", 2, 1},
      {"methane/sto-3g", make_alkane(1), "sto-3g", 8, 2},
      {"water1/sto-3g", water1, "sto-3g", 6, 2},
  };
}

// The round's job list, in a fixed order (not seeded: in a 2-wide batch a
// job's time depends on the job beside it, and a seeded order would turn
// that into spread between seeds).  Groups run in the listed order with
// their geometries' jobs interleaved, so the costliest jobs run first beside
// each other and the cheapest last, and a geometry's first two jobs are
// never adjacent: the second starts only after a whole other job, long after
// the first has built the basis and FockPlan (a duplicate build would make
// the exact counts depend on timing).
std::vector<BatchJobSpec> batch_jobs(const std::vector<BatchGeometry>& geoms) {
  std::vector<BatchJobSpec> jobs;
  for (int group = 0; group <= geoms.back().group; ++group) {
    for (int r = 0;; ++r) {
      const std::size_t before = jobs.size();
      for (const BatchGeometry& g : geoms) {
        if (g.group != group || r >= g.repeats) continue;
        BatchJobSpec spec;
        spec.name = g.key;
        spec.molecule = g.mol;
        spec.options = pinned_options(g.basis, "hf", "fp64", false);
        jobs.push_back(std::move(spec));
      }
      if (jobs.size() == before) break;
    }
  }
  return jobs;
}

BatchOptions pinned_batch_options() {
  BatchOptions o;
  o.concurrency = kBatchDrivers;
  o.backend = kBackend;
  o.ranks = 1;
  return o;
}

// --- Small utilities ---------------------------------------------------------

// The set-up samples of a run (see kSetupChunks); `setup` returns seconds.
template <class SetUp>
std::vector<double> setup_samples(Kind kind, SetUp setup) {
  std::vector<double> samples;
  for (int c = 0; c < kSetupChunks[static_cast<int>(kind)]; ++c) {
    std::this_thread::sleep_for(kSetupPause);
    for (int i = 0; i < kSetupsPerChunk[static_cast<int>(kind)]; ++i) {
      samples.push_back(setup());
    }
  }
  return samples;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Highest percentile with at least ten samples beyond it; the maximum when
// there are fewer than eleven samples.  Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n)};
}

std::int64_t counter(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::global().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Insertion-ordered JSON object builder (flat values or nested objects).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& obj(const std::string& key, const JsonObject& v) {
    return raw(key, v.dump());
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::string args;  // preformatted "key":value pairs, or ""
  int id = 0;
  int parent = -1;
  int run = 0;
  double start_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] double seconds() const { return 1e-6 * (end_us - start_us); }
};

// In-memory span log of the benchmark's own calls into the library.  Spans
// nest on one thread (the replay is serial), so a stack gives each span its
// parent.  Written out once, as Chrome trace-event JSON, when the run ends.
class SpanLog {
 public:
  int begin(const std::string& name, int run, std::string args = {}) {
    Span s;
    s.name = name;
    s.args = std::move(args);
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run;
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  // Duration minus the part of it that the span's children cover (children
  // of one parent never overlap: they run one after another on one thread).
  [[nodiscard]] double self_seconds(int id) const {
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) covered += s.seconds();
    }
    return span(id).seconds() - covered;
  }

  [[nodiscard]] std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                    "\"parent\": %d, \"run\": %d, \"self_us\": %.3f",
                    json_string(s.name).c_str(), s.run, s.start_us,
                    s.end_us - s.start_us, s.id, s.parent, s.run,
                    1e6 * self_seconds(s.id));
      out += buf;
      if (!s.args.empty()) out += ", " + s.args;
      out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    }
    return out + "]}\n";
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Opens a span for the enclosing scope; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int run,
             std::string args = {})
      : log_(log), id_(log ? log->begin(name, run, std::move(args)) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    if (log_ != nullptr && !closed_) log_->end(id_);
    closed_ = true;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  bool closed_ = false;
};

// --- Exact counts ------------------------------------------------------------

// Counts that must repeat exactly for one seed: read from the metrics
// registry (reset before each solve or batch round) and from the results.
struct Counts {
  std::int64_t gemm_calls = 0;
  std::int64_t kernel_quartets = 0;
  std::int64_t screen_visited = 0;
  std::int64_t quartets_fp64 = 0;
  std::int64_t quartets_quantized = 0;
  std::int64_t quartets_pruned = 0;
  std::int64_t plan_builds = 0;
  std::int64_t plan_hits = 0;
  std::int64_t iterations = 0;

  [[nodiscard]] bool operator==(const Counts&) const = default;

  [[nodiscard]] JsonObject json() const {
    JsonObject o;
    o.integer("gemm.calls", gemm_calls)
        .integer("kernel.quartets", kernel_quartets)
        .integer("fock.screen_visited", screen_visited)
        .integer("quartets.fp64", quartets_fp64)
        .integer("quartets.quantized", quartets_quantized)
        .integer("quartets.pruned", quartets_pruned)
        .integer("fock_plan.builds", plan_builds)
        .integer("fock_plan.hits", plan_hits)
        .integer("iterations", iterations);
    return o;
  }
};

void add_telemetry_counts(const ScfResult& r, Counts& c) {
  for (const obs::IterationTelemetry& t : r.telemetry) {
    c.quartets_fp64 += t.quartets_fp64;
    c.quartets_quantized += t.quartets_quantized;
    c.quartets_pruned += t.quartets_pruned;
  }
  c.iterations += r.iterations;
}

void add_registry_counts(Counts& c) {
  c.gemm_calls += counter("gemm.calls");
  c.kernel_quartets += counter("kernel.quartets");
  c.screen_visited += counter("fock.screen_visited");
}

// --- Gates -------------------------------------------------------------------

struct Refs {
  std::map<std::string, double> energy;

  [[nodiscard]] double at(const std::string& key) const {
    const auto it = energy.find(key);
    if (it == energy.end()) {
      throw BenchError("missing reference energy '" + key + "'");
    }
    return it->second;
  }
};

struct GateLog {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double max_energy_err = 0.0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

// --- Shared timing record of one measured loop -------------------------------

struct LoopResult {
  std::vector<double> iter_s;  // iteration_log[i].seconds, i >= 1
  std::vector<double> solve_s;
  std::vector<double> job_s;
  std::vector<double> setup_s;
  std::int64_t jobs = 0;
  double busy_s = 0.0;  // summed job (or solve) seconds
  double logged_s = 0.0;  // summed iteration-log seconds of those jobs
  double wall_s = 0.0;  // timed-region wall time
  double cpu_s = 0.0;   // process CPU over the timed region
  std::int64_t parallel_fors = 0;
  std::int64_t scf_iterations = 0;
  std::int64_t quartets_fp64 = 0;
  std::int64_t quartets_quantized = 0;
  std::int64_t recoveries = 0;
  std::int64_t plan_builds = 0;
  std::int64_t plan_hits = 0;
  std::vector<Counts> counts;  // one per solve or batch round
  std::map<std::string, std::vector<double>> job_s_by_key;  // batch only

  void add_scf(const ScfResult& r) {
    for (std::size_t i = 1; i < r.iteration_log.size(); ++i) {
      iter_s.push_back(r.iteration_log[i].seconds);
    }
    for (const ScfIterationRecord& rec : r.iteration_log) {
      quartets_fp64 += rec.quartets_fp64;
      quartets_quantized += rec.quartets_quantized;
    }
    scf_iterations += r.iterations;
    recoveries += static_cast<std::int64_t>(r.recovery_log.size());
  }
};

// The iteration log must fit the benchmark's own wall time around the job.
// The rest of that wall time (one-electron integrals, orthogonalizer, grid)
// is reported as a note, not limited: it stays the same size when the
// iterations get faster.  Returns the logged seconds.
double check_iteration_log(const ScfResult& r, double wall) {
  double logged = 0.0;
  for (const ScfIterationRecord& rec : r.iteration_log) logged += rec.seconds;
  if (logged > wall) {
    throw BenchError("iteration log (" + json_number(logged) +
                     " s) exceeds the wall time around run_scf (" +
                     json_number(wall) + " s)");
  }
  return logged;
}

void check_counts_repeat(const std::vector<Counts>& counts) {
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (!(counts[i] == counts[0])) {
      throw BenchError("exact counts did not repeat within the run: " +
                       counts[0].json().dump() + " vs " +
                       counts[i].json().dump());
    }
  }
}

// --- Replay ------------------------------------------------------------------

// Aggregates of the traced replay, summed over replays (one per distinct
// geometry).
struct ReplayTotals {
  double plan_build_s = 0.0;
  double build_jk_s = 0.0;
  double xc_s = 0.0;
  double diis_s = 0.0;
  double eigh_s = 0.0;
  double core_h_s = 0.0;
  double iteration_s = 0.0;
  double other_s = 0.0;
  std::int64_t jk_computed = 0;
  std::int64_t jk_visited = 0;
  double kernel_s = 0.0;
  double lowl_s = 0.0;
  double highl_s = 0.0;
  std::int64_t kernel_quartets = 0;
  std::int64_t kernel_gemm_calls = 0;
  double kernel_gemm_flops = 0.0;
  double kernel_bytes = 0.0;
  double gemm_flops[3] = {0, 0, 0};  // tiny, mid, large
  double gemm_s[3] = {0, 0, 0};
};

// The governor's policy for the run's final iteration: a governor of the
// run's configuration, brought to the run's latch state, asked for that
// iteration at the error the iteration started from.  Checked against the
// iteration's telemetry.
IterationPolicy final_policy(const ExecutionContext& ctx, const ScfOptions& scf,
                             const ScfResult& r) {
  PrecisionGovernor governor = ctx.make_governor(
      scf.precision, scf.enable_quantization, scf.prune_threshold);
  if (r.fp64_latched) governor.latch_fp64();
  const obs::IterationTelemetry& last = r.telemetry.back();
  if (std::strcmp(last.reason, to_string(PlanReason::kFinalExactPolish)) ==
      0) {
    governor.request_exact_final();
  }
  const double err =
      r.telemetry.size() > 1 ? r.telemetry[r.telemetry.size() - 2].error : 1.0;
  const IterationPolicy p = governor.plan_for_iteration(last.iteration, err);
  if (p.allow_quantized != last.quantized_allowed ||
      p.fp64_threshold != last.fp64_threshold ||
      p.prune_threshold != last.prune_threshold) {
    throw BenchError("replay: the governor's policy differs from the run's");
  }
  return p;
}

MatrixD occupied_density(const MatrixD& c, std::size_t nocc) {
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

struct GemmShape {
  std::size_t m = 0, n = 0, k = 0;
  bool trans_a = false;
};

// One GEMM probe: GemmBackend::fp64 calls at one shape for about
// kGemmProbeSeconds (the clock is read every 16 calls), in one span.
void probe_gemm(SpanLog& log, int run, const GemmBackend& be,
                const char* label, const GemmShape& s, double& flops,
                double& secs) {
  if (s.m == 0) return;
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n, 0.0);
  for (double& v : a) v = dist(rng);
  for (double& v : b) v = dist(rng);
  char args[128];
  std::snprintf(args, sizeof args,
                "\"shape\": \"%s\", \"m\": %zu, \"n\": %zu, \"k\": %zu", label,
                s.m, s.n, s.k);
  ScopedSpan span(&log, "linalg.gemm", run, args);
  const auto t0 = Clock::now();
  std::int64_t calls = 0;
  do {
    for (int i = 0; i < 16; ++i, ++calls) {
      be.fp64(a.data(), s.trans_a, b.data(), false, c.data(), s.m, s.n, s.k,
              1.0, 1.0);
    }
  } while (seconds_since(t0) < kGemmProbeSeconds);
  span.close();
  flops += gemm_flops(s.m, s.n, s.k) * static_cast<double>(calls);
  secs += log.span(span.id()).seconds();
}

int max_l(const EriClassKey& k) {
  return std::max(std::max(k.la, k.lb), std::max(k.lc, k.ld));
}

// Replays one SCF iteration at `final_state`'s density through the public
// layer entry points, then the ERI batches of every Schwarz-significant
// quartet and the three GEMM shapes of this basis.
void replay(SpanLog& log, int run, const ExecutionContext& ctx,
            const Molecule& mol, const BasisSet& basis, const ScfOptions& scf,
            const ScfResult& final_state, ReplayTotals& tot) {
  const GemmBackend& be = ctx.backend();
  ScopedSpan root(&log, "replay", run);

  // Plan construction, outside any cache.
  {
    ScopedSpan span(&log, "scf.fock_plan", run);
    const FockPlan fresh(basis, ctx.pool());
    span.close();
    tot.plan_build_s += log.span(span.id()).seconds();
  }
  MatrixD hcore;
  {
    ScopedSpan span(&log, "integrals.core_hamiltonian", run);
    hcore = core_hamiltonian(basis, mol);
    span.close();
    tot.core_h_s += log.span(span.id()).seconds();
  }

  // Iteration-invariant inputs of the replayed iteration.
  const MatrixD s = overlap_matrix(basis);
  const MatrixD x = inverse_sqrt(s, scf.lindep_threshold);
  std::unique_ptr<MolecularGrid> grid;
  if (!scf.xc.is_hf_only()) {
    grid = std::make_unique<MolecularGrid>(mol, scf.grid);
  }
  FockBuilder builder(basis, scf.fock, &ctx);
  const IterationPolicy policy = final_policy(ctx, scf, final_state);
  const MatrixD& d = final_state.density;
  const auto nocc = static_cast<std::size_t>(mol.num_electrons() / 2);

  // The replayed iteration: its top-level spans must account for its wall.
  ScopedSpan iteration(&log, "scf.iteration", run);
  MatrixD j, k;
  FockStats fs;
  {
    ScopedSpan span(&log, "scf.fock.build_jk", run);
    fs = builder.build_jk(d, policy, j, k);
  }
  XcResult xres;
  if (grid) {
    ScopedSpan span(&log, "scf.xc", run);
    xres = integrate_xc(basis, *grid, scf.xc, d, &be);
  }
  MatrixD fock = hcore;
  fock += j;
  const double cx = scf.xc.exact_exchange();
  if (cx != 0.0) {
    MatrixD kscaled = k;
    kscaled *= -0.5 * cx;
    fock += kscaled;
  }
  if (grid) fock += xres.vxc;
  MatrixD f_use;
  {
    ScopedSpan span(&log, "scf.diis", run);
    const MatrixD err = diis_error_matrix(fock, d, s, x, &be);
    Diis diis;
    f_use = diis.extrapolate(fock, err);
  }
  const MatrixD f_ortho =
      matmul(matmul(x, Trans::kYes, f_use, Trans::kNo, &be), x, &be);
  EigenResult es;
  {
    ScopedSpan span(&log, "linalg.eigh", run);
    es = eigh(f_ortho);
  }
  const MatrixD d_next =
      occupied_density(matmul(x, es.eigenvectors, &be), nocc);
  iteration.close();

  double children = 0.0;
  for (const Span& sp : log.spans()) {
    if (sp.parent != iteration.id()) continue;
    children += sp.seconds();
    if (sp.name == "scf.fock.build_jk") tot.build_jk_s += sp.seconds();
    if (sp.name == "scf.xc") tot.xc_s += sp.seconds();
    if (sp.name == "scf.diis") tot.diis_s += sp.seconds();
    if (sp.name == "linalg.eigh") tot.eigh_s += sp.seconds();
  }
  const double wall = log.span(iteration.id()).seconds();
  tot.iteration_s += wall;
  tot.other_s += wall - children;
  tot.jk_computed += fs.quartets_fp64 + fs.quartets_quantized;
  tot.jk_visited += fs.screen_visited;
  if (d_next.rows() != d.rows()) throw BenchError("replay: density shape");

  // ERI batches: every Schwarz-significant symmetry-unique quartet, grouped
  // by class exactly as the Fock routing orders shell roles, in batches of
  // kEriBatch, on this thread.
  const FockPlan& plan = builder.plan();
  const std::vector<FockShellPair>& pairs = plan.pairs();
  std::vector<std::vector<QuartetRef>> by_slot(plan.quartet_classes().size());
  for (std::size_t bi = 0; bi < pairs.size(); ++bi) {
    for (std::size_t ki = bi; ki < pairs.size(); ++ki) {
      if (pairs[bi].q * pairs[ki].q < scf.prune_threshold) break;
      const FockShellPair* bra = &pairs[bi];
      const FockShellPair* ket = &pairs[ki];
      if (ket->i1 > bra->i1 || (ket->i1 == bra->i1 && ket->i2 > bra->i2)) {
        std::swap(bra, ket);
      }
      by_slot[plan.class_slot(bra->klass, ket->klass)].push_back(
          QuartetRef{bra->s1, bra->s2, ket->s1, ket->s2});
    }
  }
  const BatchedEriEngine engine(KernelConfig{}, &be, &ctx.plans());
  EriScratch scratch;
  std::vector<std::vector<double>> out;
  const std::int64_t gemm_before = counter("gemm.calls");
  // Per class: quartet count and GEMM FLOPs, for the GEMM shape choice.
  std::vector<double> class_weight(by_slot.size(), 0.0);
  for (std::size_t slot = 0; slot < by_slot.size(); ++slot) {
    const std::vector<QuartetRef>& refs = by_slot[slot];
    if (refs.empty()) continue;
    const EriClassKey& key = plan.quartet_classes()[slot];
    const EriClassPlan& cplan = ctx.plans().get(key);
    char args[160];
    std::snprintf(args, sizeof args, "\"class\": %s, \"quartets\": %zu",
                  json_string(key.name()).c_str(), refs.size());
    ScopedSpan span(&log, "kernelmako.compute_batch", run, args);
    for (std::size_t at = 0; at < refs.size(); at += kEriBatch) {
      const std::size_t n = std::min(kEriBatch, refs.size() - at);
      const BatchStats bs = engine.compute_batch(
          cplan, std::span<const QuartetRef>(refs.data() + at, n), out,
          scratch);
      tot.kernel_gemm_flops += bs.gemm_flops;
      tot.kernel_bytes += bs.global_bytes;
    }
    span.close();
    const double secs = log.span(span.id()).seconds();
    tot.kernel_s += secs;
    (max_l(key) <= 1 ? tot.lowl_s : tot.highl_s) += secs;
    tot.kernel_quartets += static_cast<std::int64_t>(refs.size());
    class_weight[slot] = static_cast<double>(refs.size());
  }
  tot.kernel_gemm_calls += counter("gemm.calls") - gemm_before;

  // GEMM shapes of this basis' class plans.  tiny: the most frequent low-L
  // GEMM1 shape; mid / large: the dominant GEMM of the d- / f-class that
  // does the most GEMM FLOPs.
  GemmShape shapes[3];
  double best[3] = {0, 0, 0};
  for (std::size_t slot = 0; slot < by_slot.size(); ++slot) {
    const EriClassKey& key = plan.quartet_classes()[slot];
    const EriClassPlan& cp = ctx.plans().get(key);
    const GemmShape g1{static_cast<std::size_t>(cp.ncb),
                       static_cast<std::size_t>(cp.nhk),
                       static_cast<std::size_t>(cp.nhb), true};
    const GemmShape g2{static_cast<std::size_t>(cp.ncb),
                       static_cast<std::size_t>(cp.nck),
                       static_cast<std::size_t>(cp.nhk), false};
    const int l = max_l(key);
    if (l <= 1) {
      const double calls = class_weight[slot] * key.kab * key.kcd;
      if (calls > best[0]) {
        best[0] = calls;
        shapes[0] = g1;
      }
    } else if (l <= 3) {
      const int which = l == 2 ? 1 : 2;
      const double flops = class_weight[slot] * key.gemm_flops_per_quartet();
      if (flops > best[which]) {
        best[which] = flops;
        shapes[which] = key.gemm1_flops() >= key.gemm2_flops() ? g1 : g2;
      }
    }
  }
  const char* labels[3] = {"tiny", "mid", "large"};
  for (int i = 0; i < 3; ++i) {
    probe_gemm(log, run, be, labels[i], shapes[i], tot.gemm_flops[i],
               tot.gemm_s[i]);
  }
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    o.obj(m.name, JsonObject().num("value", m.value).str("unit", m.unit));
  }
  return o.dump();
}

JsonObject provenance(unsigned seed) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v == nullptr ? "" : v);
  };
  JsonObject o;
  o.str("build_type", PERFBENCH_BUILD_TYPE)
      .str("MAKO_NATIVE_ARCH", PERFBENCH_NATIVE_ARCH)
      .boolean("MAKO_OBSERVABILITY", obs::compiled_in())
      .str("MAKO_FAULT_INJECTION", PERFBENCH_FAULT_INJECTION)
      .integer("nproc", static_cast<std::int64_t>(
                            std::thread::hardware_concurrency()))
      .integer("pool_width",
               static_cast<std::int64_t>(ThreadPool::global().size()))
      .integer("seed", seed)
      .str("backend", kBackend)
      .integer("ranks", 1)
      .str("env.MAKO_BACKEND", env("MAKO_BACKEND"))
      .str("env.MAKO_PRECISION", env("MAKO_PRECISION"))
      .str("env.MAKO_RANKS", env("MAKO_RANKS"));
  return o;
}

// --- Solo workloads (hf_tzvp_water3, b3lyp_631g_quant) -----------------------

struct SoloState {
  std::unique_ptr<MakoEngine> engine;
  std::unique_ptr<BasisSet> basis;
  std::shared_ptr<const FockPlan> plan;

  void reset() {
    plan.reset();
    basis.reset();
    engine.reset();
  }
};

// Set-up: the engine and its context, the basis, and the FockPlan through
// the context's FockPlanCache (so plan build lands here, not in iteration 0).
double solo_setup(const SoloInput& in, SoloState& st) {
  st.reset();
  const auto t0 = Clock::now();
  st.engine = std::make_unique<MakoEngine>(in.options);
  st.basis = std::make_unique<BasisSet>(in.mol, in.options.basis);
  const ExecutionContext& ctx = st.engine->context();
  st.plan = ctx.components().get<FockPlanCache>().get(*st.basis, ctx.pool());
  return seconds_since(t0);
}

void gate_solo(Kind kind, const ScfResult& r, const Refs& refs,
               GateLog& gates) {
  const double err = std::fabs(r.energy - refs.at("water3"));
  gates.max_energy_err = std::max(gates.max_energy_err, err);
  char what[160];
  if (kind == Kind::kHf) {
    std::snprintf(what, sizeof what,
                  "hf: health=%s iterations=%d |E-E_ref|=%.3e", to_string(
                      r.health), r.iterations, err);
    gates.check(r.health == Health::kOk && r.iterations == kHfIterations &&
                    err <= kHfGateEh,
                what);
  } else {
    std::snprintf(what, sizeof what,
                  "b3lyp: health=%s converged=%d |E-E_fp64|=%.3e",
                  to_string(r.health), r.converged ? 1 : 0, err);
    gates.check(r.health == Health::kOk && r.converged && err <= kQuantGateEh,
                what);
  }
}

// Closed loop of `solves` solves with one caller: the next run_scf starts
// when the previous returns.
LoopResult solo_loop(Kind kind, const SoloInput& in, SoloState& st,
                     const Refs& refs, GateLog& gates, int solves,
                     SpanLog* log, int run, ScfResult& last) {
  LoopResult lr;
  const ScfOptions scf = scf_options_from(st.engine->options());
  const ExecutionContext& ctx = st.engine->context();
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  for (int i = 0; i < solves; ++i) {
    ctx.metrics().reset();
    const auto s0 = Clock::now();
    ScopedSpan span(log, "scf.run", run);
    last = run_scf(in.mol, *st.basis, scf, &ctx);
    span.close();
    const double wall = seconds_since(s0);

    lr.logged_s += check_iteration_log(last, wall);
    gate_solo(kind, last, refs, gates);
    lr.add_scf(last);
    lr.solve_s.push_back(wall);
    lr.job_s.push_back(wall);
    lr.busy_s += wall;
    ++lr.jobs;
    lr.parallel_fors += counter("pool.parallel_for");
    Counts c;
    add_registry_counts(c);
    add_telemetry_counts(last, c);
    c.plan_builds = counter("fock.plan_builds");
    c.plan_hits = counter("fock.plan_cache_hits");
    lr.counts.push_back(c);
  }
  lr.wall_s = seconds_since(t0);
  lr.cpu_s = cpu_seconds() - cpu0;
  const FockPlanCache& cache = ctx.components().get<FockPlanCache>();
  lr.plan_builds = cache.builds();
  lr.plan_hits = cache.hits();
  return lr;
}

// --- Batch workload (batch_small_mix) ----------------------------------------

struct BatchState {
  std::unique_ptr<BatchScheduler> scheduler;
  std::vector<BatchJobSpec> jobs;
};

double batch_setup(const std::vector<BatchGeometry>& geoms, BatchState& st) {
  st.scheduler.reset();
  st.jobs.clear();
  const auto t0 = Clock::now();
  st.scheduler = std::make_unique<BatchScheduler>(pinned_batch_options());
  st.jobs = batch_jobs(geoms);
  return seconds_since(t0);
}

// Gates one round: every job ran, converged with Health::kOk, matches its
// solo reference, and repeats of one key are bit-identical (also across
// rounds, through `first_energy`).
void gate_batch(const std::vector<BatchJobResult>& results, const Refs& refs,
                std::map<std::string, double>& first_energy, GateLog& gates) {
  for (const BatchJobResult& r : results) {
    char what[200];
    if (!r.ran) {
      std::snprintf(what, sizeof what, "batch %s: not run: %s",
                    r.name.c_str(), r.error.c_str());
      gates.check(false, what);
      continue;
    }
    const double err = std::fabs(r.scf.energy - refs.at(r.name));
    gates.max_energy_err = std::max(gates.max_energy_err, err);
    const auto [it, fresh] = first_energy.try_emplace(r.name, r.scf.energy);
    const bool repeat_ok =
        fresh || std::memcmp(&it->second, &r.scf.energy, sizeof(double)) == 0;
    std::snprintf(what, sizeof what,
                  "batch %s: health=%s converged=%d |E-E_solo|=%.3e "
                  "bit-identical-repeat=%d",
                  r.name.c_str(), to_string(r.health), r.scf.converged ? 1 : 0,
                  err, repeat_ok ? 1 : 0);
    gates.check(r.health == Health::kOk && r.scf.converged &&
                    err <= kBatchGateEh && repeat_ok,
                what);
  }
}

// Closed loop of `rounds` batch rounds: each round builds a scheduler and
// the job list (set-up), then BatchScheduler::run with two drivers.
LoopResult batch_loop(const std::vector<BatchGeometry>& geoms,
                      const Refs& refs, GateLog& gates, int rounds,
                      SpanLog* log, int run,
                      std::vector<BatchJobResult>& last) {
  LoopResult lr;
  std::map<std::string, double> first_energy;
  double run_wall = 0.0;
  double cpu = 0.0;
  for (int i = 0; i < rounds; ++i) {
    BatchState st;
    lr.setup_s.push_back(batch_setup(geoms, st));
    obs::MetricsRegistry::global().reset();
    const double cpu0 = cpu_seconds();
    const auto r0 = Clock::now();
    ScopedSpan span(log, "core.batch.run", run);
    last = st.scheduler->run(st.jobs);
    span.close();
    const double wall = seconds_since(r0);
    cpu += cpu_seconds() - cpu0;
    run_wall += wall;

    gate_batch(last, refs, first_energy, gates);
    const BatchRunStats& stats = st.scheduler->stats();
    lr.solve_s.push_back(wall);
    lr.jobs += static_cast<std::int64_t>(last.size());
    Counts c;
    add_registry_counts(c);
    for (const BatchJobResult& r : last) {
      lr.job_s.push_back(r.seconds);
      lr.job_s_by_key[r.name].push_back(r.seconds);
      lr.busy_s += r.seconds;
      if (r.ran) {
        lr.logged_s += check_iteration_log(r.scf, r.seconds);
        lr.add_scf(r.scf);
        add_telemetry_counts(r.scf, c);
      }
    }
    c.plan_builds = stats.fock_plan_builds;
    c.plan_hits = stats.fock_plan_hits;
    lr.plan_builds += stats.fock_plan_builds;
    lr.plan_hits += stats.fock_plan_hits;
    lr.parallel_fors += counter("pool.parallel_for");
    lr.counts.push_back(c);
  }
  // Throughput counts BatchScheduler::run time only; set-up is setup_s.
  lr.wall_s = run_wall;
  lr.cpu_s = cpu;
  return lr;
}

// --- Modes -------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  Refs refs;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw BenchError("usage: mako_perfbench reference|measure ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw BenchError("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = static_cast<unsigned>(std::stoul(val));
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--ref") {
      const std::size_t eq = val.find('=');
      if (eq == std::string::npos) throw BenchError("--ref wants KEY=ENERGY");
      a.refs.energy[val.substr(0, eq)] = std::strtod(val.c_str() + eq + 1,
                                                     nullptr);
    } else {
      throw BenchError("unknown argument " + key);
    }
  }
  parse_kind(a.workload);
  if (a.mode != "reference" && a.mode != "measure") {
    throw BenchError("unknown mode " + a.mode);
  }
  return a;
}

int run_reference(const Args& a) {
  const Kind kind = parse_kind(a.workload);
  JsonObject refs;
  if (kind == Kind::kBatch) {
    // Solo run_scf of each distinct job, with the batch job's options.
    for (const BatchGeometry& g : batch_geometries(a.seed)) {
      MakoEngine engine(pinned_options(g.basis, "hf", "fp64", false));
      refs.num(g.key, engine.compute_energy(g.mol).scf.energy);
    }
  } else {
    SoloInput in = solo_input(kind, a.seed);
    if (kind == Kind::kHf) {
      in.options.engine = EriEngineKind::kReference;
    } else {
      in.options.precision = "fp64";
      in.options.quantization = false;
    }
    MakoEngine engine(in.options);
    const MakoReport rep = engine.compute_energy(in.mol);
    if (rep.scf.health != Health::kOk ||
        (kind == Kind::kB3lyp && !rep.scf.converged)) {
      throw BenchError("reference solve failed: health " +
                       std::string(to_string(rep.scf.health)));
    }
    refs.num("water3", rep.scf.energy);
  }
  std::printf("%s\n", JsonObject().obj("refs", refs).dump().c_str());
  return 0;
}

int run_measure(const Args& a) {
  const Kind kind = parse_kind(a.workload);
  GateLog gates;
  LoopResult lr;
  ScfResult last_solo;
  std::vector<BatchJobResult> last_batch;
  SoloState solo;
  SoloInput in;
  std::vector<BatchGeometry> geoms;

  if (kind == Kind::kBatch) {
    geoms = batch_geometries(a.seed);
    // Each round sets up its own scheduler; extra set-ups give setup_s
    // more samples.
    const std::vector<double> setups = setup_samples(kind, [&] {
      BatchState st;
      return batch_setup(geoms, st);
    });
    lr = batch_loop(geoms, a.refs, gates, units_for(kind, a.seconds),
                    nullptr, 0, last_batch);
    lr.setup_s.insert(lr.setup_s.end(), setups.begin(), setups.end());
  } else {
    in = solo_input(kind, a.seed);
    const std::vector<double> setups =
        setup_samples(kind, [&] { return solo_setup(in, solo); });
    lr = solo_loop(kind, in, solo, a.refs, gates, units_for(kind, a.seconds),
                   nullptr, 0, last_solo);
    lr.setup_s = setups;
  }
  check_counts_repeat(lr.counts);
  const double rss = peak_rss_mib();

  // Solo: the Fig-8 median.  Batch: round wall time per SCF iteration of the
  // round; the median iteration there is a ~20 ms tiny-job iteration whose
  // time is mostly thread wake-up latency, which swings 30% between runs
  // with the host's CPU share.
  const double iter_s =
      kind == Kind::kBatch
          ? lr.wall_s / static_cast<double>(lr.scf_iterations)
          : median(lr.iter_s);
  const double jobs_per_s = static_cast<double>(lr.jobs) / lr.wall_s;
  const auto [tail_s, tail_pct] = tail(lr.job_s);
  const double ok_frac =
      1.0 - static_cast<double>(gates.failed) /
                static_cast<double>(std::max<std::int64_t>(gates.attempted, 1));
  // Batch: SCF iterations of one round (all jobs); solo: of one solve.
  const double iterations = static_cast<double>(lr.counts.front().iterations);

  std::vector<Metric> metrics;
  JsonObject notes;
  if (!a.trace) {
    metrics = {
        {"setup_s", median(lr.setup_s), "s"},
        {"iter_s", iter_s, "s"},
        {"solve_s", median(lr.solve_s), "s"},
        {"iterations", iterations, "count"},
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"job_s.p50", median(lr.job_s), "s"},
        {"job_s.tail", tail_s, "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"ok_frac", ok_frac, "ratio"},
    };
  } else {
    // One more solve (batch round) with the program's tracer and the
    // benchmark's spans on, for the overhead figure; then the replay.
    SpanLog log;
    obs::Tracer::instance().start();
    LoopResult traced;
    if (kind == Kind::kBatch) {
      std::vector<BatchJobResult> unused;
      traced = batch_loop(geoms, a.refs, gates, 1, &log, 0, unused);
    } else {
      ScfResult unused;
      traced = solo_loop(kind, in, solo, a.refs, gates, 1, &log, 0, unused);
    }
    obs::Tracer::instance().stop();
    lr.counts.push_back(traced.counts.front());
    check_counts_repeat(lr.counts);
    const double overhead =
        kind == Kind::kBatch
            ? jobs_per_s / (static_cast<double>(traced.jobs) / traced.wall_s) -
                  1.0
            : median(traced.iter_s) / iter_s - 1.0;

    ReplayTotals tot;
    if (kind == Kind::kBatch) {
      // One job of each distinct geometry, at its final density.
      BatchScheduler scheduler(pinned_batch_options());
      int run = 1;
      for (const BatchGeometry& g : geoms) {
        const auto it = std::find_if(
            last_batch.begin(), last_batch.end(),
            [&](const BatchJobResult& r) { return r.name == g.key && r.ran; });
        if (it == last_batch.end()) throw BenchError("no result for " + g.key);
        const BasisSet basis(g.mol, g.basis);
        const ScfOptions scf =
            scf_options_from(pinned_options(g.basis, "hf", "fp64", false));
        replay(log, run++, scheduler.context(), g.mol, basis, scf, it->scf,
               tot);
      }
    } else {
      const ScfOptions scf = scf_options_from(solo.engine->options());
      replay(log, 1, solo.engine->context(), in.mol, *solo.basis, scf,
             last_solo, tot);
    }
    const double other_frac = tot.other_s / tot.iteration_s;
    if (other_frac > kOtherTolerance) {
      throw BenchError("layer accounting: spans leave " +
                       json_number(100.0 * other_frac) +
                       "% of the replayed iteration unaccounted (tolerance " +
                       json_number(100.0 * kOtherTolerance) + "%)");
    }
    auto rate = [](double flops, double secs) {
      return secs > 0.0 ? flops / secs * 1e-9 : 0.0;
    };
    metrics = {
        {"scf.fock_plan.build_s", tot.plan_build_s, "s"},
        {"scf.fock.build_jk_s", tot.build_jk_s, "s"},
        {"scf.fock.useful_frac",
         static_cast<double>(tot.jk_computed) /
             static_cast<double>(std::max<std::int64_t>(tot.jk_visited, 1)),
         "ratio"},
        {"scf.xc.integrate_s", tot.xc_s, "s"},
        {"scf.diis_s", tot.diis_s, "s"},
        {"scf.iteration.other_s", tot.other_s, "s"},
        {"kernelmako.batch_s", tot.kernel_s, "s"},
        {"kernelmako.lowl_s", tot.lowl_s, "s"},
        {"kernelmako.highl_s", tot.highl_s, "s"},
        {"kernelmako.quartets_per_s",
         static_cast<double>(tot.kernel_quartets) / tot.kernel_s, "1/s"},
        {"kernelmako.gflops", rate(tot.kernel_gemm_flops, tot.kernel_s),
         "GFLOP/s"},
        {"kernelmako.flops_per_byte", tot.kernel_gemm_flops / tot.kernel_bytes,
         "ratio"},
        {"kernelmako.gemm_calls_per_quartet",
         static_cast<double>(tot.kernel_gemm_calls) /
             static_cast<double>(tot.kernel_quartets),
         "count"},
        {"linalg.gemm_tiny.gflops", rate(tot.gemm_flops[0], tot.gemm_s[0]),
         "GFLOP/s"},
        {"linalg.gemm_mid.gflops", rate(tot.gemm_flops[1], tot.gemm_s[1]),
         "GFLOP/s"},
        {"linalg.gemm_large.gflops", rate(tot.gemm_flops[2], tot.gemm_s[2]),
         "GFLOP/s"},
        {"linalg.eigh_s", tot.eigh_s, "s"},
        {"integrals.core_hamiltonian_s", tot.core_h_s, "s"},
        {"precision.quantized_frac",
         static_cast<double>(lr.quartets_quantized) /
             static_cast<double>(std::max<std::int64_t>(
                 lr.quartets_fp64 + lr.quartets_quantized, 1)),
         "ratio"},
        {"precision.energy_err_eh", gates.max_energy_err, "Eh"},
        {"robust.recoveries", static_cast<double>(lr.recoveries), "count"},
        {"core.batch.plan_hit_frac",
         static_cast<double>(lr.plan_hits) /
             static_cast<double>(
                 std::max<std::int64_t>(lr.plan_builds + lr.plan_hits, 1)),
         "ratio"},
        {"core.batch.driver_busy_frac",
         lr.busy_s /
             ((kind == Kind::kBatch ? kBatchDrivers : 1) * lr.wall_s),
         "ratio"},
        {"parallel.cpu_per_wall", lr.cpu_s / lr.wall_s, "ratio"},
        {"parallel.parallel_for_per_iter",
         static_cast<double>(lr.parallel_fors) /
             static_cast<double>(std::max<std::int64_t>(lr.scf_iterations, 1)),
         "count"},
        {"trace.overhead_frac", overhead, "ratio"},
    };
    notes.num("replay.iteration_s", tot.iteration_s)
        .num("replay.other_frac", other_frac)
        .num("replay.other_tolerance", kOtherTolerance)
        .integer("replay.kernel_quartets", tot.kernel_quartets);
    if (!a.trace_out.empty()) {
      std::FILE* f = std::fopen(a.trace_out.c_str(), "w");
      if (f == nullptr) throw BenchError("cannot write " + a.trace_out);
      const std::string doc = log.chrome_json();
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
      obs::Tracer::instance().write_json(a.trace_out + ".program.json");
      notes.str("trace_file", a.trace_out);
    }
  }

  notes.integer("samples.iter_s", static_cast<std::int64_t>(lr.iter_s.size()))
      .integer("samples.solve_s", static_cast<std::int64_t>(lr.solve_s.size()))
      .integer("samples.job_s", static_cast<std::int64_t>(lr.job_s.size()))
      .num("job_s.tail_percentile", tail_pct)
      .integer("samples.setup_s", static_cast<std::int64_t>(lr.setup_s.size()))
      .num("job_s.outside_iterations_frac", 1.0 - lr.logged_s / lr.busy_s)
      .integer("failed_frac.base", gates.attempted)
      .num("failed_frac",
           static_cast<double>(gates.failed) /
               static_cast<double>(std::max<std::int64_t>(gates.attempted, 1)))
      .num("max_energy_err_eh", gates.max_energy_err);
  for (const auto& [key, secs] : lr.job_s_by_key) {
    notes.num("job_s.p50." + key, median(secs));
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < gates.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + json_string(gates.failures[i]);
  }
  failures += "]";

  JsonObject rec;
  rec.boolean("correct", gates.failed == 0)
      .integer("attempted", gates.attempted)
      .integer("failed", gates.failed)
      .raw("metrics", metrics_json(metrics))
      .obj("counts", lr.counts.front().json())
      .obj("notes", notes)
      .obj("provenance", provenance(a.seed))
      .raw("gate_failures", failures);
  std::printf("%s\n", rec.dump().c_str());
  std::fflush(stdout);
  return gates.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "reference") return run_reference(a);
    const std::string sanitize = PERFBENCH_SANITIZE;
    if (kSanitized || !(sanitize.empty() || sanitize == "OFF")) {
      throw BenchError("refusing to time a sanitizer build (MAKO_SANITIZE=" +
                       sanitize + ")");
    }
    return run_measure(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mako_perfbench: %s\n", e.what());
    return 2;
  }
}
