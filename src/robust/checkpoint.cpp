#include "robust/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>

namespace mako {
namespace {

constexpr char kMagic[8] = {'M', 'A', 'K', 'O', 'C', 'K', 'P', 'T'};
// Version 3: one section per ScfState member, from the field table below.
constexpr std::uint32_t kFormatVersion = 3;

/// Section tag (fourcc, host-endian u32) of a four-character name.
constexpr std::uint32_t fourcc(const char* s) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// The field table: every ScfState member but the fingerprint (which is in
/// the file header), with the tag of the section that carries it.
/// save_checkpoint and load_checkpoint both walk this one list, so a new
/// member is one line here.
template <typename State, typename Visit>
void for_each_field(State& s, Visit&& field) {
  field("ITER", s.next_iteration);
  field("LENE", s.last_energy);
  field("LERR", s.last_error);
  field("CONV", s.converged);
  field("ENER", s.energy);
  field("E1EL", s.e_one_electron);
  field("ECOU", s.e_coulomb);
  field("EXXC", s.e_exact_exchange);
  field("EXCF", s.e_xc);
  field("DENS", s.density);
  field("FOCK", s.fock);
  field("COEF", s.coefficients);
  field("EVAL", s.orbital_energies);
  field("RUNG", s.ladder_rung);
  field("DAMP", s.damping);
  field("DDIA", s.direct_diag);
  field("FREB", s.full_rebuild);
  field("COOL", s.cooldown_until);
  field("RISE", s.rise_streak);
  field("EHST", s.err_hist);
  field("YOCC", s.prev_y_occ);
  field("DPRV", s.d_prev);
  field("JPRV", s.j_prev);
  field("KPRV", s.k_prev);
  field("RLOG", s.recovery_log);
  field("GSTG", s.governor_ladder_stage);
  field("GF64", s.fp64_latched);
  field("GEXF", s.force_exact);
  field("DIIF", s.diis_focks);
  field("DIIE", s.diis_errors);
}

template <typename T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// Growable byte sink.  Scalars (doubles included) are written as their
/// exact bytes, so a round-trip is bitwise; lists carry a u64 count.
struct ByteSink {
  std::vector<unsigned char> bytes;

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    bytes.insert(bytes.end(), b, b + n);
  }
  template <Scalar T>
  void put(T v) {
    raw(&v, sizeof v);
  }
  void put(const MatrixD& m) {
    put<std::uint64_t>(m.rows());
    put<std::uint64_t>(m.cols());
    raw(m.data(), m.size() * sizeof(double));
  }
  void put(const std::string& str) {
    put<std::uint64_t>(str.size());
    raw(str.data(), str.size());
  }
  void put(const RecoveryEvent& e) {
    put(e.iteration);
    put(e.fault);
    put(e.action);
    put(e.detail);
  }
  template <typename T>
  void put(const std::vector<T>& list) {
    put<std::uint64_t>(list.size());
    for (const T& item : list) put(item);
  }
};

[[noreturn]] void throw_corrupt(const std::string& what) {
  throw InputError(FaultKind::kCheckpointCorrupt, "checkpoint: " + what);
}

/// Bounds-checked cursor over a section payload, the inverse of ByteSink.
/// Throws the corrupt-checkpoint InputError on any overrun — truncated
/// sections are corruption, not defaults — and checks every size field
/// against the bytes that remain before it allocates.
struct ByteSource {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;

  [[nodiscard]] std::size_t left() const { return n - off; }
  void need(std::size_t k) const {
    if (k > left()) throw_corrupt("section payload truncated");
  }
  void raw(void* out, std::size_t k) {
    need(k);
    std::memcpy(out, p + off, k);
    off += k;
  }
  template <Scalar T>
  void get(T& v) {
    raw(&v, sizeof v);
  }
  void get(MatrixD& m) {
    std::uint64_t r = 0;
    std::uint64_t c = 0;
    get(r);
    get(c);
    // Overflow-safe r * c * sizeof(double) <= left().
    if (r > left() || c > left() ||
        (r != 0 && c > left() / sizeof(double) / r)) {
      throw_corrupt("matrix dimensions exceed the section payload "
                    "(corrupt size field)");
    }
    m.resize(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    raw(m.data(), m.size() * sizeof(double));
  }
  void get(std::string& str) {
    std::uint64_t len = 0;
    get(len);
    need(static_cast<std::size_t>(len));
    str.assign(reinterpret_cast<const char*>(p + off),
               static_cast<std::size_t>(len));
    off += static_cast<std::size_t>(len);
  }
  void get(RecoveryEvent& e) {
    get(e.iteration);
    get(e.fault);
    get(e.action);
    get(e.detail);
  }
  template <typename T>
  void get(std::vector<T>& list) {
    std::uint64_t count = 0;
    get(count);
    // Items are read (and checked) one at a time and none encodes to zero
    // bytes, so a false count runs out of payload before it allocates.
    list.clear();
    for (std::uint64_t i = 0; i < count; ++i) get(list.emplace_back());
  }
};

std::uint32_t crc_table_entry(std::uint32_t i) noexcept {
  std::uint32_t c = i;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
  }
  return c;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed) noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) t[i] = crc_table_entry(i);
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status save_checkpoint(const std::string& path, const ScfState& state) {
  // --- serialize every section into one buffer ---------------------------
  ByteSink sections;
  std::uint32_t nsections = 0;
  for_each_field(state, [&](const char* tag, const auto& member) {
    ByteSink payload;
    payload.put(member);
    sections.put(fourcc(tag));
    sections.put<std::uint64_t>(payload.bytes.size());
    sections.put(crc32(payload.bytes.data(), payload.bytes.size()));
    sections.raw(payload.bytes.data(), payload.bytes.size());
    ++nsections;
  });
  ByteSink file;
  file.raw(kMagic, sizeof kMagic);
  file.put(kFormatVersion);
  file.put(state.fingerprint);
  file.put(nsections);
  file.raw(sections.bytes.data(), sections.bytes.size());

  // --- atomic write: temp + fsync + rename + fsync(dir) ------------------
  // The staging name is unique per WRITE, not just per process: concurrent
  // batch jobs checkpointing into one directory (or even one path) must
  // never interleave bytes in a shared temp file, so a process-wide
  // sequence number joins the pid in the suffix.
  static std::atomic<std::uint64_t> write_seq{0};
  char msg[512];
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(write_seq.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint: cannot open '%s' for writing", tmp.c_str());
    return Status::fault(FaultKind::kCheckpointError, msg);
  }
  const bool wrote =
      std::fwrite(file.bytes.data(), 1, file.bytes.size(), f) ==
      file.bytes.size();
  const bool flushed = wrote && std::fflush(f) == 0;
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!synced) {
    std::remove(tmp.c_str());
    std::snprintf(msg, sizeof msg,
                  "checkpoint: short write or fsync failure on '%s'",
                  tmp.c_str());
    return Status::fault(FaultKind::kCheckpointError, msg);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::snprintf(msg, sizeof msg,
                  "checkpoint: rename '%s' -> '%s' failed", tmp.c_str(),
                  path.c_str());
    return Status::fault(FaultKind::kCheckpointError, msg);
  }
  // Durability of the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::ok();
}

ScfState load_checkpoint(const std::string& path,
                         std::uint64_t expected_fingerprint) {
  char msg[512];
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::snprintf(msg, sizeof msg,
                  "cannot open '%s' (does the file exist and is it "
                  "readable?)",
                  path.c_str());
    throw_corrupt(msg);
  }
  std::vector<unsigned char> bytes;
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (sz > 0) {
    bytes.resize(static_cast<std::size_t>(sz));
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      bytes.clear();
    }
  }
  std::fclose(f);

  ByteSource src{bytes.data(), bytes.size(), 0};
  char magic[8];
  if (src.left() < sizeof magic) {
    std::snprintf(msg, sizeof msg,
                  "'%s' is too short to be a checkpoint file", path.c_str());
    throw_corrupt(msg);
  }
  src.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    std::snprintf(msg, sizeof msg,
                  "'%s' has a bad magic header (not a mako checkpoint, or "
                  "the header bytes were corrupted)",
                  path.c_str());
    throw_corrupt(msg);
  }
  std::uint32_t version = 0;
  src.get(version);
  if (version != kFormatVersion) {
    std::snprintf(msg, sizeof msg,
                  "'%s' has format version %u; this build reads version %u "
                  "only",
                  path.c_str(), version, kFormatVersion);
    throw_corrupt(msg);
  }
  ScfState state;
  src.get(state.fingerprint);
  if (expected_fingerprint != 0 &&
      state.fingerprint != expected_fingerprint) {
    std::snprintf(
        msg, sizeof msg,
        "checkpoint: '%s' was written for a different molecule/basis/"
        "options (fingerprint %016llx, this run is %016llx); refusing to "
        "restore — rerun with matching inputs or drop --restore",
        path.c_str(),
        static_cast<unsigned long long>(state.fingerprint),
        static_cast<unsigned long long>(expected_fingerprint));
    throw InputError(FaultKind::kCheckpointMismatch, msg);
  }

  // Index every section, validating all CRCs before any is decoded.
  std::uint32_t nsections = 0;
  src.get(nsections);
  std::map<std::uint32_t, ByteSource> sections;
  for (std::uint32_t i = 0; i < nsections; ++i) {
    std::uint32_t tag = 0;
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    src.get(tag);
    src.get(len);
    src.get(crc);
    src.need(static_cast<std::size_t>(len));
    const ByteSource section{src.p + src.off, static_cast<std::size_t>(len),
                             0};
    if (crc32(section.p, section.n) != crc) {
      std::snprintf(msg, sizeof msg,
                    "'%s' section '%.4s' failed its CRC32 check — the file "
                    "is corrupt; delete it and restart from scratch",
                    path.c_str(), reinterpret_cast<const char*>(&tag));
      throw_corrupt(msg);
    }
    sections[tag] = section;
    src.off += section.n;
  }

  for_each_field(state, [&](const char* tag, auto& member) {
    auto it = sections.find(fourcc(tag));
    if (it == sections.end()) {
      std::snprintf(msg, sizeof msg,
                    "'%s' is missing section '%s' (truncated or corrupt)",
                    path.c_str(), tag);
      throw_corrupt(msg);
    }
    ByteSource& section = it->second;
    section.get(member);
    if (section.left() != 0) {
      std::snprintf(msg, sizeof msg,
                    "'%s' section '%s' has %zu unread trailing bytes",
                    path.c_str(), tag, section.left());
      throw_corrupt(msg);
    }
  });
  return state;
}

}  // namespace mako
