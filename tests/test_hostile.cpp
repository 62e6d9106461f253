// Hostile-input tests for the serialized images outside the WAL (the WAL's
// own suite is HostileWal in test_scrub): the simulator checkpoint (v1 and
// v2), the serve checkpoint read by WalTailer::open() (with and without the
// loss ledger), StreamAggregates::deserialize and
// QuantileSketch::deserialize.
//
// A seeded, structure-aware mutator walks each golden image's layout,
// forges one field — preferring count and length fields — with boundary
// values, sometimes truncates or extends the image, and re-seals the CRC
// trailer where the format has one. Every mutant must either round-trip
// exactly (the accepted state re-encodes to the mutant's bytes) or be
// rejected with the decoder's typed error (std::runtime_error, which
// io::IoError is). No mutant may crash the decoder, read out of bounds
// (the sanitizer builds run this suite) or make it request more memory at
// once than any valid image of the format can. TL_CHAOS_SCHEDULES scales
// the mutant count, as in the other chaos suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "analysis/quantile_sketch.hpp"
#include "core/checkpoint_codec.hpp"
#include "io/file.hpp"
#include "serve/stream_aggregates.hpp"
#include "serve/wal_tailer.hpp"
#include "telemetry/record_log.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

// --- allocation watch ----------------------------------------------------------
//
// The largest single request this binary makes while a watch is armed. An
// armed request above the cap is refused with std::bad_alloc instead of
// being attempted: a forged count must show up as a test failure, not as a
// multi-gigabyte allocation.

namespace {

std::atomic<bool> g_watch_armed{false};
std::atomic<std::size_t> g_watch_largest{0};

// Twice the largest buffer any valid image of these formats asks for: a
// QuantileSketch of the maximum k (2^20 doubles, 8 MiB).
constexpr std::size_t kAllocationCap = 16u << 20;

}  // namespace

void* operator new(std::size_t n) {
  if (g_watch_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_watch_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_watch_largest.compare_exchange_weak(seen, n)) {
    }
    if (n > kAllocationCap) throw std::bad_alloc{};
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tl {
namespace {

namespace stdfs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;
using serve::StreamAggregates;
using serve::WalTailer;

/// Arms the allocation watch for its lifetime.
class AllocationWatch {
 public:
  AllocationWatch() {
    g_watch_largest.store(0);
    g_watch_armed.store(true);
  }
  ~AllocationWatch() { stop(); }
  std::size_t stop() {
    g_watch_armed.store(false);
    return g_watch_largest.load();
  }
};

int mutant_count() {
  if (const char* env = std::getenv("TL_CHAOS_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) return 4 * n;
  }
  return 400;
}

// --- layouts -------------------------------------------------------------------

/// One little-endian field of a golden image.
struct Field {
  std::size_t at = 0;
  int width = 0;
  bool count = false;  ///< a count or length the decoder sizes things by
};

/// A golden image and the fields the mutator may forge.
struct Golden {
  Bytes bytes;
  std::vector<Field> fields;
};

std::uint64_t read_le(const Bytes& b, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
  return v;
}

void write_le(Bytes& b, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Walks a golden image front to back in its writer's order, recording
/// each field it passes.
class Layout {
 public:
  Layout(const Bytes& bytes, std::vector<Field>& fields, std::size_t at = 0)
      : bytes_(bytes), fields_(fields), at_(at) {}

  std::uint64_t field(int width, bool count = false) {
    fields_.push_back({at_, width, count});
    const std::uint64_t v = read_le(bytes_, at_, width);
    at_ += static_cast<std::size_t>(width);
    return v;
  }
  std::uint64_t count(int width) { return field(width, true); }
  void skip(std::size_t n) { at_ += n; }
  std::size_t at() const noexcept { return at_; }

 private:
  const Bytes& bytes_;
  std::vector<Field>& fields_;
  std::size_t at_;
};

void sketch_layout(Layout& l) {
  l.skip(4);  // magic
  l.field(1);  // version
  const std::uint64_t k = l.count(4);
  l.count(8);  // items inserted
  for (int i = 0; i < 4; ++i) l.field(8);  // NaN count, min, max, sum
  const std::uint64_t base = l.count(4);
  for (std::uint64_t i = 0; i < base; ++i) l.field(8);
  const std::uint64_t levels = l.count(4);
  for (std::uint64_t level = 0; level < levels; ++level) {
    const std::uint64_t occupied = l.count(1);
    l.field(1);  // parity
    l.field(8);  // certified error
    if (occupied != 0) {
      for (std::uint64_t i = 0; i < k; ++i) l.field(8);
    }
  }
}

void tally_map_layout(Layout& l) {
  const std::uint64_t size = l.count(8);
  for (std::uint64_t i = 0; i < size; ++i) {
    l.field(4);  // key
    l.field(8);
    l.field(8);
  }
}

void day_layout(Layout& l) {
  l.field(4);  // day
  l.field(8);  // handovers
  l.field(8);  // failures
  l.field(1);  // degrade level
  l.field(4);  // sample modulus
  for (int t = 0; t < 4 + 3; ++t) {  // by vendor, by target RAT
    l.field(8);
    l.field(8);
  }
  tally_map_layout(l);  // by district
  sketch_layout(l);
}

void aggregates_layout(Layout& l) {
  l.skip(4);  // magic
  l.field(1);  // version
  l.count(4);  // window_days
  l.count(4);  // sketch_k
  l.field(4);  // sample_modulus
  for (int i = 0; i < 3; ++i) l.field(8);  // records, failures, days sealed
  l.field(4);  // last sealed day
  l.field(1);  // level
  l.field(8);  // events dropped
  const std::uint64_t events = l.count(4);
  for (std::uint64_t e = 0; e < events; ++e) {
    l.field(4);
    l.field(1);
    l.field(1);
    l.field(8);
    l.field(8);
    l.field(4);
    l.field(8);
    l.field(8);
  }
  tally_map_layout(l);  // sectors
  const std::uint64_t ring = l.count(4);
  for (std::uint64_t d = 0; d < ring; ++d) day_layout(l);
  day_layout(l);  // the open day
}

Golden golden_of(Bytes bytes, const std::function<void(Layout&)>& layout,
                 std::size_t trailer = 0) {
  Golden g;
  g.bytes = std::move(bytes);
  Layout l{g.bytes, g.fields};
  layout(l);
  EXPECT_EQ(l.at() + trailer, g.bytes.size()) << "layout walker out of step";
  return g;
}

/// Masked CRC32C of everything before the 4-byte trailer, written into it.
void reseal(Bytes& b) {
  if (b.size() < 4) return;
  write_le(b, b.size() - 4,
           util::mask_crc32c(util::crc32c(b.data(), b.size() - 4)), 4);
}

// --- the mutator ---------------------------------------------------------------

/// Forges one field of `g` into `m` (a copy of g.bytes); returns a label.
std::string mutate(Bytes& m, const Golden& g, bool crc_trailer, util::Rng& rng) {
  std::vector<Field> counts;
  for (const Field& f : g.fields) {
    if (f.count) counts.push_back(f);
  }
  const Field f = !counts.empty() && rng.below(4) != 0
                      ? counts[rng.below(counts.size())]
                      : g.fields[rng.below(g.fields.size())];
  const std::uint64_t old = read_le(m, f.at, f.width);
  const std::uint64_t rest = m.size() - f.at;
  const std::uint64_t values[] = {0,
                                  1,
                                  old - 1,
                                  old + 1,
                                  old * 2,
                                  old + 1000,
                                  rest,
                                  rest / 8 + 1,
                                  1u << 20,
                                  (1u << 20) + 2,
                                  0x7FFFFFFEu,
                                  0xFFFFFFFEu,
                                  0xFFFFFFFFu,
                                  1ull << 32,
                                  ~0ull,
                                  rng()};
  const std::uint64_t value = values[rng.below(std::size(values))];
  write_le(m, f.at, value, f.width);
  std::string what = "field @" + std::to_string(f.at) + " (" +
                     std::to_string(f.width) + " bytes) " + std::to_string(old) +
                     " -> " + std::to_string(read_le(m, f.at, f.width));
  switch (rng.below(16)) {
    case 0:
    case 1:  // cut short as well
      m.resize(rng.below(m.size()));
      what += ", cut to " + std::to_string(m.size());
      break;
    case 2:  // trailing garbage
      for (std::uint64_t i = 1 + rng.below(16); i > 0; --i) {
        m.push_back(static_cast<std::uint8_t>(rng()));
      }
      what += ", extended to " + std::to_string(m.size());
      break;
    default:
      break;
  }
  // A stale CRC only tests the CRC; re-sealing reaches the structure checks.
  if (crc_trailer && rng.below(8) != 0) reseal(m);
  return what;
}

/// Decodes a mutant and returns the re-encoding of the state it accepted,
/// in the mutant's own format, or throws.
using RoundTrip = std::function<Bytes(const Bytes&)>;

void expect_hostile_images_handled(const std::vector<Golden>& goldens,
                                   bool crc_trailer, const RoundTrip& round_trip,
                                   std::uint64_t seed) {
  for (const Golden& g : goldens) {
    ASSERT_EQ(round_trip(g.bytes), g.bytes) << "golden image must round-trip";
  }
  util::Rng rng{seed};
  const int mutants = mutant_count();
  int rejected = 0;
  for (int i = 0; i < mutants; ++i) {
    const Golden& g = goldens[rng.below(goldens.size())];
    Bytes m = g.bytes;
    const std::string what = mutate(m, g, crc_trailer, rng);
    if (m == g.bytes) continue;  // the forgery wrote the same bytes
    Bytes again;
    bool accepted = false;
    std::string failure;
    AllocationWatch watch;
    try {
      again = round_trip(m);
      accepted = true;
    } catch (const std::runtime_error&) {
      ++rejected;  // the typed rejection (io::IoError is a runtime_error)
    } catch (const std::bad_alloc&) {
      failure = "over-allocation";
    } catch (const std::exception& e) {
      failure = std::string{"untyped error: "} + e.what();
    }
    const std::size_t largest = watch.stop();
    EXPECT_EQ(failure, "") << what;
    EXPECT_LE(largest, kAllocationCap) << what;
    if (accepted) EXPECT_EQ(again, m) << "accepted but not exact: " << what;
    if (::testing::Test::HasFailure()) return;
  }
  // The forgeries must bite: most mutants are refused.
  EXPECT_GT(rejected, mutants / 4);
}

// --- golden images ---------------------------------------------------------------

telemetry::HandoverRecord make_record(int day, std::uint32_t i) {
  telemetry::HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(day) * util::kMsPerDay +
                700 * static_cast<util::TimestampMs>(i + 1);
  r.success = (i % 5) != 0;
  r.duration_ms = 20.0f + static_cast<float>((i * 13 + day) % 150);
  r.anon_user_id = 0xCD00000000ULL + i;
  r.source_sector = 300 + i % 11;
  r.target_sector = 400 + i % 7;
  r.target_rat = static_cast<topology::ObservedRat>(i % 3);
  r.district = static_cast<geo::DistrictId>(1 + i % 5);
  r.vendor = static_cast<topology::Vendor>(i % 4);
  return r;
}

StreamAggregates::Options aggregates_options() {
  StreamAggregates::Options o;
  o.window_days = 3;
  o.sketch_k = 16;
  o.sample_modulus = 4;
  return o;
}

/// Five sealed days (so the ring has retired some), one degradation event
/// and an open day in flight.
StreamAggregates golden_aggregates() {
  StreamAggregates aggs{aggregates_options()};
  for (int day = 0; day < 5; ++day) {
    if (day == 3) {
      StreamAggregates::DegradeDecision decision;
      decision.level = serve::DegradeLevel::kSketchOnly;
      decision.used_bytes = 5000;
      decision.budget_bytes = 4096;
      aggs.apply_degrade(decision, day);
    }
    for (std::uint32_t i = 0; i < 60; ++i) aggs.consume(make_record(day, i));
    aggs.on_day_end(day);
  }
  for (std::uint32_t i = 0; i < 7; ++i) aggs.consume(make_record(5, i));
  return aggs;
}

Bytes serialized(const StreamAggregates& aggs) {
  Bytes out;
  aggs.serialize(out);
  return out;
}

Bytes serialized(const analysis::QuantileSketch& sketch) {
  Bytes out;
  sketch.serialize(out);
  return out;
}

// --- the decoders ----------------------------------------------------------------

TEST(HostileDecoders, QuantileSketchRoundTripsOrRejects) {
  std::vector<Golden> goldens;
  for (const int n : {0, 5, 40, 300}) {
    analysis::QuantileSketch sketch{8};
    for (int i = 0; i < n; ++i) sketch.insert(static_cast<double>((i * 37) % 101));
    if (n > 0) sketch.insert(std::numeric_limits<double>::quiet_NaN());
    goldens.push_back(golden_of(serialized(sketch), sketch_layout));
  }
  expect_hostile_images_handled(
      goldens, false,
      [](const Bytes& m) {
        return serialized(analysis::QuantileSketch::deserialize(m));
      },
      0x5CE7C4);
}

TEST(HostileDecoders, StreamAggregatesRoundTripOrReject) {
  std::vector<Golden> goldens;
  goldens.push_back(golden_of(serialized(golden_aggregates()), aggregates_layout));
  goldens.push_back(
      golden_of(serialized(StreamAggregates{aggregates_options()}), aggregates_layout));
  expect_hostile_images_handled(
      goldens, false,
      [](const Bytes& m) { return serialized(StreamAggregates::deserialize(m)); },
      0xA66);
}

/// The simulator checkpoint's layout (v2 carries the quarantine list).
void checkpoint_layout(Layout& l, std::size_t counters) {
  l.skip(4);  // magic
  const std::uint64_t version = l.count(2);
  l.field(4);  // next day
  l.field(8);  // seed
  l.field(8);  // records emitted
  for (std::size_t i = 0; i < counters; ++i) l.field(8);
  if (version == 2) {
    const std::uint64_t n = l.count(4);
    for (std::uint64_t i = 0; i < n; ++i) l.field(4);
  }
}

/// A v2 image with an empty quarantine list, rewritten as the v1 image of
/// the same state (v1 has no list); the inverse of what decoding a v1
/// image and re-encoding it does.
Bytes checkpoint_v1_of(Bytes v2) {
  v2.erase(v2.end() - 8, v2.end() - 4);  // the zero count
  write_le(v2, 4, 1, 2);
  reseal(v2);
  return v2;
}

TEST(HostileDecoders, SimulatorCheckpointRoundTripsOrRejects) {
  core::DayCheckpoint cp;
  cp.next_day = 9;
  cp.seed = 0x0DDBA11;
  cp.records_emitted = 31337;
  cp.core.mme(geo::Region::kCapital).handovers.procedures = 12;
  const Bytes v2_empty = core::encode_checkpoint(cp);
  cp.quarantined_ues = {3, 17, 4096};
  const Bytes v2 = core::encode_checkpoint(cp);
  // Fixed part: everything before the count and the CRC trailer.
  const std::size_t counters = (v2_empty.size() - 8 - (4 + 2 + 4 + 8 + 8)) / 8;
  const auto layout = [counters](Layout& l) { checkpoint_layout(l, counters); };
  const std::vector<Golden> goldens = {
      golden_of(checkpoint_v1_of(v2_empty), layout, 4),
      golden_of(v2_empty, layout, 4),
      golden_of(v2, layout, 4),
  };
  expect_hostile_images_handled(
      goldens, true,
      [](const Bytes& m) {
        const Bytes again = core::encode_checkpoint(core::decode_checkpoint(m));
        return read_le(m, 4, 2) == 1 ? checkpoint_v1_of(again) : again;
      },
      0xC4EC);
}

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_hostile_" + name) {
    stdfs::remove_all(path);
    stdfs::create_directories(path);
  }
  ~TempDir() { stdfs::remove_all(path); }
  std::string path;
};

void serve_checkpoint_layout(Layout& l) {
  l.skip(sizeof WalTailer::kCheckpointMagic);
  const std::uint64_t version = l.field(1);
  l.field(4);  // cursor segment
  l.field(8);  // cursor offset
  l.field(4);  // cursor day
  l.field(8);  // cursor records
  l.count(8);  // payload length
  aggregates_layout(l);
  if (version == 2) {
    const std::uint64_t n = l.count(4);
    for (std::uint64_t i = 0; i < n; ++i) l.field(4);
    l.field(8);  // records lost
    l.field(8);  // days lost
    l.field(4);  // first lost day
    l.field(4);  // last lost day
    l.field(1);  // exact
  }
}

/// The serve checkpoint image of an opened tailer's state, written in the
/// layout (and version) of `like`.
Bytes serve_checkpoint_of(const WalTailer& tailer, const Bytes& like) {
  Bytes out(like.begin(), like.begin() + sizeof WalTailer::kCheckpointMagic + 1);
  const telemetry::LogCursor& c = tailer.cursor();
  util::put_u32(out, c.segment);
  util::put_u64(out, c.offset);
  util::put_u32(out, static_cast<std::uint32_t>(c.day));
  util::put_u64(out, c.records);
  const Bytes payload = serialized(tailer.aggregates());
  util::put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  if (out[sizeof WalTailer::kCheckpointMagic] == 2) {
    util::put_u32(out, static_cast<std::uint32_t>(tailer.quarantined_segments().size()));
    for (const std::uint32_t s : tailer.quarantined_segments()) util::put_u32(out, s);
    util::put_u64(out, tailer.records_lost());
    util::put_u64(out, tailer.days_lost());
    util::put_u32(out, static_cast<std::uint32_t>(tailer.loss_first_day()));
    util::put_u32(out, static_cast<std::uint32_t>(tailer.loss_last_day()));
    out.push_back(tailer.loss_accounting_exact() ? 1 : 0);
  }
  util::put_u32(out, 0);
  reseal(out);
  return out;
}

TEST(HostileDecoders, ServeCheckpointRoundTripsOrRejects) {
  TempDir tmp{"serve"};
  auto& real = io::StdioFileSystem::instance();
  WalTailer::Options opt;
  opt.wal_directory = tmp.path + "/wal";
  opt.checkpoint_path = tmp.path + "/serve.ckpt";
  opt.window_days = aggregates_options().window_days;
  opt.sketch_k = aggregates_options().sketch_k;
  opt.sample_modulus = aggregates_options().sample_modulus;
  {
    telemetry::RecordLog::Options log_opt;
    log_opt.directory = opt.wal_directory;
    telemetry::RecordLog log{real, log_opt};
    log.open();
    for (int day = 0; day < 5; ++day) {
      for (std::uint32_t i = 0; i < 60; ++i) log.append(make_record(day, i));
      log.commit_day(day, {});
    }
    WalTailer tailer{real, opt};
    tailer.open();
    tailer.poll();
    tailer.checkpoint();
  }
  const Bytes v1 = io::read_file(real, opt.checkpoint_path);
  ASSERT_EQ(v1[sizeof WalTailer::kCheckpointMagic], 1);
  // The same state with a certified-loss ledger, as a tailer that had
  // quarantined two segments would write it.
  Bytes v2 = v1;
  v2[sizeof WalTailer::kCheckpointMagic] = 2;
  v2.resize(v2.size() - 4);
  util::put_u32(v2, 2);
  util::put_u32(v2, 1);
  util::put_u32(v2, 2);
  util::put_u64(v2, 120);
  util::put_u64(v2, 2);
  util::put_u32(v2, 1);
  util::put_u32(v2, 2);
  v2.push_back(1);
  util::put_u32(v2, 0);
  reseal(v2);
  const std::vector<Golden> goldens = {
      golden_of(v1, serve_checkpoint_layout, 4),
      golden_of(v2, serve_checkpoint_layout, 4),
  };
  expect_hostile_images_handled(
      goldens, true,
      [&](const Bytes& m) {
        g_watch_armed.store(false);  // the test's own file write
        io::write_file_atomic(real, opt.checkpoint_path, m);
        g_watch_armed.store(true);
        WalTailer tailer{real, opt};
        tailer.open();
        return serve_checkpoint_of(tailer, m);
      },
      0x5E7E);
}

}  // namespace
}  // namespace tl
