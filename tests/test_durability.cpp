// Durability tests: CRC32C vectors, the File/FileSystem seam, seeded I/O
// fault injection, record-log framing and torn-tail recovery, the binary
// checkpoint codec, atomic checkpoint files, validating-sink degradation
// counters, and the kill/recover chaos harness that proves crash consistency
// across >= 100 seeded fault schedules (TL_CHAOS_SCHEDULES elevates the
// count in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint_codec.hpp"
#include "core/simulator.hpp"
#include "io/faulty_file.hpp"
#include "io/file.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/signaling_dataset.hpp"
#include "telemetry/sinks.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl {
namespace {

using core::DayCheckpoint;
using core::Simulator;
using core::StudyConfig;
using telemetry::DurableRecordSink;
using telemetry::HandoverRecord;
using telemetry::LogRecoveryReport;
using telemetry::RecordLog;

namespace fs = std::filesystem;

// --- helpers -----------------------------------------------------------------

/// Fresh directory under the gtest temp root, wiped on construction and
/// destruction so reruns never see stale segments.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "tl_durability_" + name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

StudyConfig chaos_config() {
  StudyConfig cfg = StudyConfig::test_scale();
  cfg.days = 3;
  cfg.population.count = 400;
  return cfg;
}

HandoverRecord make_record(int day, std::uint32_t i) {
  HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(day) * util::kMsPerDay +
                1000 * static_cast<util::TimestampMs>(i + 1);
  r.success = (i % 3) != 0;
  r.duration_ms = 40.0f + static_cast<float>(i);
  r.cause = r.success ? corenet::kCauseNone : static_cast<corenet::CauseId>(2 + i % 5);
  r.anon_user_id = 0x1122334455667788ULL + i;
  r.source_sector = 10 + i;
  r.target_sector = 11 + i;
  r.source_rat = topology::ObservedRat::kG45Nsa;
  r.target_rat = (i % 4 == 0) ? topology::ObservedRat::kG3 : topology::ObservedRat::kG45Nsa;
  r.device_type = devices::DeviceType::kSmartphone;
  r.manufacturer = static_cast<devices::ManufacturerId>(i % 7);
  r.postcode = 900 + i;
  r.district = 42;
  r.area = geo::AreaType::kRural;
  r.region = geo::Region::kWest;
  r.vendor = topology::Vendor::kV2;
  r.srvcc = (i % 4 == 0);
  r.attempt = static_cast<std::uint8_t>(i % 3);
  return r;
}

void expect_record_eq(const HandoverRecord& a, const HandoverRecord& b,
                      std::size_t index) {
  ASSERT_EQ(a.timestamp, b.timestamp) << "record " << index;
  ASSERT_EQ(a.success, b.success) << "record " << index;
  ASSERT_EQ(a.duration_ms, b.duration_ms) << "record " << index;
  ASSERT_EQ(a.cause, b.cause) << "record " << index;
  ASSERT_EQ(a.anon_user_id, b.anon_user_id) << "record " << index;
  ASSERT_EQ(a.source_sector, b.source_sector) << "record " << index;
  ASSERT_EQ(a.target_sector, b.target_sector) << "record " << index;
  ASSERT_EQ(a.source_rat, b.source_rat) << "record " << index;
  ASSERT_EQ(a.target_rat, b.target_rat) << "record " << index;
  ASSERT_EQ(a.device_type, b.device_type) << "record " << index;
  ASSERT_EQ(a.manufacturer, b.manufacturer) << "record " << index;
  ASSERT_EQ(a.postcode, b.postcode) << "record " << index;
  ASSERT_EQ(a.district, b.district) << "record " << index;
  ASSERT_EQ(a.area, b.area) << "record " << index;
  ASSERT_EQ(a.region, b.region) << "record " << index;
  ASSERT_EQ(a.vendor, b.vendor) << "record " << index;
  ASSERT_EQ(a.srvcc, b.srvcc) << "record " << index;
  ASSERT_EQ(a.attempt, b.attempt) << "record " << index;
}

void expect_identical(const std::vector<HandoverRecord>& a,
                      const std::vector<HandoverRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_record_eq(a[i], b[i], i);
}

/// All log bytes, segments concatenated in order — the chaos harness's
/// byte-identity oracle.
std::string log_bytes(const std::string& dir) {
  std::string all;
  auto& real = io::StdioFileSystem::instance();
  for (const auto& name : real.list(dir, "wal-")) {
    std::ifstream is{dir + "/" + name, std::ios::binary};
    std::ostringstream os;
    os << is.rdbuf();
    all += "[" + name + "]";  // segment boundaries must match too
    all += os.str();
  }
  return all;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// --- CRC32C ------------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 / iSCSI test vectors (Castagnoli polynomial).
  EXPECT_EQ(util::crc32c("123456789", 9), 0xE3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(util::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(util::crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(util::crc32c("", 0), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = util::crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    util::Crc32c inc;
    inc.update(data.data(), split);
    inc.update(data.data() + split, data.size() - split);
    ASSERT_EQ(inc.value(), whole) << "split at " << split;
  }
}

TEST(Crc32c, MaskRoundTripAndDisplacement) {
  util::Rng rng{123};
  for (int i = 0; i < 1000; ++i) {
    const auto crc = static_cast<std::uint32_t>(rng());
    const std::uint32_t masked = util::mask_crc32c(crc);
    EXPECT_EQ(util::unmask_crc32c(masked), crc);
    // Masking exists so a CRC stored in CRC'd data never matches itself.
    EXPECT_NE(masked, crc);
  }
}

// --- the real filesystem -----------------------------------------------------

TEST(StdioFileSystem, WriteSyncReadRoundTrip) {
  TempDir tmp{"stdio"};
  auto& fsys = io::StdioFileSystem::instance();
  fsys.create_directories(tmp.path);
  const std::string path = tmp.path + "/file.bin";

  {
    auto f = fsys.open(path, io::OpenMode::kTruncate);
    ASSERT_EQ(f->write("hello ", 6), 6u);
    f->sync();
    ASSERT_EQ(f->write("world", 5), 5u);
    EXPECT_EQ(f->size(), 11u);
    f->close();
  }
  {
    auto f = fsys.open(path, io::OpenMode::kAppend);
    ASSERT_EQ(f->write("!", 1), 1u);
    f->close();
  }
  EXPECT_TRUE(fsys.exists(path));
  EXPECT_EQ(fsys.file_size(path), 12u);

  auto f = fsys.open(path, io::OpenMode::kRead);
  char buf[32] = {};
  EXPECT_EQ(f->read(buf, sizeof buf), 12u);
  EXPECT_EQ(std::string(buf, 12), "hello world!");
  f->seek(6);
  EXPECT_EQ(f->read(buf, 5), 5u);
  EXPECT_EQ(std::string(buf, 5), "world");

  fsys.truncate(path, 5);
  EXPECT_EQ(fsys.file_size(path), 5u);
  fsys.rename(path, tmp.path + "/renamed.bin");
  EXPECT_FALSE(fsys.exists(path));
  const auto names = fsys.list(tmp.path, "");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "renamed.bin");
  fsys.remove(tmp.path + "/renamed.bin");
  EXPECT_FALSE(fsys.exists(tmp.path + "/renamed.bin"));

  EXPECT_THROW(fsys.open(tmp.path + "/missing.bin", io::OpenMode::kRead),
               io::IoError);
}

// --- fault injection ---------------------------------------------------------

TEST(FaultyFileSystem, ShortWriteAndIoErrorAndSyncFailure) {
  TempDir tmp{"faulty_transients"};
  auto& real = io::StdioFileSystem::instance();
  real.create_directories(tmp.path);

  io::IoFaultPlan plan;
  plan.add(0, io::IoFaultKind::kShortWrite);   // op 0: first write torn
  plan.add(1, io::IoFaultKind::kIoError);      // op 1: second write -> EIO
  plan.add(2, io::IoFaultKind::kSyncFailure);  // op 2: sync -> EIO
  io::FaultyFileSystem ffs{real, plan, /*seed=*/7};

  const std::string path = tmp.path + "/t.bin";
  auto f = ffs.open(path, io::OpenMode::kTruncate);
  const std::string payload = "0123456789";
  const std::size_t n = f->write(payload.data(), payload.size());
  EXPECT_LT(n, payload.size());  // short write persisted only a prefix
  EXPECT_THROW(f->write(payload.data(), payload.size()), io::IoError);
  EXPECT_THROW(f->sync(), io::IoError);
  // After the scheduled faults are exhausted the file works normally.
  EXPECT_EQ(f->write(payload.data(), payload.size()), payload.size());
  f->sync();
  f->close();
  EXPECT_EQ(ffs.ops(), 5u);
  EXPECT_FALSE(ffs.dead());
  ASSERT_EQ(ffs.fired().size(), 3u);
  EXPECT_EQ(real.file_size(path), n + payload.size());
}

TEST(FaultyFileSystem, CrashKillsFilesystemAndRollsBackUnsyncedBytes) {
  TempDir tmp{"faulty_crash"};
  auto& real = io::StdioFileSystem::instance();
  real.create_directories(tmp.path);

  io::IoFaultPlan plan;
  plan.add(2, io::IoFaultKind::kCrash);  // ops: write, sync, then crash
  io::FaultyFileSystem ffs{real, plan, /*seed=*/99};

  const std::string path = tmp.path + "/c.bin";
  auto f = ffs.open(path, io::OpenMode::kTruncate);
  ASSERT_EQ(f->write("durable!", 8), 8u);
  f->sync();  // these 8 bytes are now behind the durability barrier
  EXPECT_THROW(f->write("doomed bytes", 12), io::SimulatedCrash);
  EXPECT_TRUE(ffs.dead());

  // Everything after the filesystem died throws SimulatedCrash, not IoError.
  EXPECT_THROW(f->write("x", 1), io::SimulatedCrash);
  EXPECT_THROW(f->sync(), io::SimulatedCrash);
  EXPECT_THROW(ffs.open(path, io::OpenMode::kRead), io::SimulatedCrash);
  EXPECT_THROW(ffs.remove(path), io::SimulatedCrash);

  // The synced prefix survived; un-synced bytes were fair game.
  const std::uint64_t size = real.file_size(path);
  EXPECT_GE(size, 8u);
  EXPECT_LE(size, 8u + 12u);
  std::ifstream is{path, std::ios::binary};
  std::string head(8, '\0');
  is.read(head.data(), 8);
  EXPECT_EQ(head, "durable!");
}

TEST(FaultyFileSystem, ChaosPlanIsSeedDeterministic) {
  const auto a = io::IoFaultPlan::chaos(42, 500, 0.05);
  const auto b = io::IoFaultPlan::chaos(42, 500, 0.05);
  const auto c = io::IoFaultPlan::chaos(43, 500, 0.05);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].op_index, b.faults()[i].op_index);
    EXPECT_EQ(a.faults()[i].kind, b.faults()[i].kind);
  }
  // Exactly one crash, and it terminates the plan.
  int crashes = 0;
  for (const auto& fault : a.faults()) {
    if (fault.kind == io::IoFaultKind::kCrash) ++crashes;
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(a.faults().back().kind, io::IoFaultKind::kCrash);
  EXPECT_LT(a.faults().back().op_index, 500u);
  // Different seeds should not all land on the same schedule.
  EXPECT_TRUE(a.faults().size() != c.faults().size() ||
              a.faults().back().op_index != c.faults().back().op_index);
}

// --- record codec ------------------------------------------------------------

TEST(RecordCodec, RoundTripPreservesEveryField) {
  for (std::uint32_t i = 0; i < 32; ++i) {
    const HandoverRecord r = make_record(i % 5, i);
    std::vector<std::uint8_t> bytes;
    RecordLog::encode_record(r, bytes);
    ASSERT_EQ(bytes.size(), RecordLog::kRecordEncodedSize);
    const HandoverRecord back = RecordLog::decode_record(bytes);
    expect_record_eq(r, back, i);
  }
}

TEST(RecordCodec, RejectsWrongSize) {
  std::vector<std::uint8_t> bytes;
  RecordLog::encode_record(make_record(0, 0), bytes);
  bytes.pop_back();
  EXPECT_THROW(RecordLog::decode_record(bytes), std::runtime_error);
}

// --- record log --------------------------------------------------------------

RecordLog::Options small_log(const std::string& dir) {
  RecordLog::Options opt;
  opt.directory = dir;
  opt.max_segment_bytes = 2048;  // force frequent rolls
  opt.write_chunk_bytes = 64;
  return opt;
}

TEST(RecordLogTest, FreshLogThenCommitRoundTrip) {
  TempDir tmp{"log_fresh"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};

  const LogRecoveryReport fresh = log.open();
  EXPECT_FALSE(fresh.log_existed);
  EXPECT_EQ(fresh.last_committed_day, -1);
  EXPECT_EQ(fresh.committed_records, 0u);
  EXPECT_EQ(fresh.dropped_bytes, 0u);
  EXPECT_TRUE(fresh.app_state.empty());

  std::vector<HandoverRecord> written;
  for (int day = 0; day < 3; ++day) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      written.push_back(make_record(day, i));
      log.append(written.back());
    }
    EXPECT_EQ(log.buffered_records(), 20u);
    const std::vector<std::uint8_t> state = {std::uint8_t(0xAB), std::uint8_t(day)};
    log.commit_day(day, state);
    EXPECT_EQ(log.buffered_records(), 0u);
    EXPECT_EQ(log.last_committed_day(), day);
  }
  EXPECT_EQ(log.committed_records(), written.size());

  // Small segments -> the stream must span multiple files.
  EXPECT_GT(real.list(tmp.path, "wal-").size(), 1u);

  expect_identical(RecordLog::read_all(real, tmp.path), written);

  // Re-open finds a clean log: nothing dropped, marker state preserved.
  RecordLog again{real, small_log(tmp.path)};
  const LogRecoveryReport rep = again.open();
  EXPECT_TRUE(rep.log_existed);
  EXPECT_EQ(rep.last_committed_day, 2);
  EXPECT_EQ(rep.committed_records, written.size());
  EXPECT_EQ(rep.dropped_bytes, 0u);
  EXPECT_EQ(rep.dropped_records, 0u);
  ASSERT_EQ(rep.app_state.size(), 2u);
  EXPECT_EQ(rep.app_state[0], 0xAB);
  EXPECT_EQ(rep.app_state[1], 2);
}

TEST(RecordLogTest, ReplayDeliversDayBoundaries) {
  TempDir tmp{"log_replay"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};
  log.open();
  for (int day = 0; day < 2; ++day) {
    for (std::uint32_t i = 0; i < 5; ++i) log.append(make_record(day, i));
    log.commit_day(day, {});
  }

  struct CountingSink final : telemetry::RecordSink {
    std::vector<HandoverRecord> records;
    std::vector<int> day_ends;
    void consume(const HandoverRecord& r) override { records.push_back(r); }
    void on_day_end(int day) override { day_ends.push_back(day); }
  } sink;
  EXPECT_EQ(RecordLog::replay(real, tmp.path, sink), 10u);
  EXPECT_EQ(sink.records.size(), 10u);
  ASSERT_EQ(sink.day_ends.size(), 2u);
  EXPECT_EQ(sink.day_ends[0], 0);
  EXPECT_EQ(sink.day_ends[1], 1);

  // Replaying through a ValidatingSink (an existing analysis entry point):
  // recovered records are clean and day watermarks advance.
  telemetry::SignalingDataset dataset;
  telemetry::ValidatingSink validating{dataset};
  EXPECT_EQ(RecordLog::replay(real, tmp.path, validating), 10u);
  EXPECT_EQ(validating.forwarded(), 10u);
  EXPECT_EQ(validating.quarantined(), 0u);
  EXPECT_EQ(validating.completed_day(), 1);
}

TEST(RecordLogTest, MisuseThrows) {
  TempDir tmp{"log_misuse"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};
  EXPECT_THROW(log.append(make_record(0, 0)), std::logic_error);
  EXPECT_THROW(log.commit_day(0, {}), std::logic_error);
  log.open();
  log.append(make_record(0, 0));
  log.commit_day(0, {});
  EXPECT_THROW(log.commit_day(0, {}), std::logic_error);  // not increasing
}

TEST(RecordLogTest, TornGarbageTailIsTruncatedAndReported) {
  TempDir tmp{"log_torn_garbage"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<HandoverRecord> committed;
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    for (int day = 0; day < 2; ++day) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        committed.push_back(make_record(day, i));
        log.append(committed.back());
      }
      log.commit_day(day, {});
    }
  }

  // A torn write: garbage lands after the last commit marker.
  const auto segments = real.list(tmp.path, "wal-");
  ASSERT_FALSE(segments.empty());
  const std::string tail = tmp.path + "/" + segments.back();
  const std::uint64_t clean_size = real.file_size(tail);
  {
    std::ofstream os{tail, std::ios::binary | std::ios::app};
    os.write("\x13\x37garbage-torn-tail", 19);
  }

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 1);
  EXPECT_EQ(rep.committed_records, committed.size());
  EXPECT_EQ(rep.dropped_bytes, 19u);
  EXPECT_EQ(rep.dropped_records, 0u);
  EXPECT_EQ(real.file_size(tail), clean_size);  // truncated back exactly
  expect_identical(RecordLog::read_all(real, tmp.path), committed);

  // The re-armed log keeps committing where it left off.
  log.append(make_record(2, 0));
  log.commit_day(2, {});
  EXPECT_EQ(RecordLog::read_all(real, tmp.path).size(), committed.size() + 1);
}

TEST(RecordLogTest, UncommittedRecordFramesAreCountedAsDropped) {
  TempDir tmp{"log_torn_frames"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<HandoverRecord> committed;
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    for (std::uint32_t i = 0; i < 3; ++i) {
      committed.push_back(make_record(0, i));
      log.append(committed.back());
    }
    log.commit_day(0, {});
  }

  // Hand-craft three VALID record frames after the marker — a commit that
  // died between writing its records and its day marker.
  const auto segments = real.list(tmp.path, "wal-");
  const std::string tail = tmp.path + "/" + segments.back();
  {
    std::vector<std::uint8_t> torn;
    for (std::uint32_t i = 0; i < 3; ++i) {
      std::vector<std::uint8_t> payload;
      RecordLog::encode_record(make_record(1, i), payload);
      const auto put32 = [&torn](std::uint32_t x) {
        torn.push_back(static_cast<std::uint8_t>(x));
        torn.push_back(static_cast<std::uint8_t>(x >> 8));
        torn.push_back(static_cast<std::uint8_t>(x >> 16));
        torn.push_back(static_cast<std::uint8_t>(x >> 24));
      };
      put32(static_cast<std::uint32_t>(payload.size()));
      std::uint32_t crc = util::crc32c("\x01", 1);  // kRecordFrame type byte
      crc = util::crc32c(payload.data(), payload.size(), crc);
      put32(util::mask_crc32c(crc));
      torn.push_back(RecordLog::kRecordFrame);
      torn.insert(torn.end(), payload.begin(), payload.end());
    }
    std::ofstream os{tail, std::ios::binary | std::ios::app};
    os.write(reinterpret_cast<const char*>(torn.data()),
             static_cast<std::streamsize>(torn.size()));
  }

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 0);
  EXPECT_EQ(rep.committed_records, 3u);
  EXPECT_EQ(rep.dropped_records, 3u);  // complete but uncommitted frames
  EXPECT_EQ(rep.dropped_bytes,
            3u * (RecordLog::kFrameHeaderSize + RecordLog::kRecordEncodedSize));
  expect_identical(RecordLog::read_all(real, tmp.path), committed);
}

TEST(RecordLogTest, BitFlipInvalidatesEverythingFromTheFlippedFrame) {
  TempDir tmp{"log_bitflip"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;  // default (large) segments: one file
  {
    RecordLog log{real, opt};
    log.open();
    for (std::uint32_t i = 0; i < 8; ++i) log.append(make_record(0, i));
    log.commit_day(0, {});
    for (std::uint32_t i = 0; i < 8; ++i) log.append(make_record(1, i));
    log.commit_day(1, {});
  }
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  auto bytes = slurp(seg0);

  // Flip one bit inside the first record frame of day 1 (just past day 0's
  // marker). Recovery must fall back to the day-0 marker.
  const std::size_t day0_bytes =
      RecordLog::kSegmentHeaderSize +
      8 * (RecordLog::kFrameHeaderSize + RecordLog::kRecordEncodedSize) +
      RecordLog::kFrameHeaderSize + 24;  // marker payload without app state
  ASSERT_LT(day0_bytes + 12, bytes.size());
  bytes[day0_bytes + 12] ^= 0x40;
  spit(seg0, bytes);

  RecordLog log{real, opt};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 0);
  EXPECT_EQ(rep.committed_records, 8u);
  EXPECT_GT(rep.dropped_bytes, 0u);
  EXPECT_EQ(RecordLog::read_all(real, tmp.path).size(), 8u);
}

TEST(RecordLogTest, FullyCorruptFirstSegmentRecoversToEmptyLog) {
  TempDir tmp{"log_corrupt_head"};
  auto& real = io::StdioFileSystem::instance();
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    log.append(make_record(0, 0));
    log.commit_day(0, {});
  }
  // Destroy the segment header itself: no committed prefix survives.
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  auto bytes = slurp(seg0);
  bytes[0] ^= 0xFF;
  spit(seg0, bytes);

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_TRUE(rep.log_existed);
  EXPECT_EQ(rep.last_committed_day, -1);
  EXPECT_EQ(rep.committed_records, 0u);
  EXPECT_GT(rep.dropped_bytes, 0u);
  EXPECT_TRUE(RecordLog::read_all(real, tmp.path).empty());
  // And the log is usable again from scratch.
  log.append(make_record(0, 0));
  log.commit_day(0, {});
  EXPECT_EQ(RecordLog::read_all(real, tmp.path).size(), 1u);
}

/// `n` valid record frames of `day`, as a writer would have framed them.
std::vector<std::uint8_t> record_frames(int day, std::uint32_t n) {
  std::vector<std::uint8_t> out;
  const auto put32 = [&out](std::uint32_t x) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> payload;
    RecordLog::encode_record(make_record(day, i), payload);
    put32(static_cast<std::uint32_t>(payload.size()));
    std::uint32_t crc = util::crc32c(&RecordLog::kRecordFrame, 1);
    crc = util::crc32c(payload.data(), payload.size(), crc);
    put32(util::mask_crc32c(crc));
    out.push_back(RecordLog::kRecordFrame);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

void append_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os{path, std::ios::binary | std::ios::app};
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

struct DaySink final : telemetry::RecordSink {
  std::vector<HandoverRecord> records;
  std::vector<int> days;
  void consume(const HandoverRecord& r) override { records.push_back(r); }
  void on_day_end(int day) override { days.push_back(day); }
};

/// Commits `days` days of `per_day` records each and returns them.
std::vector<HandoverRecord> commit_days(RecordLog& log, int days,
                                        std::uint32_t per_day) {
  std::vector<HandoverRecord> written;
  for (int day = 0; day < days; ++day) {
    for (std::uint32_t i = 0; i < per_day; ++i) {
      written.push_back(make_record(day, i));
      log.append(written.back());
    }
    log.commit_day(day, {});
  }
  return written;
}

// Recovery, replay and follow run one chain walk. The three cases below are
// where the walk recovery and replay used to run on their own disagreed
// with follow's; each now reads the same through every reader.

TEST(RecordLogTest, NonMonotonicDayMarkerIsRefusedByEveryReader) {
  TempDir tmp{"log_day_backwards"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;  // default (large) segments: one file
  {
    RecordLog log{real, opt};
    log.open();
    commit_days(log, 3, 4);
  }
  // Forge day 2's marker to claim day 0 again, CRC re-sealed: a CRC-valid
  // chain no writer produces (commit_day refuses a day twice).
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  auto bytes = slurp(seg0);
  constexpr std::size_t kDayBytes =
      4 * (RecordLog::kFrameHeaderSize + RecordLog::kRecordEncodedSize) +
      RecordLog::kFrameHeaderSize + 24;
  const std::size_t marker = RecordLog::kSegmentHeaderSize + 3 * kDayBytes -
                             (RecordLog::kFrameHeaderSize + 24);
  ASSERT_EQ(bytes.size(), RecordLog::kSegmentHeaderSize + 3 * kDayBytes);
  ASSERT_EQ(bytes[marker + 8], RecordLog::kDayMarkerFrame);
  std::fill_n(bytes.begin() + marker + RecordLog::kFrameHeaderSize, 4, 0);
  std::uint32_t crc = util::crc32c(&bytes[marker + 8], 1 + 24);
  crc = util::mask_crc32c(crc);
  for (int i = 0; i < 4; ++i) bytes[marker + 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  spit(seg0, bytes);

  // Recovery refuses to guess which day the writer should resume after,
  // and leaves the bytes for inspection.
  RecordLog log{real, opt};
  EXPECT_THROW(log.open(), io::IoError);
  EXPECT_EQ(slurp(seg0), bytes);
  DaySink replayed;
  EXPECT_THROW(RecordLog::replay(real, tmp.path, replayed), io::IoError);
  EXPECT_EQ(replayed.days, (std::vector<int>{0, 1}));
  DaySink followed;
  telemetry::LogCursor cursor;
  EXPECT_THROW(RecordLog::follow(real, tmp.path, cursor, followed), io::IoError);
  EXPECT_EQ(followed.days, (std::vector<int>{0, 1}));
  EXPECT_EQ(cursor.day, 1);
}

TEST(RecordLogTest, SealedSegmentEndingInUnmarkedRecordsIsTornForEveryReader) {
  TempDir tmp{"log_sealed_unmarked"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<HandoverRecord> written;
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    written = commit_days(log, 3, 20);  // wal-0: days 0-1 (sealed), wal-1: day 2
  }
  ASSERT_EQ(real.list(tmp.path, "wal-").size(), 2u);
  const std::string seg0 = tmp.path + "/" + RecordLog::segment_name(0);
  const std::string seg1 = tmp.path + "/" + RecordLog::segment_name(1);
  const std::uint64_t seg0_size = real.file_size(seg0);
  const std::uint64_t seg1_size = real.file_size(seg1);
  // Days never span segments, so valid record frames after a sealed
  // segment's last marker can only be damage, never a commit in flight.
  const std::vector<std::uint8_t> unmarked = record_frames(9, 3);
  append_bytes(seg0, unmarked);
  const std::vector<HandoverRecord> through_day1(written.begin(), written.begin() + 40);

  DaySink followed;
  telemetry::LogCursor cursor;
  EXPECT_EQ(RecordLog::follow(real, tmp.path, cursor, followed).state,
            telemetry::TailState::kTorn);
  EXPECT_EQ(followed.days, (std::vector<int>{0, 1}));
  DaySink replayed;
  EXPECT_EQ(RecordLog::replay(real, tmp.path, replayed), 40u);
  EXPECT_EQ(replayed.days, (std::vector<int>{0, 1}));
  expect_identical(replayed.records, through_day1);

  // Recovery truncates back to the committed prefix before the damage, the
  // same truncate-and-regenerate it applies to any other sealed-segment
  // damage, then redoes the roll the sealed segment had already made.
  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 1);
  EXPECT_EQ(rep.committed_records, 40u);
  EXPECT_EQ(rep.dropped_records, 3u);
  EXPECT_EQ(rep.dropped_bytes, unmarked.size() + seg1_size);
  EXPECT_EQ(real.file_size(seg0), seg0_size);
  EXPECT_EQ(real.file_size(seg1), RecordLog::kSegmentHeaderSize);
  expect_identical(RecordLog::read_all(real, tmp.path), through_day1);
}

TEST(RecordLogTest, StrayFilesInTheListingDoNotEndTheChain) {
  TempDir tmp{"log_stray"};
  auto& real = io::StdioFileSystem::instance();
  std::vector<HandoverRecord> written;
  {
    RecordLog log{real, small_log(tmp.path)};
    log.open();
    written = commit_days(log, 5, 20);  // wal-0: days 0-1, wal-1: 2-3, wal-2: 4
  }
  ASSERT_EQ(real.list(tmp.path, "wal-").size(), 3u);
  // What an interrupted copy into the primary directory leaves behind: a
  // temp file that lists between wal-00000 and wal-00001. And a backup that
  // lists before the whole chain. The chain starts at the first segment
  // name and is walked by segment index, so neither is a link in it.
  const std::string stray = tmp.path + "/" + RecordLog::segment_name(0) + ".tmp";
  spit(stray, slurp(tmp.path + "/" + RecordLog::segment_name(0)));
  spit(tmp.path + "/wal-0.bak", {0x42});
  const std::string before = log_bytes(tmp.path);

  DaySink followed;
  telemetry::LogCursor cursor;
  EXPECT_EQ(RecordLog::follow(real, tmp.path, cursor, followed).state,
            telemetry::TailState::kClean);
  EXPECT_EQ(followed.days.size(), 5u);
  expect_identical(RecordLog::read_all(real, tmp.path), written);

  RecordLog log{real, small_log(tmp.path)};
  const LogRecoveryReport rep = log.open();
  EXPECT_EQ(rep.last_committed_day, 4);
  EXPECT_EQ(rep.committed_records, written.size());
  EXPECT_EQ(rep.dropped_bytes, 0u);
  EXPECT_EQ(rep.dropped_records, 0u);
  EXPECT_EQ(log_bytes(tmp.path), before);  // nothing truncated or deleted
}

// --- binary checkpoint codec -------------------------------------------------

DayCheckpoint sample_checkpoint() {
  DayCheckpoint cp;
  cp.next_day = 17;
  cp.seed = 0xDEADBEEFCAFEF00DULL;
  cp.records_emitted = 123'456'789;
  std::uint64_t n = 1;
  for (const auto region : geo::kAllRegions) {
    auto& mme = cp.core.mme(region);
    mme.handovers.procedures = n++;
    mme.handovers.successes = n++;
    mme.handovers.failures = n++;
    mme.path_switches.procedures = n++;
    mme.path_switches.successes = n++;
    mme.path_switches.failures = n++;
    auto& sgsn = cp.core.sgsn(region);
    sgsn.relocations.procedures = n++;
    sgsn.relocations.successes = n++;
    sgsn.relocations.failures = n++;
    auto& msc = cp.core.msc(region);
    msc.srvcc.procedures = n++;
    msc.srvcc.successes = n++;
    msc.srvcc.failures = n++;
    cp.core.sgw(region).bearer_modifications = n++;
  }
  return cp;
}

TEST(CheckpointCodec, RoundTrip) {
  const DayCheckpoint cp = sample_checkpoint();
  const auto bytes = core::encode_checkpoint(cp);
  const DayCheckpoint back = core::decode_checkpoint(bytes);
  EXPECT_EQ(back.next_day, cp.next_day);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.records_emitted, cp.records_emitted);
  for (const auto region : geo::kAllRegions) {
    EXPECT_EQ(back.core.mme(region).handovers.procedures,
              cp.core.mme(region).handovers.procedures);
    EXPECT_EQ(back.core.mme(region).path_switches.failures,
              cp.core.mme(region).path_switches.failures);
    EXPECT_EQ(back.core.sgsn(region).relocations.successes,
              cp.core.sgsn(region).relocations.successes);
    EXPECT_EQ(back.core.msc(region).srvcc.procedures,
              cp.core.msc(region).srvcc.procedures);
    EXPECT_EQ(back.core.sgw(region).bearer_modifications,
              cp.core.sgw(region).bearer_modifications);
  }
}

TEST(CheckpointCodec, RejectsTruncationAndBitFlips) {
  const auto bytes = core::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(core::decode_checkpoint(cut), std::runtime_error)
        << "truncated to " << len;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_THROW(core::decode_checkpoint(flipped), std::runtime_error)
        << "bit flip at " << i;
  }
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_THROW(core::decode_checkpoint(extended), std::runtime_error);
}

// --- checkpoint file: atomic write, hardened load ----------------------------

TEST(CheckpointFile, SaveIsAtomicAndLeavesNoTempResidue) {
  TempDir tmp{"ckpt_atomic"};
  fs::create_directories(tmp.path);
  const std::string path = tmp.path + "/study.checkpoint";

  StudyConfig cfg = chaos_config();
  Simulator sim{cfg};
  sim.run_day(0);
  sim.save_checkpoint(path);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite through the same path: still atomic, still loadable.
  sim.run_day(1);
  sim.save_checkpoint(path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  Simulator resumed{cfg};
  ASSERT_TRUE(resumed.load_checkpoint(path));
  EXPECT_EQ(resumed.next_day(), 2);
  EXPECT_EQ(resumed.records_emitted(), sim.records_emitted());
}

TEST(CheckpointFile, LoadRejectsTruncationBitFlipsAndTrailingGarbage) {
  TempDir tmp{"ckpt_hardened"};
  fs::create_directories(tmp.path);
  const std::string path = tmp.path + "/study.checkpoint";

  StudyConfig cfg = chaos_config();
  Simulator sim{cfg};
  sim.run_day(0);
  sim.save_checkpoint(path);
  const auto good = slurp(path);
  ASSERT_GT(good.size(), 16u);

  // One long-lived victim: every failed load must leave it untouched (the
  // no-partial-restore guarantee), which the next iteration then depends on.
  Simulator victim{cfg};
  const auto expect_rejected = [&](const std::vector<std::uint8_t>& bad,
                                   const std::string& what) {
    spit(path, bad);
    EXPECT_THROW(victim.load_checkpoint(path), std::runtime_error) << what;
    EXPECT_EQ(victim.next_day(), 0) << what;
    EXPECT_EQ(victim.records_emitted(), 0u) << what;
  };

  // Every proper prefix must be rejected (torn write at any byte offset).
  for (std::size_t len = 0; len < good.size(); len += 7) {
    expect_rejected({good.begin(), good.begin() + len},
                    "truncated to " + std::to_string(len));
  }
  // Any single bit flip must be rejected (CRC trailer).
  util::Rng rng{2024};
  for (int i = 0; i < 64; ++i) {
    auto flipped = good;
    const std::size_t pos = rng.below(good.size());
    flipped[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    expect_rejected(flipped, "bit flip at " + std::to_string(pos));
  }
  // Bytes appended after a valid checkpoint must be rejected too.
  auto extended = good;
  const std::string junk = "trailing junk";
  extended.insert(extended.end(), junk.begin(), junk.end());
  expect_rejected(extended, "trailing garbage");

  // The pristine file still loads (the reject sweep never corrupted state).
  spit(path, good);
  ASSERT_TRUE(victim.load_checkpoint(path));
  EXPECT_EQ(victim.next_day(), 1);
}

TEST(CheckpointFile, LoadRejectsAQuarantineOutsideThePopulationWithoutPartlyRestoring) {
  TempDir tmp{"ckpt_quarantine_range"};
  fs::create_directories(tmp.path);
  const std::string path = tmp.path + "/study.checkpoint";

  // A valid file from a larger study with the same seed: only its quarantine
  // set (UE 1500) falls outside the loading simulator's population.
  StudyConfig big = chaos_config();
  big.population.count = 2'000;
  Simulator source{big};
  source.run_day(0);
  source.set_quarantined_ues({1'500});
  source.save_checkpoint(path);

  StudyConfig small = chaos_config();
  small.population.count = 1'000;
  Simulator victim{small};
  victim.set_quarantined_ues({7});
  EXPECT_THROW(victim.load_checkpoint(path), std::runtime_error);
  EXPECT_EQ(victim.next_day(), 0);
  EXPECT_EQ(victim.records_emitted(), 0u);
  EXPECT_EQ(victim.quarantined_ues(), (std::vector<devices::UeId>{7}));
}

// --- validating sink ---------------------------------------------------------

TEST(ValidatingSinkTest, CountsEveryDefectClass) {
  telemetry::SignalingDataset inner;
  telemetry::ValidationLimits limits;
  limits.sector_count = 100;
  telemetry::ValidatingSink sink{inner, limits};

  sink.consume(make_record(0, 0));  // clean
  HandoverRecord r = make_record(0, 1);
  r.source_sector = topology::kInvalidSector;
  sink.consume(r);  // kBadSectorId (sentinel)
  r = make_record(0, 2);
  r.target_sector = 100;  // == sector_count -> out of range
  sink.consume(r);        // kBadSectorId (range)
  r = make_record(0, 3);
  r.target_sector = r.source_sector;
  sink.consume(r);  // kSelfHandover
  r = make_record(0, 4);
  r.duration_ms = -1.0f;
  sink.consume(r);  // kBadDuration
  r = make_record(0, 5);
  r.duration_ms = limits.max_duration_ms * 2;
  sink.consume(r);  // kBadDuration
  r = make_record(0, 6);
  r.timestamp = -5;
  sink.consume(r);  // kBadTimestamp
  r = make_record(0, 7);
  r.success = true;
  r.cause = 3;
  sink.consume(r);  // kCauseMismatch
  r = make_record(0, 8);
  r.success = false;
  r.cause = corenet::kCauseNone;
  sink.consume(r);  // kCauseMismatch

  sink.on_day_end(0);
  sink.consume(make_record(0, 9));  // kTimeRegression: day 0 already closed
  sink.consume(make_record(1, 0));  // clean, next day

  EXPECT_EQ(sink.forwarded(), 2u);
  EXPECT_EQ(sink.quarantined(), 9u);
  EXPECT_EQ(sink.count(telemetry::RecordDefect::kBadSectorId), 2u);
  EXPECT_EQ(sink.count(telemetry::RecordDefect::kSelfHandover), 1u);
  EXPECT_EQ(sink.count(telemetry::RecordDefect::kBadDuration), 2u);
  EXPECT_EQ(sink.count(telemetry::RecordDefect::kBadTimestamp), 1u);
  EXPECT_EQ(sink.count(telemetry::RecordDefect::kTimeRegression), 1u);
  EXPECT_EQ(sink.count(telemetry::RecordDefect::kCauseMismatch), 2u);
  EXPECT_EQ(sink.quarantine_sample().size(), 9u);
  EXPECT_EQ(inner.size(), 2u);
}

TEST(ValidatingSinkTest, WatermarkSurvivesResume) {
  // First process: closes day 1, then dies.
  telemetry::SignalingDataset inner1;
  telemetry::ValidatingSink before{inner1};
  before.consume(make_record(0, 0));
  before.on_day_end(0);
  before.consume(make_record(1, 0));
  before.on_day_end(1);
  EXPECT_EQ(before.completed_day(), 1);

  // Resumed process restores the watermark from the recovered checkpoint:
  // records regressing into closed days stay quarantined across the crash.
  telemetry::SignalingDataset inner2;
  telemetry::ValidatingSink after{inner2};
  after.restore_watermark(before.completed_day());
  EXPECT_EQ(after.completed_day(), 1);
  after.consume(make_record(0, 1));  // regressed into closed day 0
  after.consume(make_record(1, 1));  // regressed into closed day 1
  after.consume(make_record(2, 0));  // current day: clean
  EXPECT_EQ(after.count(telemetry::RecordDefect::kTimeRegression), 2u);
  EXPECT_EQ(after.forwarded(), 1u);

  // The watermark never moves backwards.
  after.restore_watermark(0);
  EXPECT_EQ(after.completed_day(), 1);
  after.restore_watermark(-1);
  EXPECT_EQ(after.completed_day(), 1);
}

TEST(ValidatingSinkTest, StacksOnTopOfDurableSink) {
  TempDir tmp{"stacked"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog log{real, small_log(tmp.path)};
  log.open();
  DurableRecordSink durable{log};
  telemetry::ValidatingSink validating{durable};

  validating.consume(make_record(0, 0));
  HandoverRecord bad = make_record(0, 1);
  bad.target_sector = bad.source_sector;
  validating.consume(bad);  // quarantined: must never reach the log
  validating.consume(make_record(0, 2));
  validating.on_day_end(0);  // forwarded -> durable commit

  EXPECT_EQ(validating.quarantined(), 1u);
  EXPECT_EQ(log.last_committed_day(), 0);
  const auto recovered = RecordLog::read_all(real, tmp.path);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_NE(recovered[0].source_sector, recovered[0].target_sector);
  EXPECT_NE(recovered[1].source_sector, recovered[1].target_sector);
}

// --- simulator + durable log -------------------------------------------------

TEST(SimulatorDurability, DurableRunMatchesPlainRunAndReplays) {
  const StudyConfig cfg = chaos_config();

  telemetry::SignalingDataset plain;
  Simulator reference{cfg};
  reference.add_sink(&plain);
  reference.run();

  TempDir tmp{"sim_durable"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;
  RecordLog log{real, opt};
  DurableRecordSink sink{log};
  Simulator sim{cfg};
  sim.attach_durable_log(&sink);
  sim.run();

  EXPECT_EQ(log.last_committed_day(), cfg.days - 1);
  EXPECT_EQ(log.committed_records(), plain.size());
  expect_identical(RecordLog::read_all(real, tmp.path),
                   {plain.records().begin(), plain.records().end()});

  // The last marker's embedded checkpoint is the end-of-study state.
  RecordLog reader{real, opt};
  const LogRecoveryReport rep = reader.open();
  const DayCheckpoint cp = core::decode_checkpoint(rep.app_state);
  EXPECT_EQ(cp.next_day, cfg.days);
  EXPECT_EQ(cp.seed, cfg.seed);
  EXPECT_EQ(cp.records_emitted, plain.size());

  // A fresh simulator attached to the finished log has nothing left to do.
  RecordLog done_log{real, opt};
  DurableRecordSink done_sink{done_log};
  Simulator done{cfg};
  done.attach_durable_log(&done_sink);
  done.run();
  EXPECT_EQ(done.next_day(), cfg.days);
  EXPECT_EQ(done_log.committed_records(), plain.size());
}

TEST(SimulatorDurability, ResumeFromLogRejectsMismatchedSeed) {
  TempDir tmp{"sim_seed_mismatch"};
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.directory = tmp.path;

  StudyConfig cfg = chaos_config();
  {
    RecordLog log{real, opt};
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);
    sim.run();
  }
  StudyConfig other = cfg;
  other.seed ^= 0x5555;
  RecordLog log{real, opt};
  DurableRecordSink sink{log};
  Simulator sim{other};
  sim.attach_durable_log(&sink);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

/// Sink that dies after consuming `budget` records (or, with budget < 0, in
/// on_day_end) — the "analysis plugin with a bug" failure mode.
class ExplodingSink final : public telemetry::RecordSink {
 public:
  explicit ExplodingSink(std::int64_t budget) : budget_(budget) {}

  void consume(const HandoverRecord&) override {
    if (budget_ >= 0 && consumed_++ >= budget_) {
      throw std::runtime_error{"sink exploded mid-day"};
    }
  }
  void on_day_end(int) override {
    if (budget_ < 0) throw std::runtime_error{"sink exploded at day end"};
  }

 private:
  std::int64_t budget_ = 0;
  std::int64_t consumed_ = 0;
};

TEST(SimulatorDurability, SinkThrowMidDayRollsBackAndReplaysExactlyOnce) {
  const StudyConfig cfg = chaos_config();

  telemetry::SignalingDataset clean;
  Simulator reference{cfg};
  reference.add_sink(&clean);
  reference.run();

  // Mid-day sink failure WITHOUT a durable log: the day must roll back
  // wholesale — cursor, record counter, core counters — so a retry replays
  // it exactly once instead of double-counting the partial emission.
  Simulator sim{cfg};
  ExplodingSink bomb{25};
  sim.add_sink(&bomb);
  EXPECT_THROW(sim.run_day(0), std::runtime_error);
  EXPECT_EQ(sim.next_day(), 0);
  EXPECT_EQ(sim.records_emitted(), 0u);
  EXPECT_EQ(sim.core_network().total_handovers(), 0u);
  sim.remove_sink(&bomb);

  telemetry::SignalingDataset replay;
  sim.add_sink(&replay);
  sim.run();
  EXPECT_EQ(sim.next_day(), cfg.days);
  expect_identical({replay.records().begin(), replay.records().end()},
                   {clean.records().begin(), clean.records().end()});
}

TEST(SimulatorDurability, SinkThrowMidDayNeverCommitsAPartialDayToTheLog) {
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();

  TempDir ref_dir{"sink_throw_ref"};
  RecordLog::Options ref_opt;
  ref_opt.directory = ref_dir.path;
  {
    RecordLog log{real, ref_opt};
    DurableRecordSink sink{log};
    Simulator reference{cfg};
    reference.attach_durable_log(&sink);
    reference.run();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);

  TempDir dir{"sink_throw"};
  RecordLog::Options opt;
  opt.directory = dir.path;

  // Phase 1: a buggy secondary sink kills day 0 mid-emission. The durable
  // buffer must be discarded with the rest of the day — nothing reached disk.
  {
    RecordLog log{real, opt};
    log.open();
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);
    ExplodingSink bomb{25};
    sim.add_sink(&bomb);
    EXPECT_THROW(sim.run_day(0), std::runtime_error);
    EXPECT_EQ(log.last_committed_day(), -1);
    EXPECT_EQ(sim.next_day(), 0);
    EXPECT_EQ(sim.records_emitted(), 0u);
  }
  EXPECT_TRUE(real.list(dir.path, "wal-").empty() ||
              RecordLog::read_all(real, dir.path).empty());

  // Phase 2: resume from the log; the interrupted day replays exactly once
  // and the final WAL is byte-identical to the never-interrupted run.
  {
    RecordLog log{real, opt};
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);
    sim.run();
    EXPECT_EQ(log.last_committed_day(), cfg.days - 1);
  }
  EXPECT_EQ(log_bytes(dir.path), ref_bytes);
}

TEST(SimulatorDurability, SinkThrowAfterDurableCommitDoesNotRollBack) {
  // The durable sink commits in registration order; a later sink throwing in
  // on_day_end finds the day already on disk — rolling back state would then
  // disagree with the log, so run_day must keep the completed day.
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();

  TempDir ref_dir{"day_end_ref"};
  RecordLog::Options ref_opt;
  ref_opt.directory = ref_dir.path;
  {
    RecordLog log{real, ref_opt};
    DurableRecordSink sink{log};
    Simulator reference{cfg};
    reference.attach_durable_log(&sink);
    reference.run();
  }

  TempDir dir{"day_end"};
  RecordLog::Options opt;
  opt.directory = dir.path;
  {
    RecordLog log{real, opt};
    log.open();
    DurableRecordSink sink{log};
    Simulator sim{cfg};
    sim.attach_durable_log(&sink);  // registered first: commits first
    ExplodingSink bomb{-1};         // throws in on_day_end, after the commit
    sim.add_sink(&bomb);
    EXPECT_THROW(sim.run_day(0), std::runtime_error);
    EXPECT_EQ(log.last_committed_day(), 0);
    EXPECT_EQ(sim.next_day(), 1);  // the day is durable — no rollback
    sim.remove_sink(&bomb);
    sim.run();
  }
  EXPECT_EQ(log_bytes(dir.path), log_bytes(ref_dir.path));
}

// --- the chaos harness -------------------------------------------------------

int chaos_schedule_count() {
  if (const char* env = std::getenv("TL_CHAOS_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 100;
}

/// One complete study under a fault plan, resuming until it finishes.
/// Returns the number of injected crashes survived.
struct ChaosOutcome {
  int crashes = 0;
  int io_aborts = 0;
  int attempts = 0;
};

TEST(ChaosHarness, KillRecoverSchedulesYieldByteIdenticalStreams) {
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.max_segment_bytes = 24 * 1024;  // several rolls per study
  opt.write_chunk_bytes = 1024;

  // The world build dominates cost; one simulator serves every schedule
  // (restore() resets all mutable state, exactly like a fresh process).
  Simulator sim{cfg};
  DayCheckpoint day0;
  day0.seed = cfg.seed;

  // Reference: an uninterrupted run through a fault-free decorated
  // filesystem. Its op count is the horizon crashes are drawn from; its
  // bytes and records are the oracle every chaotic schedule must reproduce.
  TempDir ref_dir{"chaos_ref"};
  std::uint64_t horizon = 0;
  {
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    RecordLog::Options ref_opt = opt;
    ref_opt.directory = ref_dir.path;
    RecordLog log{ffs, ref_opt};
    DurableRecordSink sink{log};
    log.open();
    sim.restore(day0);
    sim.attach_durable_log(&sink);
    sim.run();
    sim.remove_sink(&sink);
    horizon = ffs.ops();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  const std::vector<HandoverRecord> ref_records =
      RecordLog::read_all(real, ref_dir.path);
  ASSERT_GT(horizon, 20u);
  ASSERT_FALSE(ref_records.empty());
  ASSERT_GT(real.list(ref_dir.path, "wal-").size(), 1u);

  const int schedules = chaos_schedule_count();
  int total_crashes = 0;
  int total_io_aborts = 0;
  int multi_crash_schedules = 0;

  for (int schedule = 0; schedule < schedules; ++schedule) {
    TempDir dir{"chaos_" + std::to_string(schedule)};
    util::Rng meta = util::Rng::derive(0xC4A05ULL, static_cast<std::uint64_t>(schedule));
    ChaosOutcome outcome;
    bool complete = false;

    while (!complete) {
      ASSERT_LT(outcome.attempts, 64) << "schedule " << schedule << " livelocked";
      ++outcome.attempts;
      // Most attempts die at a seeded point (crashes can hit recovery I/O of
      // the NEXT attempt too, not just steady-state commits). Every third
      // schedule also suffers transient faults. A clean-retry chance bounds
      // the loop; the first attempt always carries the planned crash.
      io::IoFaultPlan plan;
      const bool clean = outcome.attempts > 1 && meta.chance(0.4);
      if (!clean) {
        const double transient_rate = (schedule % 3 == 0) ? 0.01 : 0.0;
        plan = io::IoFaultPlan::chaos(meta(), horizon + 8, transient_rate);
      }
      io::FaultyFileSystem ffs{real, plan, meta()};
      RecordLog::Options run_opt = opt;
      run_opt.directory = dir.path;
      RecordLog log{ffs, run_opt};
      DurableRecordSink sink{log};
      try {
        log.open();  // recovery itself runs under fault injection
        sim.restore(day0);
        sim.attach_durable_log(&sink);
        sim.run();
        complete = true;
      } catch (const io::SimulatedCrash&) {
        ++outcome.crashes;
      } catch (const io::IoError&) {
        ++outcome.io_aborts;  // transient EIO/fsync failure aborted a commit
      }
      sim.remove_sink(&sink);
    }

    total_crashes += outcome.crashes;
    total_io_aborts += outcome.io_aborts;
    if (outcome.crashes > 1) ++multi_crash_schedules;

    // Crash consistency: the recovered-and-resumed log is byte-identical to
    // the uninterrupted run — zero lost records, zero duplicates, identical
    // segment boundaries.
    ASSERT_EQ(log_bytes(dir.path), ref_bytes) << "schedule " << schedule;
    const auto records = RecordLog::read_all(real, dir.path);
    ASSERT_EQ(records.size(), ref_records.size()) << "schedule " << schedule;
    expect_identical(records, ref_records);
  }

  // The harness must actually have exercised crash paths, not just clean runs.
  EXPECT_GT(total_crashes, schedules / 2);
  EXPECT_GT(multi_crash_schedules, 0);
  RecordProperty("schedules", schedules);
  RecordProperty("crashes", total_crashes);
  RecordProperty("io_aborts", total_io_aborts);
}

TEST(ChaosHarness, ParallelRunsSurviveKillAndResumeByteIdentically) {
  // The strongest durability claim the parallel engine makes: a sharded run
  // killed mid-WAL and resumed (possibly at a different thread count) still
  // converges to the exact bytes of an uninterrupted SERIAL run — commit
  // markers, embedded checkpoints, and segment boundaries included. All log
  // I/O happens on the merge (caller) thread, so the WAL never observes
  // shard scheduling; this test is the end-to-end proof.
  const StudyConfig cfg = chaos_config();
  auto& real = io::StdioFileSystem::instance();
  RecordLog::Options opt;
  opt.max_segment_bytes = 24 * 1024;
  opt.write_chunk_bytes = 1024;

  Simulator sim{cfg};
  DayCheckpoint day0;
  day0.seed = cfg.seed;

  // Serial, fault-free reference — the oracle.
  TempDir ref_dir{"pchaos_ref"};
  std::uint64_t horizon = 0;
  {
    io::FaultyFileSystem ffs{real, io::IoFaultPlan{}, 0};
    RecordLog::Options ref_opt = opt;
    ref_opt.directory = ref_dir.path;
    RecordLog log{ffs, ref_opt};
    DurableRecordSink sink{log};
    log.open();
    sim.set_threads(1);
    sim.restore(day0);
    sim.attach_durable_log(&sink);
    sim.run();
    sim.remove_sink(&sink);
    horizon = ffs.ops();
  }
  const std::string ref_bytes = log_bytes(ref_dir.path);
  ASSERT_GT(horizon, 20u);

  // Fewer schedules than the serial harness: each parallel attempt costs the
  // same UE-day work plus pool scheduling, and the serial harness already
  // covers the fault-plan space densely. This pass targets the interaction.
  const int schedules = std::max(8, chaos_schedule_count() / 8);
  int total_crashes = 0;

  for (int schedule = 0; schedule < schedules; ++schedule) {
    TempDir dir{"pchaos_" + std::to_string(schedule)};
    util::Rng meta =
        util::Rng::derive(0x9A7A11E1ULL, static_cast<std::uint64_t>(schedule));
    int attempts = 0;
    bool complete = false;

    while (!complete) {
      ASSERT_LT(attempts, 64) << "schedule " << schedule << " livelocked";
      ++attempts;
      io::IoFaultPlan plan;
      const bool clean = attempts > 1 && meta.chance(0.4);
      if (!clean) {
        const double transient_rate = (schedule % 3 == 0) ? 0.01 : 0.0;
        plan = io::IoFaultPlan::chaos(meta(), horizon + 8, transient_rate);
      }
      io::FaultyFileSystem ffs{real, plan, meta()};
      RecordLog::Options run_opt = opt;
      run_opt.directory = dir.path;
      RecordLog log{ffs, run_opt};
      DurableRecordSink sink{log};
      // Resume at a different worker count than the previous attempt died
      // at — the WAL must not care.
      sim.set_threads(2 + static_cast<unsigned>(meta.below(3)));  // 2..4
      try {
        log.open();
        sim.restore(day0);
        sim.attach_durable_log(&sink);
        sim.run();
        complete = true;
      } catch (const io::SimulatedCrash&) {
        ++total_crashes;
      } catch (const io::IoError&) {
        // transient fault aborted a commit; next attempt recovers
      }
      sim.remove_sink(&sink);
    }

    ASSERT_EQ(log_bytes(dir.path), ref_bytes) << "schedule " << schedule;
  }
  sim.set_threads(1);

  EXPECT_GT(total_crashes, schedules / 2);
  RecordProperty("schedules", schedules);
  RecordProperty("crashes", total_crashes);
}

}  // namespace
}  // namespace tl
