#include "telemetry/record_log.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <algorithm>

#include "obs/scoped_timer.hpp"
#include "telemetry/scrub.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"

namespace tl::telemetry {
namespace {

using util::put_u16;
using util::put_u32;
using util::put_u64;
using util::put_u8;

// Frames larger than this are assumed to be garbage lengths read from a torn
// header, not real payloads (a full bench-scale day is far smaller).
constexpr std::uint32_t kMaxFrameLen = 1u << 28;

// Day marker payload: day u32, in_day u64, total u64, app_len u32, app state.
constexpr std::size_t kMarkerFixedSize = 24;

/// Writes `data` in `chunk` slices, treating any short write as a failed
/// durable write (ENOSPC-style): the commit must not pretend it happened.
void write_fully(io::File& file, std::span<const std::uint8_t> data,
                 std::size_t chunk) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - offset);
    const std::size_t written = file.write(data.data() + offset, n);
    if (written < n) {
      throw io::IoError{"record log: short write (device full?)"};
    }
    offset += n;
  }
}

struct VectorSink final : RecordSink {
  std::vector<HandoverRecord> records;
  void consume(const HandoverRecord& record) override { records.push_back(record); }
};

}  // namespace

const char* to_string(TailState state) noexcept {
  switch (state) {
    case TailState::kClean: return "clean";
    case TailState::kPending: return "pending";
    case TailState::kTorn: return "torn";
    case TailState::kMore: return "more";
    case TailState::kQuarantined: return "quarantined";
  }
  return "?";
}

RecordLog::RecordLog(io::FileSystem& fs, Options options)
    : fs_(fs), options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument{"RecordLog: empty directory"};
  }
  if (options_.write_chunk_bytes == 0) options_.write_chunk_bytes = 4096;
  if (options_.max_segment_bytes < kSegmentHeaderSize + kFrameHeaderSize) {
    throw std::invalid_argument{"RecordLog: max_segment_bytes too small"};
  }
}

RecordLog::~RecordLog() { govern_account_.sub(accounted_bytes_); }

std::string RecordLog::segment_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%05u.tlseg", index);
  return buf;
}

bool RecordLog::parse_segment_index(const std::string& name, std::uint32_t& index) {
  unsigned value = 0;
  if (std::sscanf(name.c_str(), "wal-%9u.tlseg", &value) != 1) return false;
  index = static_cast<std::uint32_t>(value);
  return name == segment_name(index);
}

std::string RecordLog::segment_path(std::uint32_t index) const {
  return options_.directory + "/" + segment_name(index);
}

void RecordLog::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs::MetricsRegistry* reg = obs::global_registry();
  if (reg == nullptr) {
    obs_bytes_ = obs::Counter{};
    obs_records_ = obs::Counter{};
    obs_fsyncs_ = obs::Counter{};
    obs_segments_ = obs::Counter{};
    obs_dropped_bytes_ = obs::Counter{};
    obs_dropped_records_ = obs::Counter{};
    obs_commit_seconds_ = obs::Histogram{};
    return;
  }
  obs_bytes_ = reg->counter("tl_wal_bytes_total",
                            "Bytes durably committed to the record log");
  obs_records_ = reg->counter("tl_wal_records_total",
                              "Record frames durably committed");
  obs_fsyncs_ = reg->counter("tl_wal_fsyncs_total", "fsync calls issued");
  obs_segments_ = reg->counter("tl_wal_segments_total",
                               "Segment files created (rolls + fresh opens)");
  obs_dropped_bytes_ =
      reg->counter("tl_wal_recovery_dropped_bytes_total",
                   "Uncommitted bytes truncated away during recovery");
  obs_dropped_records_ =
      reg->counter("tl_wal_recovery_dropped_records_total",
                   "Complete record frames dropped during recovery");
  obs_commit_seconds_ =
      reg->histogram("tl_wal_commit_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Wall time per durable day commit (write + fsync)");
}

void RecordLog::sync_govern_account() {
  const std::uint64_t epoch = govern::global_epoch();
  if (epoch != govern_epoch_) {
    govern_epoch_ = epoch;
    govern_account_ = govern::account("wal_day_buffer");
    accounted_bytes_ = 0;
  }
  const std::uint64_t bytes = day_buffer_.capacity();
  if (bytes >= accounted_bytes_) {
    govern_account_.add(bytes - accounted_bytes_);
  } else {
    govern_account_.sub(accounted_bytes_ - bytes);
  }
  accounted_bytes_ = bytes;
}

void RecordLog::write_segment_header(io::File& file, std::uint32_t index) {
  std::vector<std::uint8_t> header;
  header.reserve(kSegmentHeaderSize);
  header.insert(header.end(), kMagic, kMagic + sizeof kMagic);
  put_u32(header, index);
  put_u32(header, util::mask_crc32c(util::crc32c(header.data(), header.size())));
  write_fully(file, header, options_.write_chunk_bytes);
  file.sync();
  obs_segments_.inc();
  obs_fsyncs_.inc();
}

void RecordLog::append_frame(std::uint8_t type, std::span<const std::uint8_t> payload) {
  put_u32(day_buffer_, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32c(&type, 1);
  crc = util::crc32c(payload.data(), payload.size(), crc);
  put_u32(day_buffer_, util::mask_crc32c(crc));
  put_u8(day_buffer_, type);
  day_buffer_.insert(day_buffer_.end(), payload.begin(), payload.end());
}

void RecordLog::append(const HandoverRecord& record) {
  if (!open_) throw std::logic_error{"RecordLog::append: log not open"};
  std::vector<std::uint8_t> payload;
  payload.reserve(kRecordEncodedSize);
  encode_record(record, payload);
  append_frame(kRecordFrame, payload);
  ++buffered_records_;
  // Cheap guard (capacity compare) on the hot path; the accountant is only
  // touched when the buffer actually grew.
  if (day_buffer_.capacity() != accounted_bytes_) sync_govern_account();
}

void RecordLog::commit_day(int day, std::span<const std::uint8_t> app_state) {
  if (!open_) throw std::logic_error{"RecordLog::commit_day: log not open"};
  resolve_obs();
  if (day <= last_committed_day_) {
    throw std::logic_error{"RecordLog::commit_day: day " + std::to_string(day) +
                           " already committed (last: " +
                           std::to_string(last_committed_day_) + ")"};
  }
  std::vector<std::uint8_t> marker;
  marker.reserve(24 + app_state.size());
  put_u32(marker, static_cast<std::uint32_t>(day));
  put_u64(marker, buffered_records_);
  put_u64(marker, committed_records_ + buffered_records_);
  put_u32(marker, static_cast<std::uint32_t>(app_state.size()));
  marker.insert(marker.end(), app_state.begin(), app_state.end());
  append_frame(kDayMarkerFrame, marker);

  // Disarm until the commit (and any segment roll) fully succeeds: if an
  // exception escapes below, the on-disk state is indeterminate and the
  // caller must re-open (recovery discards whatever partially landed).
  open_ = false;
  obs::ScopedTimer commit_span{obs_commit_seconds_};
  write_fully(*current_, day_buffer_, options_.write_chunk_bytes);
  current_->sync();  // the day marker reaching disk IS the commit point
  commit_span.stop();
  obs_fsyncs_.inc();
  obs_bytes_.inc(day_buffer_.size());
  obs_records_.inc(buffered_records_);

  segment_size_ += day_buffer_.size();
  committed_records_ += buffered_records_;
  last_committed_day_ = day;
  // Release the day buffer's capacity now that the day is durable: holding
  // a committed day's worth of staging forever is exactly the unbounded
  // footprint the governor exists to prevent. The swap cannot throw.
  std::vector<std::uint8_t>().swap(day_buffer_);
  sync_govern_account();
  buffered_records_ = 0;
  if (segment_size_ >= options_.max_segment_bytes) roll_segment();
  open_ = true;
}

void RecordLog::discard_day() noexcept {
  std::vector<std::uint8_t>().swap(day_buffer_);
  // noexcept path: settle the accountant directly (no epoch re-resolution,
  // which may allocate); every Accountant operation is noexcept.
  govern_account_.sub(accounted_bytes_);
  accounted_bytes_ = 0;
  buffered_records_ = 0;
}

void RecordLog::mirror_sealed_segment(std::uint32_t index) {
  if (options_.mirror_directory.empty()) return;
  copy_file_atomic(fs_, segment_path(index),
                   options_.mirror_directory + "/" + segment_name(index));
}

void RecordLog::roll_segment() {
  current_->close();
  current_.reset();
  // The seal point: the segment will never change again, so this is where
  // its durable replica is cut. A failure here propagates (the day is
  // already committed on the primary; the caller re-opens and open()'s
  // integrity pass redoes the mirror catch-up).
  mirror_sealed_segment(segment_index_);
  ++segment_index_;
  current_ = fs_.open(segment_path(segment_index_), io::OpenMode::kTruncate);
  write_segment_header(*current_, segment_index_);
  segment_size_ = kSegmentHeaderSize;
}

// --- recovery / replay -------------------------------------------------------

/// Forward scan over the segment chain. Stops at the first invalid byte —
/// truncated frame, CRC mismatch, bad header, non-contiguous segment — and
/// reports the position of the last committed day marker before it.
struct RecordLog::Scan {
  std::vector<std::string> segments;  // listing at scan time, sorted
  std::vector<std::uint64_t> sizes;   // parallel to `segments`
  std::uint32_t base = 0;             // index of the first listed segment
  bool first_header_valid = false;
  bool any_marker = false;
  std::size_t marker_seg = 0;            // listing POSITION of the last marker
  std::uint64_t marker_offset = 0;       // offset just past that marker frame
  int last_day = -1;
  std::uint64_t committed_records = 0;   // from the last marker
  std::vector<std::uint8_t> app_state;   // from the last marker
  std::uint64_t dropped_records = 0;     // complete record frames past it
};

RecordLog::Scan RecordLog::scan(io::FileSystem& fs, const std::string& directory,
                                RecordSink* sink) {
  Scan s;
  s.segments = fs.list(directory, "wal-");
  // Retention may have deleted a committed prefix of the chain: the first
  // listed name fixes the base index everything else must be contiguous
  // with. An unparseable first name means nothing in the listing is ours.
  if (!s.segments.empty() && !parse_segment_index(s.segments[0], s.base)) {
    s.base = 0;
  }
  std::uint64_t records_seen = 0;        // record frames since log start
  // With a pruned chain the records before `base` are gone; the cumulative
  // count in the first marker is adopted rather than verified. A chain from
  // index 0 has nothing before it, so its first marker is fully verified.
  bool have_total = s.base == 0;
  std::uint64_t records_since_marker = 0;
  std::vector<HandoverRecord> pending;   // decoded records of the open day

  for (std::size_t si = 0; si < s.segments.size(); ++si) {
    const std::uint32_t seg_index = s.base + static_cast<std::uint32_t>(si);
    // The chain must be contiguous wal-<base>, wal-<base+1>, ...; anything
    // else (a gap, a stray file) ends the valid prefix.
    if (s.segments[si] != segment_name(seg_index)) break;
    const std::string path = directory + "/" + s.segments[si];
    SegmentReader reader{fs, path, seg_index};
    s.sizes.push_back(reader.size());

    const SegmentStep* step = &reader.next();
    for (; step->is_frame(); step = &reader.next()) {
      if (step->kind == SegmentStep::kRecord) {
        ++records_seen;
        ++records_since_marker;
        if (sink != nullptr) pending.push_back(step->record);
        continue;
      }
      if (step->in_day != records_since_marker ||
          (have_total && step->total != records_seen)) {
        // A CRC-valid marker whose counts disagree with the frames on disk
        // means a writer bug or tampering, not a torn tail: fail loudly
        // rather than silently serving a record stream of unknown shape.
        throw io::IoError{"record log corrupt: marker record counts disagree "
                          "with the frames preceding it (" +
                          path + ")"};
      }
      if (!have_total) {
        // First marker of a retention-pruned chain: adopt the cumulative
        // count (the frames it counts were deleted); verify from here on.
        records_seen = step->total;
        have_total = true;
      }
      s.any_marker = true;
      s.marker_seg = si;
      s.marker_offset = reader.offset();
      s.last_day = step->day;
      s.committed_records = step->total;
      s.app_state.assign(step->app_state.begin(), step->app_state.end());
      records_since_marker = 0;
      if (sink != nullptr) {
        for (const auto& r : pending) sink->consume(r);
        pending.clear();
        sink->on_day_end(step->day);
      }
    }
    if (si == 0) s.first_header_valid = reader.past_header();
    // Anything but a clean end (torn header, truncated frame, CRC mismatch,
    // foreign frame) drops this and every later segment.
    if (step->kind != SegmentStep::kEnd) break;
  }
  s.dropped_records = records_since_marker;
  return s;
}

LogRecoveryReport RecordLog::open() {
  resolve_obs();
  open_ = false;
  current_.reset();
  std::vector<std::uint8_t>().swap(day_buffer_);
  sync_govern_account();
  buffered_records_ = 0;

  fs_.create_directories(options_.directory);
  if (!options_.mirror_directory.empty()) {
    fs_.create_directories(options_.mirror_directory);
    // Integrity pass BEFORE the recovery scan: restore any latently damaged
    // sealed primary from its clean mirror and catch the mirror up (covers
    // a crash between seal and mirror copy). Without this, a single flipped
    // bit in a sealed segment would make scan() truncate every committed
    // day after it. Segments damaged in BOTH copies stay damaged — the
    // writer's certified fallback is truncate-and-regenerate, which the
    // scan below performs; certified *skipping* is the reader's job
    // (follow() + FollowOptions::quarantined).
    LogIntegrity{fs_, ScrubOptions{options_.directory,
                                   options_.mirror_directory}}
        .check_and_repair();
  }
  LogRecoveryReport report;

  const Scan s = scan(fs_, options_.directory, nullptr);
  report.log_existed = !s.segments.empty();
  report.last_committed_day = s.last_day;
  report.committed_records = s.committed_records;
  report.dropped_records = s.dropped_records;
  report.app_state = s.app_state;

  std::uint64_t bytes_before = 0;
  for (std::size_t i = 0; i < s.sizes.size(); ++i) bytes_before += s.sizes[i];
  // Unlisted trailing sizes (segments after a name-contiguity break) were
  // never measured; measure them now so dropped_bytes is complete.
  for (std::size_t i = s.sizes.size(); i < s.segments.size(); ++i) {
    bytes_before += fs_.file_size(options_.directory + "/" + s.segments[i]);
  }

  // Discard everything past the last committed marker: truncate the marker's
  // segment and delete every later file in the listing.
  const std::size_t keep_seg = s.any_marker ? s.marker_seg : 0;
  for (std::size_t i = s.segments.size(); i-- > keep_seg + 1;) {
    fs_.remove(options_.directory + "/" + s.segments[i]);
  }
  std::uint64_t bytes_after = 0;
  if (s.any_marker || s.first_header_valid) {
    const std::uint64_t keep =
        s.any_marker ? s.marker_offset : static_cast<std::uint64_t>(kSegmentHeaderSize);
    fs_.truncate(segment_path(s.base + static_cast<std::uint32_t>(keep_seg)), keep);
    segment_index_ = s.base + static_cast<std::uint32_t>(keep_seg);
    segment_size_ = keep;
    current_ = fs_.open(segment_path(segment_index_), io::OpenMode::kAppend);
    for (std::size_t i = 0; i < keep_seg; ++i) bytes_after += s.sizes[i];
    bytes_after += keep;
  } else {
    // Nothing usable (fresh directory, or segment 0's header itself is
    // torn): start the chain over.
    if (!s.segments.empty()) fs_.remove(options_.directory + "/" + s.segments[0]);
    segment_index_ = 0;
    current_ = fs_.open(segment_path(0), io::OpenMode::kTruncate);
    write_segment_header(*current_, 0);
    segment_size_ = kSegmentHeaderSize;
  }
  report.dropped_bytes = bytes_before - bytes_after;
  obs_dropped_bytes_.inc(report.dropped_bytes);
  obs_dropped_records_.inc(report.dropped_records);

  last_committed_day_ = s.last_day;
  committed_records_ = s.committed_records;
  // A sealed tail segment means the crash hit between a commit and its
  // roll; redo the roll so the byte layout matches an uninterrupted run.
  if (segment_size_ >= options_.max_segment_bytes) roll_segment();
  recovery_ = report;
  open_ = true;
  return report;
}

std::uint64_t RecordLog::replay(io::FileSystem& fs, const std::string& directory,
                                RecordSink& sink) {
  const Scan s = scan(fs, directory, &sink);
  return s.committed_records;
}

std::vector<HandoverRecord> RecordLog::read_all(io::FileSystem& fs,
                                                const std::string& directory) {
  VectorSink sink;
  replay(fs, directory, sink);
  return std::move(sink.records);
}

// --- tail-follow -------------------------------------------------------------

TailReadResult RecordLog::follow(io::FileSystem& fs, const std::string& directory,
                                 LogCursor& cursor, RecordSink& sink,
                                 std::uint64_t max_days) {
  FollowOptions options;
  options.max_days = max_days;
  return follow(fs, directory, cursor, sink, options);
}

TailReadResult RecordLog::follow(io::FileSystem& fs, const std::string& directory,
                                 LogCursor& cursor, RecordSink& sink,
                                 const FollowOptions& options) {
  const std::uint64_t max_days = options.max_days;
  const auto is_quarantined = [&options](std::uint32_t segment) {
    return std::binary_search(options.quarantined.begin(),
                              options.quarantined.end(), segment);
  };
  // True between skipping a quarantined segment and the next delivered
  // marker: that marker's cumulative total is adopted (with a plausibility
  // floor) instead of verified, and the gap it reveals is accounted.
  bool pending_adopt = false;
  TailReadResult result;
  const std::vector<std::string> names = fs.list(directory, "wal-");
  if (names.empty()) return result;  // no log yet: caught up by definition
  std::uint32_t base = 0;
  if (!parse_segment_index(names[0], base)) {
    result.state = TailState::kTorn;  // nothing in the listing is ours
    return result;
  }
  if (cursor.fresh()) {
    cursor.segment = base;  // start wherever retention left the chain
  } else if (cursor.segment < base) {
    throw io::IoError{"record log tail: cursor segment " +
                      segment_name(cursor.segment) +
                      " was deleted from under the reader (" + directory + ")"};
  }
  // Cumulative counts are verifiable once the cursor has consumed a marker;
  // a fresh cursor on a pruned chain adopts the first marker's total.
  bool have_total = cursor.day >= 0 || base == 0;

  // Scan position. The durable cursor itself only ever advances past a
  // consumed day marker (below) — never into a segment with nothing
  // committed — so a persisted cursor always pins the segment holding the
  // newest marker it has seen, and retention behind it cannot strand a
  // writer's recovery without a day high-water mark.
  std::uint32_t seg = cursor.segment;
  std::uint64_t pos = cursor.offset;

  while (true) {
    if (is_quarantined(seg)) {
      // Certified loss: skip the whole segment without reading a byte. The
      // durable cursor does NOT move (it only rests past delivered markers);
      // the next surviving marker both re-anchors the totals and accounts
      // for the hole. Days never span segments, so a skip always lands on a
      // day boundary — no partial day can leak out of it.
      result.quarantine_skipped = true;
      pending_adopt = true;
      if (!fs.exists(directory + "/" + segment_name(seg + 1))) {
        result.state = TailState::kQuarantined;  // hole reaches the end
        return result;
      }
      seg += 1;
      pos = 0;
      continue;
    }
    const std::string path = directory + "/" + segment_name(seg);
    // Successor first, size second: a segment already sealed when its size
    // is sampled has its final size, so bytes missing from it are damage.
    // Sampled the other way round, a writer could finish the day and roll
    // in between, and a frame still in flight would read as torn.
    const bool sealed = fs.exists(directory + "/" + segment_name(seg + 1));
    if (!fs.exists(path)) {
      if (cursor.fresh()) return result;  // chain raced away; nothing to do
      throw io::IoError{"record log tail: cursor segment missing: " + path};
    }
    SegmentReader reader{fs, path, seg, pos};
    if (pos > reader.size()) {
      // A crash rolled back bytes the writer had not fsynced past a point
      // we read optimistically. The deterministic writer will regenerate
      // the identical bytes; wait for the tail to regrow.
      result.state = TailState::kPending;
      return result;
    }

    std::vector<HandoverRecord> pending;  // records of the not-yet-marked day
    const SegmentStep* step = &reader.next();
    for (; step->is_frame(); step = &reader.next()) {
      if (step->kind == SegmentStep::kRecord) {
        pending.push_back(step->record);
        continue;
      }
      const int day = step->day;
      const std::uint64_t in_day = step->in_day;
      const std::uint64_t total = step->total;
      if (day <= cursor.day) {
        throw io::IoError{"record log corrupt: non-monotonic day marker in " +
                          path};
      }
      if (in_day != pending.size() ||
          (!pending_adopt && have_total && total != cursor.records + in_day)) {
        throw io::IoError{"record log corrupt: marker record counts disagree "
                          "with the frames preceding it (" +
                          path + ")"};
      }
      if (pending_adopt && have_total && total < cursor.records + in_day) {
        // Even across a hole the chain can only have grown: a total below
        // what the cursor already consumed is corruption, not loss.
        throw io::IoError{"record log corrupt: marker total ran backwards "
                          "across a quarantined range (" +
                          path + ")"};
      }
      if (result.days_delivered == max_days) {
        result.state = TailState::kMore;  // committed data remains; re-poll
        return result;
      }
      // Commit point for the reader: deliver the whole day, then advance
      // the cursor past the marker — records and cursor move in lockstep,
      // so an exception anywhere above leaves both at the previous day.
      for (const HandoverRecord& r : pending) sink.consume(r);
      sink.on_day_end(day);
      pending.clear();
      if (pending_adopt) {
        // First surviving marker past a quarantined hole: its cumulative
        // total quantifies exactly what the hole swallowed. Committed
        // together with the cursor advance, so a re-poll that skips the
        // same hole never double-counts.
        if (have_total) {
          result.records_quarantined += total - in_day - cursor.records;
        } else {
          result.quarantine_exact = false;  // pruned-chain base anchor gone
        }
        if (cursor.day >= 0) {
          result.days_quarantined +=
              static_cast<std::uint64_t>(day - cursor.day - 1);
          if (result.quarantine_first_day < 0) {
            result.quarantine_first_day = cursor.day + 1;
          }
          result.quarantine_last_day = day - 1;
        } else {
          result.quarantine_exact = false;  // first lost day unknowable
        }
        pending_adopt = false;
      }
      cursor.day = day;
      cursor.records = total;
      cursor.segment = seg;
      cursor.offset = reader.offset();
      have_total = true;
      ++result.days_delivered;
      result.records_delivered += in_day;
      result.last_app_state.assign(step->app_state.begin(),
                                   step->app_state.end());
    }

    if (step->kind != SegmentStep::kEnd) {
      // Bytes past the end of the data (a short segment, a frame running
      // past end-of-file) are a write still in flight — but only in the
      // newest segment. Sealed segments never grow (rolls are commit-
      // aligned), so the same truncation mid-chain is damage (a crash at
      // segment creation under ENOSPC, rot in a length field) that waiting
      // can never heal. Everything else (bad header, garbage length, a
      // complete frame with a bad CRC, a foreign frame) can only be a torn
      // tail from a crash, or rot: never deliverable.
      result.state = step->kind == SegmentStep::kTruncated && !sealed
                         ? TailState::kPending
                         : TailState::kTorn;
      return result;
    }
    if (!pending.empty()) {
      // Record frames with no marker at the end of the segment: an in-flight
      // (or crashed) commit. Days never span segments — rolls are
      // commit-aligned — so in a sealed segment this is structural
      // corruption, not a pending write.
      result.state = sealed ? TailState::kTorn : TailState::kPending;
      return result;
    }
    if (!sealed) {
      // Caught up with the writer (as of the size sample). A clean catch-up
      // that skipped certified holes is reported as such: complete where it
      // counts, degraded where it was certified to be.
      if (result.quarantine_skipped) result.state = TailState::kQuarantined;
      return result;
    }
    seg += 1;
    pos = 0;  // validate the new header at the top of the loop
  }
}

// --- record codec ------------------------------------------------------------

void RecordLog::encode_record(const HandoverRecord& r, std::vector<std::uint8_t>& out) {
  put_u64(out, static_cast<std::uint64_t>(r.timestamp));
  put_u64(out, r.anon_user_id);
  put_u32(out, r.source_sector);
  put_u32(out, r.target_sector);
  put_u32(out, std::bit_cast<std::uint32_t>(r.duration_ms));
  put_u32(out, r.postcode);
  put_u32(out, r.district);
  put_u16(out, r.cause);
  put_u16(out, r.manufacturer);
  put_u8(out, r.success ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(r.source_rat));
  put_u8(out, static_cast<std::uint8_t>(r.target_rat));
  put_u8(out, static_cast<std::uint8_t>(r.device_type));
  put_u8(out, static_cast<std::uint8_t>(r.area));
  put_u8(out, static_cast<std::uint8_t>(r.region));
  put_u8(out, static_cast<std::uint8_t>(r.vendor));
  put_u8(out, r.srvcc ? 1 : 0);
  put_u8(out, r.attempt);
}

HandoverRecord RecordLog::decode_record(std::span<const std::uint8_t> payload) {
  if (payload.size() != kRecordEncodedSize) {
    throw std::runtime_error{"RecordLog::decode_record: bad payload size"};
  }
  util::ByteReader in{payload, "RecordLog::decode_record"};
  HandoverRecord r;
  r.timestamp = static_cast<util::TimestampMs>(in.u64());
  r.anon_user_id = in.u64();
  r.source_sector = in.u32();
  r.target_sector = in.u32();
  r.duration_ms = std::bit_cast<float>(in.u32());
  r.postcode = in.u32();
  r.district = in.u32();
  r.cause = in.u16();
  r.manufacturer = in.u16();
  r.success = in.u8() != 0;
  r.source_rat = static_cast<topology::ObservedRat>(in.u8());
  r.target_rat = static_cast<topology::ObservedRat>(in.u8());
  r.device_type = static_cast<devices::DeviceType>(in.u8());
  r.area = static_cast<geo::AreaType>(in.u8());
  r.region = static_cast<geo::Region>(in.u8());
  r.vendor = static_cast<topology::Vendor>(in.u8());
  r.srvcc = in.u8() != 0;
  r.attempt = in.u8();
  return r;
}

// --- segment reader ------------------------------------------------------------

SegmentReader::SegmentReader(io::FileSystem& fs, const std::string& path,
                             std::uint32_t index, std::uint64_t offset)
    : index_(index), size_(fs.file_size(path)), offset_(offset) {
  file_ = fs.open(path, io::OpenMode::kRead);
  if (offset_ > 0 && offset_ <= size_) file_->seek(offset_);
}

const SegmentStep& SegmentReader::stop(SegmentStep::Kind kind,
                                       std::uint64_t length) {
  stopped_ = true;
  step_.kind = kind;
  step_.offset = offset_;
  step_.length = length;
  step_.app_state = {};
  return step_;
}

const SegmentStep& SegmentReader::next() {
  if (stopped_) return step_;
  if (offset_ == 0) {
    std::uint8_t header[RecordLog::kSegmentHeaderSize];
    if (size_ < sizeof header || file_->read(header, sizeof header) != sizeof header) {
      return stop(SegmentStep::kTruncated, size_);
    }
    util::ByteReader in{header, "record log segment header", sizeof RecordLog::kMagic};
    if (std::memcmp(header, RecordLog::kMagic, sizeof RecordLog::kMagic) != 0 ||
        in.u32() != index_ || util::unmask_crc32c(in.u32()) != util::crc32c(header, 12)) {
      return stop(SegmentStep::kBadHeader, sizeof header);
    }
    offset_ = sizeof header;
  }
  if (offset_ == size_) return stop(SegmentStep::kEnd, 0);
  const std::uint64_t rest = offset_ < size_ ? size_ - offset_ : 0;
  std::uint8_t fh[RecordLog::kFrameHeaderSize];
  if (rest < sizeof fh || file_->read(fh, sizeof fh) != sizeof fh) {
    return stop(SegmentStep::kTruncated, rest);
  }
  util::ByteReader in{fh, "record log frame header"};
  const std::uint32_t len = in.u32();
  const std::uint32_t stored_crc = util::unmask_crc32c(in.u32());
  const std::uint8_t type = in.u8();
  if (len > kMaxFrameLen) return stop(SegmentStep::kBadLength, sizeof fh);
  const std::uint64_t frame = sizeof fh + static_cast<std::uint64_t>(len);
  // Size the buffer only for bytes the file really has: a forged length
  // can stop the reader, never make it allocate.
  if (frame > rest) return stop(SegmentStep::kTruncated, rest);
  payload_.resize(len);
  if (file_->read(payload_.data(), len) != len) {
    return stop(SegmentStep::kTruncated, rest);
  }
  std::uint32_t crc = util::crc32c(&type, 1);
  crc = util::crc32c(payload_.data(), len, crc);
  if (crc != stored_crc) return stop(SegmentStep::kBadCrc, frame);

  if (type == RecordLog::kRecordFrame && len == RecordLog::kRecordEncodedSize) {
    step_.kind = SegmentStep::kRecord;
    step_.record = RecordLog::decode_record(payload_);
  } else if (type == RecordLog::kDayMarkerFrame && len >= kMarkerFixedSize) {
    util::ByteReader marker{payload_, "record log day marker"};
    step_.day = static_cast<int>(marker.u32());
    step_.in_day = marker.u64();
    step_.total = marker.u64();
    if (marker.u32() != len - kMarkerFixedSize) {
      return stop(SegmentStep::kBadStructure, frame);
    }
    step_.kind = SegmentStep::kMarker;
    step_.app_state = marker.take(marker.remaining());
  } else {
    return stop(SegmentStep::kBadStructure, frame);
  }
  step_.offset = offset_;
  step_.length = frame;
  offset_ += frame;
  return step_;
}

}  // namespace tl::telemetry
