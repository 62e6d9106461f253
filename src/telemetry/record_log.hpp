#pragma once

// Crash-consistent durable persistence for the handover record stream.
//
// The operator-side pipeline ingests ~8 TB of signaling records per day;
// partial writes, torn files, and mid-run process death are operational
// reality there. This module makes the bytes on disk trustworthy:
//
//  - RecordLog: a segmented, length-prefixed, CRC32C-framed binary
//    write-ahead log of HandoverRecords. Records buffer in memory for the
//    current study day; commit_day() appends the day's record frames plus a
//    *day commit marker* (which embeds an opaque application checkpoint),
//    then flushes and fsyncs — the marker hitting disk IS the commit point.
//  - Tail-follow: an incremental reader (LogCursor + follow()) for a
//    long-running consumer that polls the log while a writer is still
//    appending. It delivers whole committed days exactly once, and tells
//    pending tail bytes (an in-flight commit that may yet complete) apart
//    from torn ones (provably invalid; only the writer's recovery may
//    truncate them). The serve-mode WalTailer is built on this.
//  - Recovery and replay run the same chain walk from a fresh cursor, so
//    one function decides what a committed day is. open() truncates the
//    log back to the last day marker the walk delivered and reports
//    exactly what was dropped. The surviving log is always a committed-day
//    prefix of an uninterrupted run — byte-identical to it, which the
//    chaos harness (tests/test_durability.cpp) proves across seeded kill
//    schedules. replay() streams the committed records back through the
//    ordinary RecordSink interface, so every analysis entry point consumes
//    a recovered log exactly like a live simulation.
//  - SegmentReader: the one decoder of the segment format. The chain walk
//    and the scrub audit (telemetry/scrub) read frames through it and keep
//    only their own policy for what a stop means.
//
// Retention: the chain may start at any index (segments before a durable
// consumer cursor can be deleted); the chain walk accepts a contiguous
// chain wal-<base>..wal-<n> and adopts the cumulative record count from the
// first day marker when base > 0.
//
// All I/O goes through io::FileSystem so the chaos harness can inject
// short writes, EIO, failed fsyncs, and hard crash points underneath.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "govern/governor.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "telemetry/sinks.hpp"

namespace tl::telemetry {

/// What open() found and did. After a clean shutdown the dropped_* fields
/// are zero; after a torn tail they say how much un-committed data the
/// recovery discarded (the resumed run regenerates it deterministically).
struct LogRecoveryReport {
  bool log_existed = false;
  int last_committed_day = -1;          // -1: nothing committed yet
  std::uint64_t committed_records = 0;  // record frames behind the last marker
  std::uint64_t dropped_bytes = 0;      // torn/uncommitted bytes truncated away
  std::uint64_t dropped_records = 0;    // complete record frames among them
  std::vector<std::uint8_t> app_state;  // checkpoint embedded in the last marker
};

/// Position of an incremental reader in the segment chain. A fresh cursor
/// sits at the chain base with nothing consumed; otherwise the offset sits
/// just past the newest *committed* day marker delivered — follow() never
/// rests a cursor inside a segment with nothing committed, so `segment`
/// always pins the segment holding that marker (and retention strictly
/// behind it can never strand a writer's recovery without its day
/// high-water mark). Writer recovery never truncates behind the last
/// committed marker, so a persisted cursor stays valid across crashes.
struct LogCursor {
  std::uint32_t segment = 0;   ///< segment index (as in the file name)
  std::uint64_t offset = 0;    ///< byte offset within that segment
  int day = -1;                ///< last day delivered through this cursor
  std::uint64_t records = 0;   ///< cumulative committed records through `day`
  /// A cursor that has never touched the log (follow() will position it at
  /// the chain base, wherever retention left that).
  bool fresh() const noexcept { return day == -1 && offset == 0; }
  friend bool operator==(const LogCursor&, const LogCursor&) = default;
};

/// What the tail looked like when follow() stopped.
enum class TailState : std::uint8_t {
  kClean = 0,  ///< cursor is at the committed end; no bytes follow
  kPending,    ///< well-formed but incomplete bytes follow (a commit may be
               ///< in flight — or a crashed writer; bytes alone cannot tell,
               ///< only the writer's recovery may truncate)
  kTorn,       ///< provably invalid bytes follow (bad CRC on a complete
               ///< frame, bad length, foreign frame type): they can never
               ///< become a valid commit; writer recovery will drop them
  kMore,       ///< stopped at max_days with committed data still unread
  kQuarantined,  ///< caught up, but quarantined segments were skipped on the
                 ///< way: the stream is certified-degraded, not complete
};

const char* to_string(TailState state) noexcept;

/// Knobs for follow() beyond the cursor itself.
struct FollowOptions {
  /// Days delivered per call before reporting kMore.
  std::uint64_t max_days = UINT64_MAX;
  /// Sealed segments certified lost by storage integrity (both replicas
  /// damaged; ascending, as produced by LogIntegrity). follow() skips them
  /// without reading a byte, adopts the next surviving marker's cumulative
  /// total, and reports the skipped range — days_quarantined /
  /// records_quarantined are exact whenever the anchor markers survive.
  std::span<const std::uint32_t> quarantined;
};

struct TailReadResult {
  TailState state = TailState::kClean;
  std::uint64_t days_delivered = 0;
  std::uint64_t records_delivered = 0;
  /// Checkpoint payload embedded in the newest marker delivered (empty when
  /// none was, or the writer committed without app state).
  std::vector<std::uint8_t> last_app_state;
  /// Quarantine accounting for this call (non-zero only when quarantined
  /// segments were actually skipped between the cursor and the end).
  bool quarantine_skipped = false;   ///< at least one segment was skipped
  std::uint64_t days_quarantined = 0;
  std::uint64_t records_quarantined = 0;
  bool quarantine_exact = true;  ///< false when an anchor marker is missing
  int quarantine_first_day = -1;
  int quarantine_last_day = -1;
};

class RecordLog {
 public:
  struct Options {
    std::string directory;
    /// Commit-aligned segment roll threshold: a segment that reaches this
    /// size after a commit is sealed and a fresh one is started.
    std::uint64_t max_segment_bytes = 64ull << 20;
    /// Commits stream the day buffer in chunks of this size, so a crash can
    /// land between any two chunks (more torn-write surface for chaos).
    std::size_t write_chunk_bytes = 4096;
    /// Opt-in segment mirroring: when set, every segment is copied here at
    /// seal time (tmp + fsync + rename, read back and CRC-verified), and
    /// open() first runs a storage-integrity pass — restoring any damaged
    /// sealed primary from its clean mirror (and catching the mirror up)
    /// BEFORE recovery walks the chain, so a single-copy latent defect
    /// never costs committed days. The active tail segment is not mirrored
    /// (its torn-tail story is recovery + deterministic regeneration).
    std::string mirror_directory;
  };

  /// `fs` is borrowed and must outlive the log.
  RecordLog(io::FileSystem& fs, Options options);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Recovers the on-disk state (creating the directory and first segment
  /// if absent) and arms the writer. Must be called before append/commit;
  /// call again to re-arm after an IoError aborted a commit.
  LogRecoveryReport open();
  bool is_open() const noexcept { return open_; }
  /// Report of the most recent open().
  const LogRecoveryReport& recovery() const noexcept { return recovery_; }

  /// Buffers one record for the current day. No I/O happens here.
  void append(const HandoverRecord& record);

  /// Durably commits the buffered day: record frames + a day marker carrying
  /// `app_state` (e.g. a serialized simulator checkpoint), chunk-written,
  /// flushed and fsynced. On any I/O failure the log disarms (recovery on
  /// the next open() discards the partial commit) and the error propagates.
  /// Days must be committed in increasing order.
  void commit_day(int day, std::span<const std::uint8_t> app_state);

  /// Drops the buffered, not-yet-committed day without any I/O. The
  /// simulator's day-rollback path calls this when a day aborts after some
  /// records were already appended — otherwise the next commit_day would
  /// smuggle the aborted day's partial records into a later day's frame.
  void discard_day() noexcept;

  int last_committed_day() const noexcept { return last_committed_day_; }
  std::uint64_t committed_records() const noexcept { return committed_records_; }
  std::size_t buffered_records() const noexcept { return buffered_records_; }

  /// Streams every committed record of the log at `directory` into `sink`,
  /// calling sink.on_day_end() at each day marker — a recovered log replays
  /// into the analysis entry points exactly like a live run. Returns the
  /// number of records delivered. Uncommitted tail data is ignored (not
  /// modified; use open() to truncate it).
  static std::uint64_t replay(io::FileSystem& fs, const std::string& directory,
                              RecordSink& sink);

  /// Convenience: all committed records, in order.
  static std::vector<HandoverRecord> read_all(io::FileSystem& fs,
                                              const std::string& directory);

  /// Tail-follow: delivers every committed day between `cursor` and the end
  /// of the log into `sink` (records first, then on_day_end), advancing the
  /// cursor past each day marker as it is delivered — whole days, exactly
  /// once, across any number of calls and process restarts (persist the
  /// cursor to resume). Safe to call while a writer is appending: the day
  /// buffered past the last marker is reported as kPending, never torn and
  /// never delivered twice. Delivers at most `max_days` days per call so a
  /// supervised poll loop keeps bounded latency (kMore = call again).
  ///
  /// Throws io::IoError when the chain is corrupt in a way bytes cannot
  /// explain away (marker counts disagreeing with frames, non-monotonic
  /// days, the cursor's segment deleted from under it). Note: CRC-valid
  /// frames are trusted even before the writer's fsync; if the writer can
  /// lose committed-but-unsynced data it must regenerate the same bytes on
  /// recovery (ours does, deterministically), or the cursor waits at
  /// kPending until the tail regrows.
  static TailReadResult follow(io::FileSystem& fs, const std::string& directory,
                               LogCursor& cursor, RecordSink& sink,
                               std::uint64_t max_days = UINT64_MAX);

  /// follow() with certified-degradation support: segments listed in
  /// `options.quarantined` are skipped without being read, delivery resumes
  /// at the next surviving day, and the result carries the skipped range's
  /// exact day/record accounting (anchored on the marker totals around the
  /// hole). A call that skipped anything and would otherwise be kClean
  /// reports kQuarantined — the caller knows the stream is degraded, never
  /// wrong. Accounting for a skip whose closing anchor has not landed yet
  /// is deferred to the poll that first delivers a day past the hole.
  static TailReadResult follow(io::FileSystem& fs, const std::string& directory,
                               LogCursor& cursor, RecordSink& sink,
                               const FollowOptions& options);

  // --- wire format (exposed for tests and the design doc) ---
  static constexpr char kMagic[8] = {'T', 'L', 'W', 'A', 'L', 'O', 'G', '1'};
  static constexpr std::size_t kSegmentHeaderSize = 16;  // magic + index + crc
  static constexpr std::size_t kFrameHeaderSize = 9;     // len + crc + type
  static constexpr std::uint8_t kRecordFrame = 1;
  static constexpr std::uint8_t kDayMarkerFrame = 2;
  static constexpr std::size_t kRecordEncodedSize = 49;

  static void encode_record(const HandoverRecord& record,
                            std::vector<std::uint8_t>& out);
  /// Throws std::runtime_error on a malformed payload.
  static HandoverRecord decode_record(std::span<const std::uint8_t> payload);
  static std::string segment_name(std::uint32_t index);
  /// Inverse of segment_name: false for any name segment_name would not
  /// produce (foreign files under the "wal-" prefix).
  static bool parse_segment_index(const std::string& name, std::uint32_t& index);

 private:
  /// What recovery needs to know about where a walk stopped, beyond the
  /// cursor and the TailReadResult.
  struct WalkEnd {
    /// Complete record frames past the last marker delivered.
    std::uint64_t unmarked_records = 0;
    /// Some segment header validated: the chain has a readable start.
    bool header_valid = false;
  };
  /// The one walk of the segment chain, behind follow(), replay() and
  /// open(): delivers committed days from `cursor` on, checks every marker
  /// against the frames before it, and stops where the committed prefix
  /// ends. A null `sink` counts record frames instead of decoding them.
  static TailReadResult walk(io::FileSystem& fs, const std::string& directory,
                             LogCursor& cursor, RecordSink* sink,
                             const FollowOptions& options, WalkEnd& end);
  void append_frame(std::uint8_t type, std::span<const std::uint8_t> payload);
  void roll_segment();
  /// Seal-time mirroring: copies the just-sealed segment into
  /// mirror_directory (atomic + CRC-verified). No-op when mirroring is off.
  void mirror_sealed_segment(std::uint32_t index);
  void write_segment_header(io::File& file, std::uint32_t index);
  std::string segment_path(std::uint32_t index) const;
  /// Epoch-checked obs handle refresh; called at open() and commit_day()
  /// (both single-threaded boundaries). Logs outlive registry swaps.
  void resolve_obs();
  /// Epoch-checked governor accountant refresh plus day-buffer capacity
  /// sync. Same boundaries as resolve_obs; on a governor swap the counted
  /// bytes restart from zero against the new slot (the obs contract: the
  /// old governor is gone, its totals with it).
  void sync_govern_account();

  io::FileSystem& fs_;
  Options options_;
  LogRecoveryReport recovery_;
  bool open_ = false;

  std::unique_ptr<io::File> current_;  // append handle for the tail segment
  std::uint32_t segment_index_ = 0;
  std::uint64_t segment_size_ = 0;

  int last_committed_day_ = -1;
  std::uint64_t committed_records_ = 0;

  std::vector<std::uint8_t> day_buffer_;  // framed records of the open day
  std::size_t buffered_records_ = 0;

  govern::Accountant govern_account_;  // day-buffer capacity, "wal_day_buffer"
  std::uint64_t govern_epoch_ = UINT64_MAX;
  std::uint64_t accounted_bytes_ = 0;

  std::uint64_t obs_epoch_ = UINT64_MAX;
  obs::Counter obs_bytes_;
  obs::Counter obs_records_;
  obs::Counter obs_fsyncs_;
  obs::Counter obs_segments_;
  obs::Counter obs_dropped_bytes_;
  obs::Counter obs_dropped_records_;
  obs::Histogram obs_commit_seconds_;
};

/// One step of a SegmentReader: the next frame, decoded, or the reason the
/// segment cannot be read past `offset`.
struct SegmentStep {
  enum Kind : std::uint8_t {
    kRecord,        ///< record frame (decoded only into next()'s buffer)
    kMarker,        ///< day marker; day/in_day/total/app_state hold it
    kEnd,           ///< end of data, exactly at a frame boundary
    kTruncated,     ///< header or frame runs past the end of data
    kBadHeader,     ///< segment header magic, index or CRC invalid
    kBadLength,     ///< frame length no real payload can have
    kBadCrc,        ///< complete frame whose CRC32C mismatches
    kBadStructure,  ///< unknown frame type or malformed record/marker
  };
  Kind kind = kEnd;
  std::uint64_t offset = 0;  ///< where the frame (or the unreadable bytes) start
  /// Frames: bytes including the frame header. Stops: the suspect range
  /// (the rest of the data when truncated, the frame header for a bad
  /// length, the whole frame for a bad CRC or structure).
  std::uint64_t length = 0;
  int day = -1;
  std::uint64_t in_day = 0;  ///< records the marker's day committed
  std::uint64_t total = 0;   ///< cumulative records through that day
  /// Embedded application state; valid until the next SegmentReader::next().
  std::span<const std::uint8_t> app_state;

  bool is_frame() const noexcept { return kind == kRecord || kind == kMarker; }
};

/// The pending-vs-torn rule for the bytes past a segment's last valid
/// frame, shared by the chain walk and the scrub audit. `stop` is how the
/// segment's read ended, `unmarked` says complete record frames follow its
/// last day marker, and `sealed` that a later segment exists (so this one
/// never grows again). kClean: the segment ends exactly at a commit.
TailState segment_end_state(SegmentStep::Kind stop, bool unmarked,
                            bool sealed) noexcept;

/// The one decoder of the WAL segment format, shared by the chain walk
/// (recovery, replay, tail-follow) and the scrub audit. Streams one frame
/// per next(): a 9-byte frame header read, then a payload read — never the
/// whole segment. Callers keep their own policy (what a stop means, marker
/// bookkeeping); the reader only says what the bytes are.
class SegmentReader {
 public:
  /// Opens segment `index` at `path` and samples its size once: bytes
  /// appended later are not seen. At `offset` 0 the first next() validates
  /// the segment header; a later offset (a frame boundary from an earlier
  /// read) resumes there without re-reading the header.
  SegmentReader(io::FileSystem& fs, const std::string& path,
                std::uint32_t index, std::uint64_t offset = 0);

  /// The next frame, or the stop that ends the segment (repeated on every
  /// later call). A record frame is decoded straight onto `records` when
  /// one is given, and not decoded at all otherwise.
  const SegmentStep& next(std::vector<HandoverRecord>* records = nullptr);

  std::uint64_t size() const noexcept { return size_; }
  /// Just past the last frame returned (the header, before any frame).
  std::uint64_t offset() const noexcept { return offset_; }
  bool past_header() const noexcept {
    return offset_ >= RecordLog::kSegmentHeaderSize;
  }

 private:
  const SegmentStep& stop(SegmentStep::Kind kind, std::uint64_t length);

  std::unique_ptr<io::File> file_;
  std::uint32_t index_;
  std::uint64_t size_;
  std::uint64_t offset_;
  bool stopped_ = false;
  std::vector<std::uint8_t> payload_;
  SegmentStep step_;
};

/// RecordSink adapter: buffers each simulated day into a RecordLog and
/// commits it at on_day_end. When a checkpoint provider is set (the
/// simulator installs one), its bytes ride inside the day marker, making
/// "records through day D" and "resume state after day D" one atomic unit.
class DurableRecordSink final : public RecordSink {
 public:
  using CheckpointProvider = std::function<std::vector<std::uint8_t>()>;

  /// `log` is borrowed; open() it before the first simulated day.
  explicit DurableRecordSink(RecordLog& log) : log_(log) {}

  void set_checkpoint_provider(CheckpointProvider provider) {
    provider_ = std::move(provider);
  }

  void consume(const HandoverRecord& record) override { log_.append(record); }
  void on_day_end(int day) override {
    std::vector<std::uint8_t> state;
    if (provider_) state = provider_();
    log_.commit_day(day, state);
  }

  RecordLog& log() noexcept { return log_; }
  const RecordLog& log() const noexcept { return log_; }

 private:
  RecordLog& log_;
  CheckpointProvider provider_;
};

}  // namespace tl::telemetry
