#include "telemetry/scrub.hpp"

#include <algorithm>

#include "util/crc32c.hpp"

namespace tl::telemetry {
namespace {

std::string seg_path(const std::string& dir, std::uint32_t index) {
  return dir + "/" + RecordLog::segment_name(index);
}

/// Maps an audit's first defect into a SegmentDefect entry.
SegmentDefect defect_from(const SegmentAudit& a, bool in_mirror,
                          std::string detail) {
  SegmentDefect d;
  d.segment = a.index;
  d.in_mirror = in_mirror;
  if (!a.exists) {
    d.defect = DefectClass::kChainGap;
  } else if (!a.header_valid) {
    d.defect = DefectClass::kBadSegmentHeader;
    d.length = std::min<std::uint64_t>(a.size, RecordLog::kSegmentHeaderSize);
  } else if (a.has_defect) {
    d.defect = a.defect;
    d.offset = a.defect_offset;
    d.length = a.defect_length;
  } else {
    // Fully CRC-valid but not commit-terminated: a sealed segment must end
    // at a day marker (rolls are commit-aligned), so truncation ate its
    // tail without leaving an invalid byte.
    d.defect = DefectClass::kNoSealMarker;
    d.offset = a.valid_bytes;
  }
  d.detail = std::move(detail);
  return d;
}

}  // namespace

const char* to_string(DefectClass defect) noexcept {
  switch (defect) {
    case DefectClass::kBadSegmentHeader: return "bad segment header";
    case DefectClass::kBadFrameCrc: return "frame CRC mismatch";
    case DefectClass::kTruncatedFrame: return "truncated frame";
    case DefectClass::kBadFrameStructure: return "bad frame structure";
    case DefectClass::kMarkerMismatch: return "marker count mismatch";
    case DefectClass::kNoSealMarker: return "sealed segment missing its seal marker";
    case DefectClass::kChainGap: return "segment missing from chain";
    case DefectClass::kMirrorMissing: return "mirror replica missing";
    case DefectClass::kMirrorDiverged: return "mirror replica diverged";
  }
  return "?";
}

const char* to_string(RepairAction action) noexcept {
  switch (action) {
    case RepairAction::kPrimaryRestored: return "primary restored from mirror";
    case RepairAction::kMirrorRestored: return "mirror restored from primary";
    case RepairAction::kQuarantined: return "quarantined (both copies damaged)";
  }
  return "?";
}

SegmentAudit audit_segment(io::FileSystem& fs, const std::string& path,
                           std::uint32_t expect_index) {
  SegmentAudit a;
  a.index = expect_index;
  if (!fs.exists(path)) return a;
  a.exists = true;
  SegmentReader reader{fs, path, expect_index};
  a.size = reader.size();

  std::uint64_t records_since_marker = 0;
  auto fail = [&](DefectClass defect, const SegmentStep& step) {
    a.has_defect = true;
    a.defect = defect;
    a.defect_offset = step.offset;
    a.defect_length = step.length;
  };
  for (;;) {
    const SegmentStep& step = reader.next();
    // A bad header leaves header_valid false: nothing after it is
    // trustworthy.
    if (!reader.past_header()) {
      a.stop = step.kind;
      return a;
    }
    a.header_valid = true;
    a.valid_bytes = step.offset;  // everything before this step verified
    if (!step.is_frame()) {
      a.stop = step.kind;
      if (step.kind != SegmentStep::kEnd) {
        fail(step.kind == SegmentStep::kTruncated ? DefectClass::kTruncatedFrame
             : step.kind == SegmentStep::kBadCrc  ? DefectClass::kBadFrameCrc
                                                  : DefectClass::kBadFrameStructure,
             step);
      }
      return a;
    }
    ++a.frames;
    a.ends_at_marker = false;
    if (step.kind == SegmentStep::kRecord) {
      ++a.records;
      ++records_since_marker;
      continue;
    }
    // Within one segment the marker arithmetic is fully checkable: each
    // day's count must match the frames since the previous marker, each
    // total must advance by exactly that count, and days must ascend.
    if (step.in_day != records_since_marker ||
        (a.markers > 0 &&
         (step.total != a.last_total + step.in_day || step.day <= a.last_day))) {
      a.stop = SegmentStep::kBadStructure;
      fail(DefectClass::kMarkerMismatch, step);
      return a;
    }
    if (a.markers == 0) {
      a.first_day = step.day;
      a.first_in_day = step.in_day;
      a.first_total = step.total;
    }
    ++a.markers;
    a.last_day = step.day;
    a.last_total = step.total;
    a.ends_at_marker = true;
    records_since_marker = 0;
  }
}

LogScrubber::LogScrubber(io::FileSystem& fs, ScrubOptions options)
    : fs_(fs), options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument{"LogScrubber: empty directory"};
  }
}

ScrubReport LogScrubber::run() {
  ScrubReport report;
  const std::vector<std::string> names = fs_.list(options_.directory, "wal-");
  std::uint32_t lo = UINT32_MAX, hi = 0;
  for (const std::string& name : names) {
    std::uint32_t index = 0;
    if (!RecordLog::parse_segment_index(name, index)) continue;  // foreign file
    lo = std::min(lo, index);
    hi = std::max(hi, index);
  }
  if (lo == UINT32_MAX) return report;  // empty chain: vacuously clean
  report.base = lo;
  report.tail_index = hi;
  report.has_tail = true;
  const bool mirrored = !options_.mirror_directory.empty();

  for (std::uint32_t index = lo; index <= hi; ++index) {
    const bool sealed = index < hi;
    SegmentAudit a =
        audit_segment(fs_, seg_path(options_.directory, index), index);
    if (a.exists) {
      ++report.segments_scanned;
      report.bytes_scanned += a.size;
      report.frames_scanned += a.frames;
      report.records_scanned += a.records;
      report.markers_scanned += a.markers;
    }
    if (a.markers > 0) {
      if (report.first_day < 0) report.first_day = a.first_day;
      report.last_day = std::max(report.last_day, a.last_day);
    }
    if (sealed) {
      ++report.sealed_segments;
      if (!a.clean_sealed()) {
        report.defects.push_back(
            defect_from(a, false, seg_path(options_.directory, index)));
      } else if (!report.audits.empty() && report.audits.back().clean_sealed()) {
        // Cross-segment chain arithmetic: this segment's first marker must
        // continue the previous clean segment's cumulative total (both are
        // absolute counts, so this holds even on a retention-pruned chain).
        const SegmentAudit& prev = report.audits.back();
        if (a.first_total - a.first_in_day != prev.last_total ||
            a.first_day <= prev.last_day) {
          SegmentDefect d;
          d.segment = index;
          d.defect = DefectClass::kMarkerMismatch;
          d.detail = "first marker disagrees with " +
                     RecordLog::segment_name(prev.index) + " totals";
          report.defects.push_back(std::move(d));
        }
      }
    } else {
      // The active tail: the writer owns its irregularities, classified by
      // the chain walk's own pending-vs-torn rule. A missing tail is a gap
      // at the chain's end.
      report.tail_suspect_bytes = a.size - a.valid_bytes;
      report.tail_state =
          a.exists ? segment_end_state(a.stop, a.frames > 0 && !a.ends_at_marker,
                                       false)
                   : TailState::kTorn;
    }
    report.audits.push_back(std::move(a));

    if (mirrored && sealed) {
      SegmentAudit m = audit_segment(
          fs_, seg_path(options_.mirror_directory, index), index);
      if (m.exists) {
        ++report.mirror_segments_scanned;
        report.bytes_scanned += m.size;
      }
      const SegmentAudit& p = report.audits.back();
      if (!m.exists) {
        SegmentDefect d;
        d.segment = index;
        d.in_mirror = true;
        d.defect = DefectClass::kMirrorMissing;
        d.detail = seg_path(options_.mirror_directory, index);
        report.defects.push_back(std::move(d));
      } else if (!m.clean_sealed()) {
        report.defects.push_back(
            defect_from(m, true, seg_path(options_.mirror_directory, index)));
      } else if (p.clean_sealed() &&
                 (m.size != p.size || m.last_total != p.last_total ||
                  file_crc32c(fs_, seg_path(options_.mirror_directory, index)) !=
                      file_crc32c(fs_, seg_path(options_.directory, index)))) {
        SegmentDefect d;
        d.segment = index;
        d.in_mirror = true;
        d.defect = DefectClass::kMirrorDiverged;
        d.detail = seg_path(options_.mirror_directory, index);
        report.defects.push_back(std::move(d));
      }
      report.mirror_audits.push_back(std::move(m));
    }
  }
  return report;
}

LogIntegrity::LogIntegrity(io::FileSystem& fs, ScrubOptions options)
    : fs_(fs), options_(std::move(options)) {
  if (options_.directory.empty()) {
    throw std::invalid_argument{"LogIntegrity: empty directory"};
  }
}

void LogIntegrity::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs::MetricsRegistry* reg = obs::global_registry();
  if (reg == nullptr) {
    obs_scrub_runs_ = {};
    obs_scrub_segments_ = {};
    obs_scrub_bytes_ = {};
    obs_scrub_defects_ = {};
    obs_repair_primary_ = {};
    obs_repair_mirror_ = {};
    obs_repair_quarantined_ = {};
    obs_repair_records_lost_ = {};
    return;
  }
  obs_scrub_runs_ = reg->counter("tl_scrub_runs_total", "Scrub passes executed");
  obs_scrub_segments_ = reg->counter("tl_scrub_segments_total",
                                     "Segment files audited by scrub");
  obs_scrub_bytes_ =
      reg->counter("tl_scrub_bytes_total", "Bytes CRC-verified by scrub");
  obs_scrub_defects_ = reg->counter("tl_scrub_defects_total",
                                    "Latent defects detected by scrub");
  obs_repair_primary_ = reg->counter(
      "tl_repair_primary_restored_total",
      "Damaged primary segments restored from their mirror replica");
  obs_repair_mirror_ = reg->counter(
      "tl_repair_mirror_restored_total",
      "Missing/damaged mirror replicas restored from their primary");
  obs_repair_quarantined_ =
      reg->counter("tl_repair_segments_quarantined_total",
                   "Sealed segments certified lost (both copies damaged)");
  obs_repair_records_lost_ =
      reg->counter("tl_repair_records_lost_total",
                   "Committed records inside quarantined day ranges");
}

IntegrityReport LogIntegrity::check_and_repair() {
  resolve_obs();
  IntegrityReport report;
  report.scrub = LogScrubber{fs_, options_}.run();
  obs_scrub_runs_.inc();
  obs_scrub_segments_.inc(report.scrub.segments_scanned +
                          report.scrub.mirror_segments_scanned);
  obs_scrub_bytes_.inc(report.scrub.bytes_scanned);
  obs_scrub_defects_.inc(report.scrub.defects.size());
  if (!report.scrub.has_tail) return report;

  const bool mirrored = !options_.mirror_directory.empty();
  // A wholly lost replica directory must not wedge mirror restoration.
  if (mirrored) fs_.create_directories(options_.mirror_directory);
  const std::uint32_t base = report.scrub.base;
  const std::uint32_t tail = report.scrub.tail_index;

  // Effective post-repair audits of the sealed chain, used below as marker
  // anchors for quarantine accounting. nullptr = segment certified lost.
  std::vector<const SegmentAudit*> effective(tail - base, nullptr);

  for (std::uint32_t index = base; index < tail; ++index) {
    const std::size_t slot = index - base;
    const SegmentAudit& p = report.scrub.audits[slot];
    const SegmentAudit* m =
        mirrored ? &report.scrub.mirror_audits[slot] : nullptr;
    const std::string primary_path = seg_path(options_.directory, index);
    const std::string mirror_path =
        mirrored ? seg_path(options_.mirror_directory, index) : std::string{};

    if (p.clean_sealed()) {
      effective[slot] = &p;
      if (mirrored &&
          (!m->clean_sealed() || m->size != p.size ||
           m->last_total != p.last_total ||
           file_crc32c(fs_, mirror_path) != file_crc32c(fs_, primary_path))) {
        RepairEvent event;
        event.action = RepairAction::kMirrorRestored;
        event.segment = index;
        event.first_day = p.first_day;
        event.last_day = p.last_day;
        event.crc32c = copy_file_atomic(fs_, primary_path, mirror_path);
        event.detail = m->exists ? "mirror diverged/damaged" : "mirror missing";
        report.events.push_back(std::move(event));
        obs_repair_mirror_.inc();
      }
      continue;
    }
    if (mirrored && m->clean_sealed()) {
      RepairEvent event;
      event.action = RepairAction::kPrimaryRestored;
      event.segment = index;
      event.first_day = m->first_day;
      event.last_day = m->last_day;
      event.crc32c = copy_file_atomic(fs_, mirror_path, primary_path);
      event.detail =
          std::string{"primary "} + to_string(defect_from(p, false, {}).defect);
      report.events.push_back(std::move(event));
      obs_repair_primary_.inc();
      // The restored primary is byte-identical to the clean mirror, so the
      // mirror's audit now describes the primary too.
      effective[slot] = m;
      continue;
    }
    // Both copies damaged (or no mirror exists to repair from): the segment
    // run is certified lost; readers skip it with exact accounting.
    report.quarantined_segments.push_back(index);
  }

  // Group contiguous quarantined segments and anchor each run's accounting
  // on the surviving neighbours' marker totals: records lost inside the run
  // = (first total after the run minus its own day's count) - (last total
  // before the run).
  const SegmentAudit* tail_audit = &report.scrub.audits.back();
  for (std::size_t i = 0; i < report.quarantined_segments.size();) {
    std::size_t j = i;
    while (j + 1 < report.quarantined_segments.size() &&
           report.quarantined_segments[j + 1] ==
               report.quarantined_segments[j] + 1) {
      ++j;
    }
    const std::uint32_t run_first = report.quarantined_segments[i];
    const std::uint32_t run_last = report.quarantined_segments[j];

    bool prev_known = false;
    std::uint64_t prev_total = 0;
    int prev_day = -1;
    if (run_first == base) {
      // Nothing survives before the run; with an unpruned chain the totals
      // still anchor at zero (the chain demonstrably started at 0 records).
      prev_known = base == 0;
    } else if (const SegmentAudit* prev = effective[run_first - 1 - base]) {
      prev_known = prev->markers > 0;
      prev_total = prev->last_total;
      prev_day = prev->last_day;
    }

    bool next_known = false;
    std::uint64_t next_first_total = 0, next_first_in_day = 0;
    int next_day = -1;
    const SegmentAudit* next = run_last + 1 == tail
                                   ? tail_audit
                                   : effective[run_last + 1 - base];
    if (next != nullptr && next->header_valid && next->markers > 0) {
      // A tail anchor is usable as long as it carries at least one marker:
      // markers only count inside the CRC-verified prefix.
      next_known = true;
      next_first_total = next->first_total;
      next_first_in_day = next->first_in_day;
      next_day = next->first_day;
    }

    RepairEvent event;
    event.action = RepairAction::kQuarantined;
    event.segment = run_first;
    event.exact = prev_known && next_known;
    if (prev_day >= 0) event.first_day = prev_day + 1;
    if (next_known) event.last_day = next_day - 1;
    if (event.exact) {
      event.records_dropped = next_first_total - next_first_in_day - prev_total;
    }
    event.detail = run_first == run_last
                       ? RecordLog::segment_name(run_first)
                       : RecordLog::segment_name(run_first) + ".." +
                             RecordLog::segment_name(run_last);
    report.records_lost += event.records_dropped;
    report.accounting_exact = report.accounting_exact && event.exact;
    if (event.first_day >= 0 &&
        (report.quarantine_first_day < 0 ||
         event.first_day < report.quarantine_first_day)) {
      report.quarantine_first_day = event.first_day;
    }
    if (event.last_day >= 0) {
      report.quarantine_last_day =
          std::max(report.quarantine_last_day, event.last_day);
    }
    obs_repair_quarantined_.inc(run_last - run_first + 1);
    obs_repair_records_lost_.inc(event.records_dropped);
    report.events.push_back(std::move(event));
    i = j + 1;
  }
  return report;
}

std::uint32_t file_crc32c(io::FileSystem& fs, const std::string& path) {
  // Streamed: a segment is up to max_segment_bytes, never held whole.
  std::uint64_t left = fs.file_size(path);
  auto file = fs.open(path, io::OpenMode::kRead);
  std::vector<std::uint8_t> chunk(std::min<std::uint64_t>(left, 64 * 1024));
  util::Crc32c crc;
  while (left > 0) {
    const std::size_t n = file->read(
        chunk.data(), static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk.size())));
    if (n == 0) throw io::IoError{"scrub: short read of " + path};
    crc.update(chunk.data(), n);
    left -= n;
  }
  return crc.value();
}

std::uint32_t copy_file_atomic(io::FileSystem& fs, const std::string& src,
                               const std::string& dst) {
  io::write_file_atomic(fs, dst, io::read_file(fs, src));
  // Trust nothing: the repair is only a repair if the bytes now on disk
  // hash the same as a second, independent read of the source. Hashing the
  // bytes just copied would miss a transient fault in the source read: a
  // flipped copy verifies against itself.
  const std::uint32_t want = file_crc32c(fs, src);
  const std::uint32_t got = file_crc32c(fs, dst);
  if (got != want) {
    throw io::IoError{"segment copy verification failed: " + dst};
  }
  return got;
}

}  // namespace tl::telemetry
