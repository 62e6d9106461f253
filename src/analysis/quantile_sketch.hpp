#pragma once

// QuantileSketch: a bounded-memory, mergeable, *deterministic* quantile /
// ECDF summary for streaming ingest (the piece Ecdf and ReservoirSample
// cannot provide: Ecdf retains every sample, ReservoirSample neither merges
// nor bounds rank error).
//
// The structure is the classic multi-level collapse sketch (Munro-Paterson /
// Manku-Rajagopalan-Lindsay): level i holds at most one sorted buffer of
// exactly k samples, each representing 2^i stream items. Inserts fill an
// unsorted base buffer; when it reaches k items it is sorted and promoted,
// collapsing pairwise up the levels. A collapse merge-sorts 2k items of
// weight w and keeps alternate elements (k items of weight 2w); the parity
// of the kept positions alternates per level, so the whole structure is a
// pure deterministic function of the input sequence — two sketches fed the
// same stream are byte-identical, which is what lets the serve-mode chaos
// harness demand bit-for-bit convergence after kill/recover.
//
// Error accounting is *certified*, not asymptotic: every buffer carries the
// absolute rank error of its summary (a collapse of buffers with errors
// e1, e2 at weight w produces e1 + e2 + w), and rank_error_bound() is the
// sum over live buffers divided by the count. For a stream of N items this
// works out to about levels/(2k) = O(log(N/k)/k); the bound reported is
// exact for the actual collapse history, and the property tests assert
// estimates never exceed it. Quantile queries add one unit of the heaviest
// buffer weight for discreteness (quantile_rank_error_bound()).
//
// Merging folds the other sketch's buffers into this one level-by-level
// (errors travel with the buffers), so merged bounds stay certified. Merge
// is deterministic given operand states but not bit-associative — different
// merge trees give different (all bound-respecting) states. count/min/max/
// sum/nan_count are exact under any merge order.
//
// NaN inputs follow analysis::Histogram's convention: routed to a dedicated
// nan tally, never into the sketch, never into count().
//
// Memory: stored_items() <= k * (1 + ceil(log2(N/k))) doubles plus O(1) per
// level — e.g. k=128, N=10^9: ~24 levels, ~3k doubles, ~25 KB per sketch.

#include <cstdint>
#include <span>
#include <vector>

namespace tl::analysis {

class QuantileSketch {
 public:
  static constexpr std::size_t kDefaultK = 256;

  /// `k` is the per-level buffer capacity; must be even and >= 4 (throws
  /// std::invalid_argument otherwise). Larger k = tighter rank error.
  explicit QuantileSketch(std::size_t k = kDefaultK);

  /// Streams one sample. NaN goes to the nan tally (Histogram convention).
  void insert(double x);

  /// Folds `other` into this sketch. Both must share the same k (throws
  /// std::logic_error otherwise). Exact fields stay exact; the certified
  /// error bound grows by other's. Self-merge doubles the sketch.
  void merge(const QuantileSketch& other);

  std::uint64_t count() const noexcept { return count_; }      ///< finite inserts
  std::uint64_t nan_count() const noexcept { return nan_count_; }
  std::size_t k() const noexcept { return k_; }
  bool empty() const noexcept { return count_ == 0; }
  /// Exact extremes / sum over all finite inserts; NaN when empty.
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }
  double mean() const noexcept;

  /// Estimated F(x) = fraction of samples <= x, within rank_error_bound().
  /// Throws std::logic_error when empty.
  double cdf(double x) const;

  /// Estimated quantile: smallest retained value whose estimated rank
  /// reaches q*count(), q in [0,1] (throws std::invalid_argument outside,
  /// std::logic_error when empty). The true rank of the returned value is
  /// within quantile_rank_error_bound()*count() of q*count().
  double quantile(double q) const;

  /// Certified normalized rank error of cdf(): max |cdf(x) - F(x)|.
  double rank_error_bound() const noexcept;
  /// cdf() bound plus one heaviest-buffer weight of discreteness — the
  /// guarantee quantile() queries carry.
  double quantile_rank_error_bound() const noexcept;

  /// Retained samples across all buffers (the memory footprint in doubles).
  std::size_t stored_items() const noexcept;
  /// Number of collapse levels currently allocated.
  std::size_t levels() const noexcept { return levels_.size(); }

  /// Compact ECDF curve over `points` evenly spaced ranks (for reports).
  struct CurvePoint {
    double x;
    double f;
  };
  std::vector<CurvePoint> curve(std::size_t points) const;

  /// Largest k a serialized sketch may declare: far beyond any state this
  /// process could hold, it bounds what a forged image can make a decoder
  /// allocate.
  static constexpr std::size_t kMaxK = std::size_t{1} << 20;

  /// Deterministic byte serialization: two sketches with identical state
  /// produce identical bytes (the chaos harness compares these directly).
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Inverse of serialize(); consumes exactly one sketch from the front of
  /// `bytes` and advances `offset`. Validates structure (sorted buffers,
  /// weighted-count conservation) and throws std::runtime_error on any
  /// malformed input.
  static QuantileSketch deserialize(std::span<const std::uint8_t> bytes,
                                    std::size_t& offset);
  static QuantileSketch deserialize(std::span<const std::uint8_t> bytes);

 private:
  struct Level {
    std::vector<double> items;   ///< sorted, size k when occupied, else empty
    std::uint64_t error = 0;     ///< certified absolute rank error (occupied)
    std::uint8_t parity = 0;     ///< alternating collapse offset, persists
  };

  /// Places a sorted weight-2^level buffer, collapsing up as needed.
  void promote(std::vector<double> buffer, std::size_t level, std::uint64_t error);
  /// Estimated absolute rank of x (weighted count of samples <= x).
  double estimated_rank(double x) const noexcept;
  /// Sum of live buffer errors (absolute ranks).
  std::uint64_t total_error() const noexcept;
  /// Weight of the heaviest occupied buffer (1 when only the base holds data).
  std::uint64_t heaviest_weight() const noexcept;
  /// All retained (value, weight) pairs sorted by value.
  std::vector<std::pair<double, std::uint64_t>> weighted_sorted() const;

  std::size_t k_;
  std::uint64_t count_ = 0;
  std::uint64_t nan_count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::vector<double> base_;   ///< unsorted level "-1", weight 1, error 0
  std::vector<Level> levels_;
};

}  // namespace tl::analysis
