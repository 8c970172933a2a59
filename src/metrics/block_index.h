// BlockIndex: per-block skip summaries over each rank's intervals, the
// fast path of MetricBatch.
//
// Per rank, intervals are grouped into fixed-size blocks of consecutive
// postings; each block stores
//
//  * its last t1 (t1 is non-decreasing, ExecutionTrace::validate),
//  * the total duration per interval state,
//  * coverage bitmaps: which FuncIds (plus a trailing no-function slot)
//    and which sync objects appear in the block,
//
// so MetricBatch can prove, without touching a block's intervals, that a
// slot gains nothing from it: the accepted states hold zero time, or the
// filter's function/sync words miss every interval in the block. Only
// exactly-zero contributions are elided, so diagnosis values stay
// bit-identical to the plain interval walk (property-tested against the
// MetricInstance scan in block_max_test.cpp). Nothing is kept per interval.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "metrics/metric.h"
#include "simmpi/trace.h"

namespace histpc::metrics {

struct FocusFilter;

class BlockIndex {
 public:
  /// Postings per block. 128 keeps a block's summary row in one cache line
  /// neighbourhood while amortizing the classification to <1% of a block's
  /// interval work.
  static constexpr std::size_t kDefaultBlockSize = 128;

  /// Builds the summaries in one linear pass, reading `columns` when they
  /// mirror the trace (e.g. decoded from a binary snapshot on a trace-cache
  /// hit) and the trace's intervals otherwise. `block_size` must be >= 1.
  explicit BlockIndex(const simmpi::ExecutionTrace& trace,
                      const simmpi::TraceColumns* columns = nullptr,
                      std::size_t block_size = kDefaultBlockSize);

  std::size_t block_size() const { return block_size_; }

  /// Interval position one past block `b`'s last interval on `rank`.
  std::size_t block_end(int rank, std::size_t b) const;
  double block_max_t1(int rank, std::size_t b) const {
    return ranks_[static_cast<std::size_t>(rank)].max_t1[b];
  }
  /// True unless the summary proves no interval in the block can
  /// contribute to (filter, metric). A false return is a proof of zero
  /// contribution for any time window.
  bool block_may_contribute(int rank, std::size_t b, const FocusFilter& filter,
                            MetricKind metric) const;

 private:
  static constexpr std::size_t kNumStates = 3;  // Cpu, SyncWait, IoWait

  /// Per-block summaries, indexed [block] (word bitmaps [block * words]).
  struct RankBlocks {
    std::size_t nintervals = 0;
    std::vector<double> max_t1;
    std::array<std::vector<double>, kNumStates> state_total;
    std::vector<std::uint64_t> func_words;
    std::vector<std::uint64_t> sync_words;
  };

  std::size_t block_size_;
  std::size_t fwords_ = 1;  ///< words per block func bitmap (nfuncs+1 bits)
  std::size_t swords_ = 0;  ///< words per block sync bitmap
  std::vector<RankBlocks> ranks_;
};

}  // namespace histpc::metrics
