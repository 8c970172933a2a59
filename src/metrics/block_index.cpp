#include "metrics/block_index.h"

#include <algorithm>

#include "metrics/trace_view.h"

namespace histpc::metrics {

using simmpi::IntervalState;

namespace {

constexpr std::size_t kSyncWaitState = static_cast<std::size_t>(IntervalState::SyncWait);

/// Which interval states contribute to a metric (mirrors the state switch
/// in FocusFilter::matches; same table as IntervalIndex).
std::array<bool, 3> accepted_states(MetricKind metric) {
  switch (metric) {
    case MetricKind::CpuTime: return {true, false, false};
    case MetricKind::SyncWaitTime: return {false, true, false};
    case MetricKind::IoWaitTime: return {false, false, true};
    case MetricKind::ExecTime: return {true, true, true};
  }
  return {false, false, false};
}

void set_bit(std::uint64_t* words, std::size_t bit) {
  words[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

}  // namespace

BlockIndex::BlockIndex(const simmpi::ExecutionTrace& trace,
                       const simmpi::TraceColumns* columns, std::size_t block_size)
    : block_size_(std::max<std::size_t>(1, block_size)) {
  const std::size_t nfuncs = trace.functions.size();
  fwords_ = (nfuncs + 1 + 63) / 64;  // +1: trailing no-function slot
  swords_ = (trace.sync_objects.size() + 63) / 64;
  const bool adopt = columns != nullptr && columns->matches(trace);

  ranks_.resize(trace.ranks.size());
  for (std::size_t r = 0; r < trace.ranks.size(); ++r) {
    RankBlocks& rb = ranks_[r];
    rb.nintervals = trace.ranks[r].intervals.size();
    const std::size_t nblocks = (rb.nintervals + block_size_ - 1) / block_size_;
    rb.max_t1.assign(nblocks, 0.0);
    for (auto& c : rb.state_total) c.assign(nblocks, 0.0);
    rb.func_words.assign(nblocks * fwords_, 0);
    rb.sync_words.assign(nblocks * swords_, 0);
    auto add = [&](std::size_t i, double t0, double t1, std::size_t state,
                   simmpi::FuncId func, simmpi::SyncObjectId sync) {
      const std::size_t b = i / block_size_;
      rb.max_t1[b] = t1;  // t1 is non-decreasing: the block's last wins
      rb.state_total[state][b] += t1 - t0;
      set_bit(rb.func_words.data() + b * fwords_,
              func == simmpi::kNoFunc ? nfuncs : static_cast<std::size_t>(func));
      if (state == kSyncWaitState && sync != simmpi::kNoSyncObject)
        set_bit(rb.sync_words.data() + b * swords_, static_cast<std::size_t>(sync));
    };
    if (adopt) {
      const simmpi::RankColumns& rc = columns->ranks[r];
      for (std::size_t i = 0; i < rb.nintervals; ++i)
        add(i, rc.t0[i], rc.t1[i], rc.state[i], rc.func[i], rc.sync[i]);
    } else {
      const auto& ivs = trace.ranks[r].intervals;
      for (std::size_t i = 0; i < rb.nintervals; ++i)
        add(i, ivs[i].t0, ivs[i].t1, static_cast<std::size_t>(ivs[i].state), ivs[i].func,
            ivs[i].sync_object);
    }
  }
}

std::size_t BlockIndex::block_end(int rank, std::size_t b) const {
  return std::min(ranks_[static_cast<std::size_t>(rank)].nintervals, (b + 1) * block_size_);
}

bool BlockIndex::block_may_contribute(int rank, std::size_t b, const FocusFilter& filter,
                                      MetricKind metric) const {
  const RankBlocks& rb = ranks_[static_cast<std::size_t>(rank)];
  // States that can contribute: the metric's, narrowed to SyncWait when
  // the filter is sync-constrained (only SyncWait intervals carrying a
  // selected object can match). Zero time in them → zero contribution
  // (zero-duration intervals clip to zero in every evaluation path).
  auto states = accepted_states(metric);
  if (!filter.sync_unconstrained) states[0] = states[2] = false;
  double total = 0.0;
  for (std::size_t s = 0; s < kNumStates; ++s)
    if (states[s]) total += rb.state_total[s][b];
  if (total == 0.0) return false;

  // Function coverage: no interval's function slot is accepted → nothing
  // in the block can match, whatever its state.
  const std::uint64_t* fw = rb.func_words.data() + b * fwords_;
  std::uint64_t hit = 0;
  for (std::size_t w = 0; w < fwords_; ++w) hit |= fw[w] & filter.func_words[w];
  if (hit == 0) return false;

  if (!filter.sync_unconstrained) {
    const std::uint64_t* sw = rb.sync_words.data() + b * swords_;
    std::uint64_t shit = 0;
    for (std::size_t w = 0; w < swords_; ++w) shit |= sw[w] & filter.sync_words[w];
    if (shit == 0) return false;
  }
  return true;
}

}  // namespace histpc::metrics
