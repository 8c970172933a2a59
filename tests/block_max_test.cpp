// Property and unit tests for the block skip summaries (BlockIndex) and
// MetricBatch's block-skip fast path.
//
//  * MetricBatch with block skipping stays bit-identical to the
//    per-instance scan (the skip path elides only provably-zero work), and
//    its telemetry records nonzero skips for narrow probes;
//  * the summaries are exact at one interval per block, cover a whole rank
//    at one block per rank, and are the same whether built from the
//    trace's intervals or from snapshot-decoded columns.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/block_index.h"
#include "metrics/metric_batch.h"
#include "metrics/metric_instance.h"
#include "metrics/trace_view.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "telemetry/registry.h"
#include "util/rng.h"

namespace histpc::metrics {
namespace {

using resources::Focus;
using simmpi::FunctionScope;
using simmpi::Recorder;

// ------------------------------------------------- random trace generation
// (same generator shape as metric_engine_test: every interval state and
// sync-object kind appears, functions cluster per round so block summaries
// actually discriminate).

struct RoundSpec {
  std::vector<int> func_of_rank;  ///< index into the pool, -1 = unscoped
  std::vector<double> compute;
  std::vector<double> io;  ///< 0 = no I/O this round
  int comm = 0;            ///< 0 = none, 1 = pairwise messages, 2 = barrier
  int tag = 0;
};

constexpr std::pair<const char*, const char*> kFuncPool[] = {
    {"kernel", "kern.c"}, {"solver", "kern.c"},     {"exchange", "comm.c"},
    {"pack", "comm.c"},   {"checkpoint", "disk.c"}, {"main", "main.c"},
};
constexpr int kPoolSize = static_cast<int>(std::size(kFuncPool));

simmpi::ExecutionTrace random_trace(util::Rng& rng) {
  const int nranks = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  const int nrounds = 6 + static_cast<int>(rng.next_below(10));

  std::vector<RoundSpec> rounds(static_cast<std::size_t>(nrounds));
  for (auto& round : rounds) {
    for (int r = 0; r < nranks; ++r) {
      round.func_of_rank.push_back(rng.next_double() < 0.15
                                       ? -1
                                       : static_cast<int>(rng.next_below(kPoolSize)));
      round.compute.push_back(rng.uniform(0.01, 0.6));
      round.io.push_back(rng.next_double() < 0.3 ? rng.uniform(0.01, 0.2) : 0.0);
    }
    const double p = rng.next_double();
    round.comm = p < 0.4 ? 1 : (p < 0.6 ? 2 : 0);
    round.tag = 1 + static_cast<int>(rng.next_below(3));
  }

  simmpi::MachineSpec m = simmpi::MachineSpec::one_to_one(nranks, "node", "proc");
  simmpi::ProgramBuilder b(m);
  b.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (const RoundSpec& round : rounds) {
      const auto rank = static_cast<std::size_t>(r.rank());
      const int f = round.func_of_rank[rank];
      if (f >= 0) {
        FunctionScope scope(r, kFuncPool[f].first, kFuncPool[f].second);
        r.compute(round.compute[rank]);
      } else {
        r.compute(round.compute[rank]);
      }
      if (round.io[rank] > 0) r.io(round.io[rank]);
      if (round.comm == 1 && nranks > 1) {
        if (r.rank() % 2 == 0 && r.rank() + 1 < r.size())
          r.send(r.rank() + 1, round.tag, 1 << 12);
        else if (r.rank() % 2 == 1)
          r.recv(r.rank() - 1, round.tag);
      } else if (round.comm == 2) {
        r.barrier();
      }
    }
  });
  return simmpi::Simulator().run(b.build());
}

Focus random_focus(util::Rng& rng, const TraceView& view) {
  const simmpi::ExecutionTrace& trace = view.trace();
  Focus f = Focus::whole_program(view.resources());

  const double code = rng.next_double();
  if (code < 0.4 && !trace.functions.empty()) {
    const auto& fi = trace.functions[rng.next_below(trace.functions.size())];
    f = f.with_part(0, "/Code/" + fi.module + "/" + fi.function);
  } else if (code < 0.6 && !trace.functions.empty()) {
    const auto& fi = trace.functions[rng.next_below(trace.functions.size())];
    f = f.with_part(0, "/Code/" + fi.module);
  }

  const double where = rng.next_double();
  if (where < 0.25) {
    f = f.with_part(1, "/Machine/" +
                           trace.machine.node_names[rng.next_below(
                               trace.machine.node_names.size())]);
  } else if (where < 0.5) {
    f = f.with_part(2, "/Process/" +
                           trace.machine.process_names[rng.next_below(
                               trace.machine.process_names.size())]);
  }

  const double sync = rng.next_double();
  if (sync < 0.25 && !trace.sync_objects.empty()) {
    f = f.with_part(3, "/SyncObject/" +
                           trace.sync_objects[rng.next_below(trace.sync_objects.size())]);
  } else if (sync < 0.35) {
    f = f.with_part(3, "/SyncObject/Message");
  }
  return f;
}

// --------------------- batch skip path == per-instance scan (bit-identical)

TEST(BlockMaxProperty, BatchWithBlockSkippingIsBitIdenticalToInstances) {
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    util::Rng rng(seed);
    const simmpi::ExecutionTrace trace = random_trace(rng);
    const TraceView view(trace);

    MetricBatch batch(view);
    std::vector<MetricInstance> instances;
    std::vector<MetricBatch::SlotId> slots;

    double now = 0.0;
    int added = 0;
    while (now < trace.duration) {
      const int join = static_cast<int>(rng.next_below(3));
      for (int j = 0; j < join && added < 12; ++j, ++added) {
        const Focus focus = random_focus(rng, view);
        const FocusFilter& filter = view.compiled(focus);
        const MetricKind metric = kAllMetrics[rng.next_below(std::size(kAllMetrics))];
        const double start = now + rng.uniform(0.0, 0.4);
        slots.push_back(batch.add(metric, filter, start));
        instances.emplace_back(view, metric, filter, start);
      }
      now += rng.uniform(0.05, 0.9);
      batch.advance_all(now);
      for (auto& inst : instances) inst.advance(now);
      for (std::size_t k = 0; k < slots.size(); ++k)
        EXPECT_DOUBLE_EQ(batch.value(slots[k]), instances[k].value()) << "seed " << seed;
    }
  }
}

TEST(BlockMax, BatchTelemetryRecordsBlockSkips) {
  // One big advance with probes that can never match anything (a sync
  // constraint on CpuTime) forces every whole block to be skipped.
  util::Rng rng(99);
  const simmpi::ExecutionTrace trace = random_trace(rng);
  const TraceView view(trace);
  ASSERT_FALSE(trace.sync_objects.empty());
  const Focus narrow = Focus::whole_program(view.resources())
                           .with_part(3, "/SyncObject/" + trace.sync_objects[0]);
  telemetry::Registry registry;
  MetricBatch batch(view, &registry);
  batch.add(MetricKind::CpuTime, view.compiled(narrow), 0.0);
  batch.advance_all(trace.duration + 1.0);
  EXPECT_GT(registry.counter("metrics.batch.blocks_considered"), 0u);
  EXPECT_EQ(registry.counter("metrics.batch.blocks_skipped"),
            registry.counter("metrics.batch.blocks_considered"));
}

// ------------------------------------------------------------ unit tests

/// Fixed two-rank trace: rank 0 computes 2s in kernel then sends; rank 1
/// waits ~2s, computes 1s, does 0.5s of I/O.
simmpi::ExecutionTrace small_trace() {
  simmpi::MachineSpec m = simmpi::MachineSpec::one_to_one(2, "node", "proc");
  simmpi::ProgramBuilder b(m);
  b.record([](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    if (r.rank() == 0) {
      {
        FunctionScope f(r, "kernel", "kern.c");
        r.compute(2.0);
      }
      r.send(1, 5, 100);
      r.compute(1.5);
    } else {
      r.recv(0, 5);
      r.compute(1.0);
      r.io(0.5);
    }
  });
  simmpi::NetworkModel net;
  net.latency = 0.0;
  net.bytes_per_second = 1e9;
  return simmpi::Simulator(net).run(b.build());
}

class BlockMaxUnit : public testing::Test {
 protected:
  BlockMaxUnit() : trace_(small_trace()), view_(trace_) {}
  simmpi::ExecutionTrace trace_;
  TraceView view_;
};

/// Foci over small_trace() spanning every filter shape the summaries test:
/// unconstrained, one function, one rank, and one sync object.
std::vector<Focus> unit_foci(const TraceView& view) {
  const Focus whole = Focus::whole_program(view.resources());
  std::vector<Focus> foci = {whole, whole.with_part(0, "/Code/kern.c/kernel"),
                             whole.with_part(2, "/Process/proc:2")};
  for (const std::string& so : view.trace().sync_objects)
    foci.push_back(whole.with_part(3, "/SyncObject/" + so));
  return foci;
}

TEST_F(BlockMaxUnit, SingleBlockCoversWholeTrace) {
  // Block size far larger than any rank's interval count: one block per
  // rank, ending at the rank's last interval.
  BlockIndex one_block(trace_, nullptr, 1u << 20);
  const FocusFilter& filter = view_.compiled(Focus::whole_program(view_.resources()));
  for (int r = 0; r < trace_.num_ranks(); ++r) {
    const auto& ivs = trace_.ranks[static_cast<std::size_t>(r)].intervals;
    ASSERT_EQ(one_block.block_end(r, 0), ivs.size());
    EXPECT_DOUBLE_EQ(one_block.block_max_t1(r, 0), ivs.back().t1);
    for (MetricKind metric : kAllMetrics) {
      double time = 0.0;
      for (const auto& iv : ivs)
        if (filter.matches(iv, metric)) time += iv.duration();
      EXPECT_EQ(one_block.block_may_contribute(r, 0, filter, metric), time > 0.0)
          << "rank " << r << " metric " << metric_name(metric);
    }
  }
}

TEST_F(BlockMaxUnit, BlockSizeOneMatchesIndexEverywhere) {
  // One interval per block: the summary's verdict must equal the
  // interval's own filter test at every position (a block may contribute
  // iff its interval matches and has nonzero duration).
  BlockIndex fine(trace_, nullptr, 1);
  for (const Focus& focus : unit_foci(view_)) {
    const FocusFilter& filter = view_.compiled(focus);
    for (int r = 0; r < trace_.num_ranks(); ++r) {
      const auto& ivs = trace_.ranks[static_cast<std::size_t>(r)].intervals;
      for (std::size_t i = 0; i < ivs.size(); ++i) {
        ASSERT_EQ(fine.block_end(r, i), i + 1);
        EXPECT_DOUBLE_EQ(fine.block_max_t1(r, i), ivs[i].t1);
        for (MetricKind metric : kAllMetrics)
          EXPECT_EQ(fine.block_may_contribute(r, i, filter, metric),
                    filter.matches(ivs[i], metric) && ivs[i].duration() > 0.0)
              << "focus " << focus.name() << " rank " << r << " interval " << i
              << " metric " << metric_name(metric);
      }
    }
  }
}

TEST_F(BlockMaxUnit, RebuiltFromSnapshotColumnsMatches) {
  // The trace-cache hit path: summaries read from SoA columns must equal
  // the ones derived from the AoS intervals.
  simmpi::TraceColumns columns;
  columns.ranks.resize(trace_.ranks.size());
  for (std::size_t r = 0; r < trace_.ranks.size(); ++r) {
    auto& rc = columns.ranks[r];
    for (const auto& iv : trace_.ranks[r].intervals) {
      rc.t0.push_back(iv.t0);
      rc.t1.push_back(iv.t1);
      rc.state.push_back(static_cast<std::uint8_t>(iv.state));
      rc.func.push_back(iv.func);
      rc.sync.push_back(iv.sync_object);
    }
  }
  ASSERT_TRUE(columns.matches(trace_));
  BlockIndex from_columns(trace_, &columns, 4);
  BlockIndex from_trace(trace_, nullptr, 4);
  for (const Focus& focus : unit_foci(view_)) {
    const FocusFilter& filter = view_.compiled(focus);
    for (int r = 0; r < trace_.num_ranks(); ++r) {
      const std::size_t n = trace_.ranks[static_cast<std::size_t>(r)].intervals.size();
      for (std::size_t b = 0; b * 4 < n; ++b) {
        EXPECT_EQ(from_columns.block_end(r, b), from_trace.block_end(r, b));
        EXPECT_DOUBLE_EQ(from_columns.block_max_t1(r, b), from_trace.block_max_t1(r, b));
        for (MetricKind metric : kAllMetrics)
          EXPECT_EQ(from_columns.block_may_contribute(r, b, filter, metric),
                    from_trace.block_may_contribute(r, b, filter, metric))
              << "focus " << focus.name() << " rank " << r << " block " << b;
      }
    }
  }
}

}  // namespace
}  // namespace histpc::metrics
