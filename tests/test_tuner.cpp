#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::core::GpuSpmmSchedule;
using fg::core::Search;
using fg::core::SmartTuneOptions;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::tensor::Tensor;

namespace {

struct Fixture {
  fg::graph::Coo coo = fg::graph::gen_uniform(800, 16.0, 1000);
  Csr in_csr = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({800, 32}, 1001);
};

}  // namespace

TEST(Tuner, DefaultGridCoversPartitionTileAndBalanceAxes) {
  const auto grid = fg::core::default_spmm_candidates(128, 2);
  EXPECT_GE(grid.size(), 20u);
  bool has_unpartitioned = false, has_partitioned = false;
  bool has_untiled = false, has_tiled = false;
  bool has_static = false, has_nnz = false;
  for (const auto& s : grid) {
    has_unpartitioned |= s.num_partitions == 1;
    has_partitioned |= s.num_partitions > 1;
    has_untiled |= s.feat_tile == 0;
    has_tiled |= s.feat_tile > 0;
    has_static |= s.load_balance == fg::core::LoadBalance::kStaticRows;
    has_nnz |= s.load_balance == fg::core::LoadBalance::kNnzBalanced;
    EXPECT_EQ(s.num_threads, 2);
    EXPECT_LE(s.feat_tile, 128);
  }
  EXPECT_TRUE(has_unpartitioned && has_partitioned && has_untiled && has_tiled);
  EXPECT_TRUE(has_static && has_nnz);
}

TEST(Tuner, SingleThreadGridSkipsRedundantBalanceAxis) {
  // At one thread both row-split policies run the identical sweep; the grid
  // should not double itself for nothing.
  for (const auto& s : fg::core::default_spmm_candidates(128, 1))
    EXPECT_EQ(s.load_balance, fg::core::LoadBalance::kNnzBalanced);
}

TEST(Tuner, GridRespectsSmallFeatureLengths) {
  for (const auto& s : fg::core::default_spmm_candidates(8, 1))
    EXPECT_LE(s.feat_tile, 8);
}

TEST(Tuner, ReturnsBestTrial) {
  Fixture f;
  std::vector<CpuSpmmSchedule> cands;
  for (int parts : {1, 4}) {
    CpuSpmmSchedule s;
    s.num_partitions = parts;
    cands.push_back(s);
  }
  const auto result = fg::core::tune(
      fg::core::list_space(cands),
      fg::core::spmm_measure(f.in_csr, "copy_u", "sum",
                             {&f.x, nullptr, nullptr}),
      Search::grid());
  ASSERT_EQ(result.trials.size(), 2u);
  double best = std::min(result.trials[0].seconds, result.trials[1].seconds);
  EXPECT_DOUBLE_EQ(result.best_seconds, best);
  EXPECT_GT(result.best_seconds, 0.0);
}

TEST(Tuner, CachedScheduleIsStable) {
  Fixture f;
  const auto s1 = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                                {&f.x, nullptr, nullptr}, 1);
  const auto s2 = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                                {&f.x, nullptr, nullptr}, 1);
  EXPECT_EQ(s1.num_partitions, s2.num_partitions);
  EXPECT_EQ(s1.feat_tile, s2.feat_tile);
  EXPECT_EQ(s1.num_threads, 1);
}

TEST(Tuner, HeuristicPartitionsGrowWithGraphSize) {
  Fixture f;
  // Tiny source set: one partition suffices.
  const auto small = fg::core::heuristic_spmm_schedule(f.in_csr, 64, 1);
  EXPECT_EQ(small.num_partitions, 1);

  // Fake a huge column count by constructing a wide CSR header.
  Csr wide;
  wide.num_rows = 10;
  wide.num_cols = 4 * 1000 * 1000;
  wide.indptr.assign(11, 0);
  const auto big = fg::core::heuristic_spmm_schedule(wide, 512, 1);
  EXPECT_GT(big.num_partitions, 1);
}

TEST(Tuner, AttentionAxisTunesOverTheSameGrid) {
  // The fused attention kernel joins the grid tuner: every trial runs the
  // real kernel, the winner is the fastest trial, and the cached schedule is
  // stable across queries (keyed separately from the plain SpMM entries).
  Fixture f;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  std::vector<CpuSpmmSchedule> cands;
  for (int parts : {1, 4}) {
    CpuSpmmSchedule s;
    s.num_partitions = parts;
    cands.push_back(s);
  }
  const auto result =
      fg::core::tune(fg::core::list_space(cands),
                     fg::core::attention_measure(f.in_csr, "copy_u", ops),
                     Search::grid());
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_DOUBLE_EQ(
      result.best_seconds,
      std::min(result.trials[0].seconds, result.trials[1].seconds));
  EXPECT_GT(result.best_seconds, 0.0);

  const auto s1 = fg::core::tuned_attention_schedule(f.in_csr, "copy_u", ops, 1);
  const auto s2 = fg::core::tuned_attention_schedule(f.in_csr, "copy_u", ops, 1);
  EXPECT_EQ(s1.num_partitions, s2.num_partitions);
  EXPECT_EQ(s1.feat_tile, s2.feat_tile);
  EXPECT_EQ(s1.num_threads, 1);
}

TEST(Tuner, SmartTunerClimbsTheAttentionAxis) {
  // The budgeted hill climber is kernel-agnostic through MeasureFn;
  // attention_measure plugs the fused kernel in. The search must respect
  // its budget and return a measured (finite, positive) winner.
  Fixture f;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  const auto measure = fg::core::attention_measure(f.in_csr, "copy_u", ops);
  SmartTuneOptions opts;
  opts.max_trials = 6;
  const auto result = fg::core::tune(fg::core::spmm_lattice(f.x.row_size(), 1),
                                     measure, Search::climb(opts));
  EXPECT_LE(result.trials.size(), 6u);
  EXPECT_GE(result.trials.size(), 1u);
  EXPECT_GT(result.best_seconds, 0.0);
  EXPECT_GE(result.best.num_partitions, 1);
}

TEST(Tuner, TransfersAcrossFeatureLengthByCacheKey) {
  // Different feature lengths tune independently (Fig. 14: optimal feature
  // partitions scale with feature length).
  Fixture f;
  Tensor x64 = Tensor::randn({800, 64}, 1002);
  const auto a = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                               {&f.x, nullptr, nullptr}, 1);
  const auto b = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                               {&x64, nullptr, nullptr}, 1);
  // Keys differ, so both entries exist; re-querying returns each unchanged.
  const auto a2 = fg::core::tuned_spmm_schedule(f.in_csr, "copy_u", "sum",
                                                {&f.x, nullptr, nullptr}, 1);
  EXPECT_EQ(a.num_partitions, a2.num_partitions);
  EXPECT_EQ(a.feat_tile, a2.feat_tile);
  (void)b;
}

// --- the climb strategy ------------------------------------------------------

namespace {

/// Synthetic unimodal cost surface with minimum at (parts=8, tile=32).
double synthetic_cost(const CpuSpmmSchedule& s) {
  const double lp = std::log2(static_cast<double>(s.num_partitions));
  const double lt = s.feat_tile == 0
                        ? 7.0  // "untiled" sits past the largest tile
                        : std::log2(static_cast<double>(s.feat_tile));
  return 1.0 + 0.3 * (lp - 3.0) * (lp - 3.0) + 0.2 * (lt - 5.0) * (lt - 5.0);
}

}  // namespace

TEST(TunerClimb, FindsUnimodalOptimumWithinBudget) {
  // The (partitions x tiles) lattice for d=256 has 7x6 = 42 points; the
  // climber must find the global optimum (8, 32) with under half as many
  // measurements.
  int calls = 0;
  const auto result = fg::core::tune(
      fg::core::spmm_lattice(256, 1),
      [&](const CpuSpmmSchedule& s) {
        ++calls;
        return synthetic_cost(s);
      },
      Search::climb(
          SmartTuneOptions{.max_trials = 20, .num_seeds = 3, .seed = 7}));
  EXPECT_EQ(result.best.num_partitions, 8);
  EXPECT_EQ(result.best.feat_tile, 32);
  EXPECT_LE(result.trials.size(), 20u);
  EXPECT_EQ(calls, static_cast<int>(result.trials.size()));
}

TEST(TunerClimb, RespectsHardBudget) {
  const auto result = fg::core::tune(
      fg::core::spmm_lattice(512, 1),
      [](const CpuSpmmSchedule& s) { return synthetic_cost(s); },
      Search::climb(SmartTuneOptions{.max_trials = 4}));
  EXPECT_LE(result.trials.size(), 4u);
  EXPECT_TRUE(std::isfinite(result.best_seconds));
}

TEST(TunerClimb, DeterministicForFixedSeed) {
  auto run = [] {
    return fg::core::tune(
        fg::core::spmm_lattice(128, 2),
        [](const CpuSpmmSchedule& s) { return synthetic_cost(s); },
        Search::climb(SmartTuneOptions{.max_trials = 10, .seed = 42}));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.best.num_partitions, b.best.num_partitions);
  EXPECT_EQ(a.best.feat_tile, b.best.feat_tile);
  EXPECT_EQ(a.trials.size(), b.trials.size());
}

TEST(TunerClimb, NeedsFewerTrialsThanGridOnRealKernel) {
  // The future-work claim: reach (close to) the grid winner in a fraction
  // of the measurements on a real cost surface.
  const Coo coo = fg::graph::gen_uniform(3000, 24.0, 5);
  const auto in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({3000, 64}, 6);
  const fg::core::SpmmOperands ops{&x, nullptr, nullptr};
  const auto measure = fg::core::spmm_measure(in, "copy_u", "sum", ops);

  const auto grid = fg::core::default_spmm_candidates(64, 1);
  const auto grid_result =
      fg::core::tune(fg::core::list_space(grid), measure, Search::grid());
  const auto smart =
      fg::core::tune(fg::core::spmm_lattice(64, 1), measure,
                     Search::climb(SmartTuneOptions{.max_trials = 10}));

  EXPECT_LT(smart.trials.size(), grid.size());
  // Within 60% of the grid winner (timing noise on a busy box is real).
  EXPECT_LT(smart.best_seconds, grid_result.best_seconds * 1.6 + 1e-4);
}

// --- observability, memo keys and concurrency --------------------------------

namespace {

std::int64_t counter(const char* name) {
  return fg::obs::Registry::global().counter(name).value();
}

/// Runs `search` and checks it added exactly one tune and one trial per
/// logged measurement to the registry.
template <class Run>
void expect_counts(const Run& run) {
  const std::int64_t tunes0 = counter("tuner.tune.count");
  const std::int64_t trials0 = counter("tuner.trial.count");
  const auto result = run();
  EXPECT_GE(result.trials.size(), 1u);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 1);
  EXPECT_EQ(counter("tuner.trial.count") - trials0,
            static_cast<std::int64_t>(result.trials.size()));
}

}  // namespace

TEST(Tuner, EveryStrategyCountsOneTuneAndOneTrialPerMeasurement) {
  Fixture f;
  const auto cpu = fg::core::spmm_measure(f.in_csr, "copy_u", "sum",
                                          {&f.x, nullptr, nullptr});
  const auto cands = fg::core::default_spmm_candidates(32, 1);
  expect_counts([&] {
    const auto r =
        fg::core::tune(fg::core::list_space(cands), cpu, Search::grid());
    EXPECT_EQ(r.trials.size(), cands.size());  // grid: every candidate
    return r;
  });
  expect_counts([&] {
    return fg::core::tune(fg::core::spmm_lattice(32, 1), cpu,
                          Search::climb(SmartTuneOptions{.max_trials = 5}));
  });

  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  const auto gpu = fg::core::gpu_attention_measure(f.in_csr, "copy_u", ops);
  const auto gpu_cands = fg::core::default_gpu_attention_candidates();
  expect_counts([&] {
    const auto r =
        fg::core::tune(fg::core::list_space(gpu_cands), gpu, Search::grid());
    EXPECT_EQ(r.trials.size(), gpu_cands.size());
    return r;
  });
  expect_counts([&] {
    return fg::core::tune(fg::core::gpu_attention_lattice(), gpu,
                          Search::climb(SmartTuneOptions{.max_trials = 7}));
  });
}

TEST(Tuner, GridWalksMultiAxisSpacesInRowMajorOrder) {
  const fg::core::Space<GpuSpmmSchedule> space{
      {2, 3}, {0, 0}, [](const std::vector<int>& p) {
        GpuSpmmSchedule s;
        s.num_blocks = 10 * p[0] + p[1];
        return s;
      }};
  const auto result = fg::core::tune(
      space, [](const GpuSpmmSchedule& s) { return 100.0 - s.num_blocks; },
      Search::grid());
  std::vector<int> order;
  for (const auto& t : result.trials) order.push_back(t.schedule.num_blocks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_EQ(result.best.num_blocks, 12);
  EXPECT_DOUBLE_EQ(result.best_seconds, 88.0);
}

TEST(Tuner, CopyEWidthsOnOneGraphTuneSeparately) {
  // The memo key carries the edge feature width for copy_e, so a schedule
  // tuned for one width is never served for another on the same graph.
  Fixture f;
  const Tensor e4 = Tensor::randn({f.in_csr.nnz(), 4}, 1003);
  const Tensor e12 = Tensor::randn({f.in_csr.nnz(), 12}, 1004);
  fg::core::AttentionOperands ops4, ops12;
  ops4.edge_feat = &e4;
  ops12.edge_feat = &e12;
  const Tensor logits = Tensor::randn({f.in_csr.nnz()}, 1005);
  ops4.edge_logits = ops12.edge_logits = &logits;

  const std::int64_t tunes0 = counter("tuner.tune.count");
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops4);
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops12);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 2);
  // Both entries are cached now: re-queries tune nothing.
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops4);
  (void)fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_e", ops12);
  EXPECT_EQ(counter("tuner.tune.count") - tunes0, 2);
}

TEST(Tuner, ConcurrentMemoLookupsReturnOneWinner) {
  // Four threads race on one memo key. Misses tune outside the lock, but
  // every caller gets the first winner stored, and later lookups hit it.
  const Coo coo = fg::graph::gen_uniform(300, 6.0, 1006);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  const Tensor x = Tensor::randn({300, 16}, 1007);
  std::vector<CpuSpmmSchedule> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = fg::core::tuned_spmm_schedule(in, "copy_u", "sum",
                                             {&x, nullptr, nullptr}, 1);
    });
  }
  for (auto& t : threads) t.join();
  const std::int64_t tunes0 = counter("tuner.tune.count");
  const auto again = fg::core::tuned_spmm_schedule(in, "copy_u", "sum",
                                                   {&x, nullptr, nullptr}, 1);
  EXPECT_EQ(counter("tuner.tune.count"), tunes0);
  for (const auto& s : got) {
    EXPECT_EQ(s.num_partitions, again.num_partitions);
    EXPECT_EQ(s.feat_tile, again.feat_tile);
    EXPECT_EQ(s.load_balance, again.load_balance);
    EXPECT_EQ(s.num_threads, 1);
  }
}
