// Shard-parallel execution engine (parallel/shard_exec.hpp) — the tentpole
// determinism contract: a shard OWNS its destination rows, so sharded
// SpMM / fused attention / neighbor sampling are BIT-IDENTICAL to their
// unsharded runs at every thread count, shard count, steal granularity, and
// ISA. Plus the shard decomposition properties (bounds tile the row range,
// LLC-driven shard sizing) and the shard transforms' Schedule-IR surface
// (validation, lowering, hashing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/attention.hpp"
#include "core/schedule_ir.hpp"
#include "core/spmm.hpp"
#include "graph/generators.hpp"
#include "parallel/shard_exec.hpp"
#include "sample/neighbor_sampler.hpp"
#include "tensor/tensor.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::core::LoweredSpmmPlan;
using fg::core::ScheduleIr;
using fg::graph::Csr;
using fg::simd::Isa;
using fg::tensor::Tensor;

namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::vector<std::int64_t> indptr_of(const std::vector<std::int64_t>& degs) {
  std::vector<std::int64_t> p(degs.size() + 1, 0);
  for (std::size_t i = 0; i < degs.size(); ++i) p[i + 1] = p[i] + degs[i];
  return p;
}

}  // namespace

// --- shard decomposition --------------------------------------------------

TEST(ShardBounds, TileTheRowRange) {
  const auto indptr = indptr_of({3, 0, 7, 1, 0, 0, 12, 2, 0, 5, 1, 1});
  const std::int64_t n = 12;
  for (const bool nnz_balanced : {false, true}) {
    for (int shards : {1, 2, 3, 5, 12}) {
      const auto bounds = fg::parallel::shard_row_bounds(
          nnz_balanced ? indptr.data() : nullptr, n, shards);
      ASSERT_EQ(bounds.size(), static_cast<std::size_t>(shards) + 1);
      EXPECT_EQ(bounds.front(), 0);
      EXPECT_EQ(bounds.back(), n);
      for (std::size_t s = 0; s + 1 < bounds.size(); ++s)
        EXPECT_LE(bounds[s], bounds[s + 1]);
    }
  }
}

TEST(ShardBounds, ShardCountClampsToRows) {
  const auto bounds = fg::parallel::shard_row_bounds(nullptr, 3, 16);
  ASSERT_EQ(bounds.size(), 4u);  // clamped to 3 shards
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 3);
}

TEST(ShardBounds, NnzBalancedBoundsIsolateHubs) {
  // One 1000-edge hub among degree-1 rows: nnz-balanced shard boundaries
  // keep every shard within total/shards + max_degree edges.
  std::vector<std::int64_t> degs(1000, 1);
  degs[0] = 1000;
  const auto indptr = indptr_of(degs);
  const std::int64_t total = indptr.back();
  const int shards = 8;
  const auto bounds = fg::parallel::shard_row_bounds(indptr.data(), 1000,
                                                     shards);
  for (int s = 0; s < shards; ++s) {
    const auto lo = static_cast<std::size_t>(bounds[s]);
    const auto hi = static_cast<std::size_t>(bounds[s + 1]);
    EXPECT_LE(indptr[hi] - indptr[lo], total / shards + 1000) << "shard " << s;
  }
}

TEST(ChooseNumShards, SizesShardsToTheLlcBudget) {
  fg::parallel::ShardSizing sizing;
  sizing.bytes_per_row = 256;
  sizing.bytes_per_edge = 16;
  sizing.llc_bytes = 1024.0 * 1024.0;

  // Tiny working set, 1 thread: sharding is pure overhead.
  EXPECT_EQ(fg::parallel::choose_num_shards(1000, 8000, sizing, 1), 1);
  // Tiny working set, many threads: stealing still needs >= 2 shards/lane.
  EXPECT_EQ(fg::parallel::choose_num_shards(1000, 8000, sizing, 4), 8);
  // Big working set: enough shards that one shard fits the budget.
  const std::int64_t rows = 1 << 20;
  const std::int64_t nnz = rows * 8;
  const int shards = fg::parallel::choose_num_shards(rows, nnz, sizing, 4);
  const double work = static_cast<double>(rows) * 256 +
                      static_cast<double>(nnz) * 16;
  EXPECT_GE(shards, static_cast<int>(work / sizing.llc_bytes));
  EXPECT_LE(shards, rows);
  // Never more shards than rows.
  EXPECT_EQ(fg::parallel::choose_num_shards(3, 1000000, sizing, 8), 3);
}

TEST(ShardedRowSweep, CoversRowsExactlyOnceAtAnyDecomposition) {
  const std::int64_t n = 97;
  for (int threads : {1, 2, 4, 8}) {
    for (int shards : {1, 2, 5, 16, 97}) {
      for (std::int64_t grain : {1, 2, 8}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        for (auto& h : hits) h = 0;
        fg::parallel::sharded_row_sweep(
            nullptr, n, shards, grain, threads,
            [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t r = r0; r < r1; ++r)
                hits[static_cast<std::size_t>(r)].fetch_add(1);
            });
        for (std::int64_t r = 0; r < n; ++r)
          EXPECT_EQ(hits[static_cast<std::size_t>(r)].load(), 1)
              << "row " << r << " threads=" << threads << " shards=" << shards
              << " grain=" << grain;
      }
    }
  }
}

// --- Schedule-IR surface --------------------------------------------------

TEST(ShardIr, BuilderValidatesAndDescribes) {
  const ScheduleIr ir = ScheduleIr().shard(8).steal_grain(2);
  EXPECT_EQ(ir.describe(), "shard(8).steal_grain(2)");
  EXPECT_EQ(fg::core::validate_spmm_ir(ir, 1000, 64, Isa::kScalar), "");
  // A shard factor above the row count is legal: execution clamps it, so
  // one program serves every block shape a schedule cache replays it on.
  EXPECT_EQ(fg::core::validate_spmm_ir(ScheduleIr().shard(4096), 100, 64,
                                       Isa::kScalar),
            "");
}

TEST(ShardIr, IllegalProgramsReportClearErrors) {
  EXPECT_NE(fg::core::validate_spmm_ir(ScheduleIr().shard(0), 1000, 64,
                                       Isa::kScalar),
            "");
  EXPECT_NE(fg::core::validate_spmm_ir(ScheduleIr().shard(8).shard(4), 1000,
                                       64, Isa::kScalar),
            "");  // duplicate transform
  const std::string err = fg::core::validate_spmm_ir(
      ScheduleIr().steal_grain(2), 1000, 64, Isa::kScalar);
  EXPECT_NE(err.find("shard"), std::string::npos) << err;
  // SDDMM programs take no shard transforms (edge-parallel already).
  EXPECT_NE(fg::core::validate_sddmm_ir(ScheduleIr().shard(4), 1000, 64,
                                        Isa::kScalar),
            "");
}

TEST(ShardIr, LoweringCarriesShardKnobsAndClampsAtExecution) {
  CpuSpmmSchedule s;
  s.num_threads = 4;
  s.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().shard(64).steal_grain(2));
  const LoweredSpmmPlan plan =
      fg::core::lower_spmm_schedule(s, 1000, 64, Isa::kScalar);
  EXPECT_EQ(plan.num_shards, 64);
  EXPECT_EQ(plan.steal_grain, 2);
  // Shard-only programs keep feature tiles outermost: sharding decomposes
  // the row sweep, it does not change the loop order.
  EXPECT_TRUE(plan.tiles_outermost());
  EXPECT_EQ(plan.effective_shards(1000), 64);
  EXPECT_EQ(plan.effective_shards(10), 10);  // clamped to the row count
  EXPECT_EQ(plan.effective_shards(1), 1);

  const LoweredSpmmPlan unsharded =
      fg::core::lower_spmm_schedule(CpuSpmmSchedule{}, 1000, 64, Isa::kScalar);
  EXPECT_EQ(unsharded.num_shards, 0);
  EXPECT_EQ(unsharded.effective_shards(1000), 0);
}

TEST(ShardIr, ProgramHashCoversShardKnobs) {
  CpuSpmmSchedule plain;
  CpuSpmmSchedule sharded;
  sharded.ir = std::make_shared<const ScheduleIr>(ScheduleIr().shard(8));
  CpuSpmmSchedule sharded16;
  sharded16.ir = std::make_shared<const ScheduleIr>(ScheduleIr().shard(16));
  CpuSpmmSchedule grained;
  grained.ir = std::make_shared<const ScheduleIr>(
      ScheduleIr().shard(8).steal_grain(2));
  const auto h = [](const CpuSpmmSchedule& s) {
    return fg::core::schedule_program_hash(s);
  };
  EXPECT_NE(h(plain), h(sharded));
  EXPECT_NE(h(sharded), h(sharded16));
  EXPECT_NE(h(sharded), h(grained));
}

// --- the invariance matrix (the tentpole's bit-identity pin) --------------

namespace {

struct ShardFixture {
  fg::graph::Coo coo;
  Csr in_csr;
  Tensor x;
  Tensor e;

  static constexpr std::int64_t kDim = 19;  // forces tail paths on every ISA

  ShardFixture()
      : coo(fg::graph::gen_rmat(700, 9.0, 31)),
        in_csr(fg::graph::coo_to_in_csr(coo)),
        x(Tensor::randn({in_csr.num_cols, kDim}, 32)),
        e(Tensor::randn({in_csr.nnz(), kDim}, 33)) {}

  static const ShardFixture& get() {
    static const ShardFixture f;
    return f;
  }
};

}  // namespace

TEST(ShardExec, SpmmBitIdenticalAcrossThreadsShardsGrainsAndIsas) {
  // The merge-at-shard-boundaries contract, observed through the full
  // kernel stack: for every ISA, the sharded output must equal the SAME
  // ISA's unsharded output bit for bit, at every thread count x shard
  // count x steal granularity — which lane ran a shard can never matter.
  const ShardFixture& f = ShardFixture::get();
  const auto isas = fg::simd::supported_isas();
  struct Case {
    const char* op;
    const char* red;
  };
  for (const Case c : {Case{"copy_u", "sum"}, Case{"u_mul_e", "max"},
                       Case{"u_add_v", "mean"}}) {
    fg::core::SpmmOperands ops{&f.x, nullptr, nullptr};
    if (std::string(c.op) == "u_mul_e") ops.edge_feat = &f.e;
    for (const Isa isa : isas) {
      fg::simd::ScopedIsa pin(isa);
      CpuSpmmSchedule baseline;
      baseline.num_threads = 1;
      const Tensor want =
          fg::core::spmm(f.in_csr, c.op, c.red, baseline, ops);
      for (const int threads : {1, 2, 4, 8}) {
        for (const int shards : {2, 7, 32}) {
          for (const std::int64_t grain : {1, 2, 8}) {
            CpuSpmmSchedule s;
            s.num_threads = threads;
            s.ir = std::make_shared<const ScheduleIr>(
                ScheduleIr().shard(shards).steal_grain(grain));
            const Tensor got = fg::core::spmm(f.in_csr, c.op, c.red, s, ops);
            EXPECT_TRUE(bit_equal(got, want))
                << c.op << "/" << c.red
                << " isa=" << fg::simd::isa_name(isa)
                << " threads=" << threads << " shards=" << shards
                << " grain=" << grain;
          }
        }
      }
    }
  }
}

TEST(ShardExec, ShardComposesWithLoopNestTransforms) {
  // shard() decomposes the sweep; tile/unroll/chunk shape the per-row loop
  // nest. Composed programs must still match the SAME loop nest unsharded.
  const ShardFixture& f = ShardFixture::get();
  const auto isas = fg::simd::supported_isas();
  const std::vector<ScheduleIr> nests = {
      ScheduleIr().tile(8).unroll(4),
      ScheduleIr().chunk(100),
      ScheduleIr().split_nnz(fg::core::LoadBalance::kStaticRows),
  };
  fg::core::SpmmOperands ops{&f.x, nullptr, nullptr};
  for (const Isa isa : isas) {
    fg::simd::ScopedIsa pin(isa);
    for (const ScheduleIr& nest : nests) {
      CpuSpmmSchedule base;
      base.num_threads = 3;
      base.ir = std::make_shared<const ScheduleIr>(nest);
      const Tensor want = fg::core::spmm(f.in_csr, "copy_u", "sum", base, ops);
      ScheduleIr sharded = nest;
      sharded.shard(16).steal_grain(2);
      ASSERT_EQ(fg::core::validate_spmm_ir(sharded, f.in_csr.num_rows,
                                           ShardFixture::kDim, isa),
                "")
          << sharded.describe();
      CpuSpmmSchedule s;
      s.num_threads = 3;
      s.ir = std::make_shared<const ScheduleIr>(sharded);
      const Tensor got = fg::core::spmm(f.in_csr, "copy_u", "sum", s, ops);
      EXPECT_TRUE(bit_equal(got, want))
          << "isa=" << fg::simd::isa_name(isa)
          << " program=" << sharded.describe();
    }
  }
}

TEST(ShardExec, AttentionBitIdenticalAcrossThreadsAndIsas) {
  // Fused attention runs three row sweeps (logits+softmax, then the
  // weighted aggregate) through the same dispatcher — all of them shard.
  const ShardFixture& f = ShardFixture::get();
  const auto isas = fg::simd::supported_isas();
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  ops.logit_scale = 0.25f;
  for (const Isa isa : isas) {
    fg::simd::ScopedIsa pin(isa);
    CpuSpmmSchedule baseline;
    baseline.num_threads = 1;
    const auto want = fg::core::attention(f.in_csr, "copy_u", baseline, ops);
    for (const int threads : {1, 2, 4, 8}) {
      for (const int shards : {2, 16}) {
        CpuSpmmSchedule s;
        s.num_threads = threads;
        s.ir = std::make_shared<const ScheduleIr>(
            ScheduleIr().shard(shards).steal_grain(1));
        const auto got = fg::core::attention(f.in_csr, "copy_u", s, ops);
        EXPECT_TRUE(bit_equal(got.out, want.out))
            << "out isa=" << fg::simd::isa_name(isa) << " threads=" << threads
            << " shards=" << shards;
        EXPECT_TRUE(bit_equal(got.alpha, want.alpha))
            << "alpha isa=" << fg::simd::isa_name(isa)
            << " threads=" << threads << " shards=" << shards;
      }
    }
  }
}

TEST(ShardExec, ShardedSamplingMatchesSerialSampling) {
  // Shard-local neighbor sampling: per-(batch, hop, vertex) RNG streams
  // make the sampled blocks a pure function of the arguments, so the
  // sharded drain must reproduce the serial one exactly.
  const ShardFixture& f = ShardFixture::get();
  fg::sample::NeighborSampler sampler(f.in_csr, {{4, 3}, false, 77});
  std::vector<fg::graph::vid_t> seeds;
  for (fg::graph::vid_t v = 0; v < f.in_csr.num_rows; v += 3)
    seeds.push_back(v);
  const auto want = sampler.sample(seeds, /*batch_index=*/5, /*threads=*/1);
  for (const int threads : {2, 4, 8}) {
    const auto got = sampler.sample(seeds, 5, threads);
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (std::size_t l = 0; l < want.blocks.size(); ++l) {
      const auto& a = want.blocks[l];
      const auto& b = got.blocks[l];
      EXPECT_EQ(a.src_nodes, b.src_nodes) << "layer " << l;
      EXPECT_EQ(a.dst_nodes, b.dst_nodes) << "layer " << l;
      EXPECT_EQ(a.adj.indptr, b.adj.indptr) << "layer " << l;
      EXPECT_EQ(a.adj.indices, b.adj.indices) << "layer " << l;
      EXPECT_EQ(a.adj.edge_ids, b.adj.edge_ids) << "layer " << l;
    }
  }
}
