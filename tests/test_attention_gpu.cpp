// Fused gpusim attention (gpusim/attention_gpu.hpp): functional
// bit-identity against the CPU fused kernel per msg_op x row_assignment x
// staging cell, plus the cost invariants the fusion exists for — strictly
// fewer global-load transactions than the composed three-launch chain,
// exactly ONE launch overhead, zero atomics — and the smem-split /
// GPU-attention tuner axes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/attention.hpp"
#include "core/tuner.hpp"
#include "gpusim/attention_gpu.hpp"
#include "graph/generators.hpp"

namespace fg = featgraph;
using fg::core::AttentionOperands;
using fg::core::AttentionResult;
using fg::core::GpuSpmmSchedule;
using fg::core::LoadBalance;
using fg::gpusim::GpuAttentionResult;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::tensor::Tensor;

namespace {

// d = 19: an awkward tail on every backend, matching the CPU suite.
constexpr std::int64_t kDim = 19;
constexpr std::int64_t kMlpD1 = 6;

struct Fixture {
  Coo coo;
  Csr in_csr;
  Tensor x;
  Tensor xsmall;
  Tensor w;
  Tensor e_vec;
  Tensor e_scal;
  Tensor logits;

  Fixture()
      : coo(fg::graph::gen_rmat(400, 7.0, 271)),
        in_csr(fg::graph::coo_to_in_csr(coo)),
        x(Tensor::randn({in_csr.num_cols, kDim}, 272)),
        xsmall(Tensor::randn({in_csr.num_cols, kMlpD1}, 273)),
        w(Tensor::randn({kMlpD1, kDim}, 274)),
        e_vec(Tensor::randn({in_csr.nnz(), kDim}, 275)),
        e_scal(Tensor::randn({in_csr.nnz()}, 276)),
        logits(Tensor::randn({in_csr.nnz()}, 277)) {}

  static const Fixture& get() {
    static const Fixture f;
    return f;
  }
};

struct Case {
  const char* op;
  bool scalar_edge;
};

constexpr Case kCases[] = {{"copy_u", false},  {"copy_e", false},
                           {"u_add_v", false}, {"u_sub_v", false},
                           {"u_mul_v", false}, {"u_div_v", false},
                           {"u_add_e", true},  {"u_add_e", false},
                           {"u_mul_e", true},  {"u_mul_e", false},
                           {"mlp", false}};

AttentionOperands operands_for(const Case& c, const Fixture& f) {
  AttentionOperands ops;
  ops.logit_scale = 0.25f;
  const std::string op = c.op;
  if (op == "mlp") {
    ops.src_feat = &f.xsmall;
    ops.weight = &f.w;
    ops.query = &f.x;
    return ops;
  }
  ops.src_feat = &f.x;
  if (op == "copy_e" || op == "u_add_e" || op == "u_mul_e") {
    ops.edge_feat = c.scalar_edge ? &f.e_scal : &f.e_vec;
  }
  return ops;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
              0);
}

}  // namespace

TEST(AttentionGpu, BitIdenticalToCpuFusedKernelPerMsgOpRowAssignmentStaging) {
  const Fixture& f = Fixture::get();
  for (const Case& c : kCases) {
    const AttentionOperands operands = operands_for(c, f);
    const AttentionResult cpu =
        fg::core::attention(f.in_csr, c.op, {}, operands);
    for (const LoadBalance ra :
         {LoadBalance::kStaticRows, LoadBalance::kNnzBalanced}) {
      for (const bool hybrid : {false, true}) {
        GpuSpmmSchedule sched;
        sched.row_assignment = ra;
        sched.hybrid_partition = hybrid;
        const GpuAttentionResult gpu =
            fg::gpusim::attention_gpu(f.in_csr, c.op, sched, operands);
        const std::string cell = std::string(c.op) +
                                 (c.scalar_edge ? "(e-scalar)" : "") +
                                 " ra=" + std::to_string(static_cast<int>(ra)) +
                                 " hybrid=" + std::to_string(hybrid);
        EXPECT_TRUE(bit_equal(gpu.out, cpu.out)) << cell << " out";
        EXPECT_TRUE(bit_equal(gpu.alpha, cpu.alpha)) << cell << " alpha";
      }
    }
  }
}

TEST(AttentionGpu, FusedCostBeatsComposedChainPerMsgOp) {
  // The fusion's mechanism claims, per message op: strictly fewer
  // global-load transactions than the sddmm_gpu -> softmax -> spmm_gpu
  // chain's sum, exactly one launch overhead (the chain pays three), zero
  // atomics, and a strictly lower simulated total.
  const Fixture& f = Fixture::get();
  const fg::gpusim::DeviceSpec spec;
  for (const Case& c : kCases) {
    const AttentionOperands operands = operands_for(c, f);
    const GpuAttentionResult fused =
        fg::gpusim::attention_gpu(f.in_csr, c.op, {}, operands, spec);
    const GpuAttentionResult composed =
        fg::gpusim::attention_gpu_composed(f.in_csr, c.op, {}, operands, spec);
    const std::string cell =
        std::string(c.op) + (c.scalar_edge ? "(e-scalar)" : "");
    EXPECT_LT(fused.stats.global_load_transactions,
              composed.stats.global_load_transactions)
        << cell;
    EXPECT_DOUBLE_EQ(fused.cost.launch_s, spec.launch_overhead_s) << cell;
    EXPECT_DOUBLE_EQ(composed.cost.launch_s, 3.0 * spec.launch_overhead_s)
        << cell;
    EXPECT_DOUBLE_EQ(fused.stats.global_atomics, 0.0) << cell;
    EXPECT_LT(fused.cost.total_s, composed.cost.total_s) << cell;
    // Both ledgers describe the same arithmetic, so the composed output is
    // the fused output.
    EXPECT_TRUE(bit_equal(fused.out, composed.out)) << cell;
  }
}

TEST(AttentionGpu, PrecomputedEdgeLogitsPayTwoComposedLaunches) {
  // With precomputed logits the composed chain drops the SDDMM launch but
  // still pays two; the fused kernel still pays one and still loads less.
  const Fixture& f = Fixture::get();
  const fg::gpusim::DeviceSpec spec;
  AttentionOperands operands;
  operands.src_feat = &f.x;
  operands.edge_logits = &f.logits;
  const GpuAttentionResult fused =
      fg::gpusim::attention_gpu(f.in_csr, "copy_u", {}, operands, spec);
  const GpuAttentionResult composed = fg::gpusim::attention_gpu_composed(
      f.in_csr, "copy_u", {}, operands, spec);
  EXPECT_DOUBLE_EQ(fused.cost.launch_s, spec.launch_overhead_s);
  EXPECT_DOUBLE_EQ(composed.cost.launch_s, 2.0 * spec.launch_overhead_s);
  EXPECT_LT(fused.stats.global_load_transactions,
            composed.stats.global_load_transactions);
  EXPECT_TRUE(bit_equal(fused.out, composed.out));
}

TEST(AttentionGpu, EdgeSoftmaxGpuMatchesCoreAndChargesOneLaunch) {
  const Fixture& f = Fixture::get();
  const fg::gpusim::DeviceSpec spec;
  const auto r = fg::gpusim::edge_softmax_gpu(f.in_csr, f.logits, {}, spec);
  const Tensor want = fg::core::edge_softmax(f.in_csr, f.logits, 1);
  EXPECT_TRUE(bit_equal(r.out, want));
  EXPECT_DOUBLE_EQ(r.cost.launch_s, spec.launch_overhead_s);
  EXPECT_GT(r.stats.global_load_transactions, 0.0);
}

TEST(AttentionGpu, ZeroDegreeRowsProduceZerosNeverNaN) {
  // The empty-segment softmax pin on the gpusim path: rows with no
  // in-edges must aggregate to exactly zero — no NaN from an hmax over an
  // empty segment or a 0/0 normalization — including the all-empty graph.
  // Row 1 is the only destination with in-edges.
  Coo coo;
  coo.num_src = coo.num_dst = 6;
  coo.src = {0, 2, 4};
  coo.dst = {1, 1, 1};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  const Tensor x = Tensor::randn({6, 11}, 901);
  AttentionOperands operands;
  operands.src_feat = &x;
  for (const bool hybrid : {false, true}) {
    GpuSpmmSchedule sched;
    sched.hybrid_partition = hybrid;
    const GpuAttentionResult r =
        fg::gpusim::attention_gpu(in, "copy_u", sched, operands);
    for (std::int64_t i = 0; i < r.out.numel(); ++i)
      ASSERT_FALSE(std::isnan(r.out.at(i))) << "flat " << i;
    for (const fg::graph::vid_t v : {0, 2, 3, 4, 5})
      for (std::int64_t j = 0; j < 11; ++j)
        EXPECT_EQ(r.out.at(v, j), 0.0f) << "row " << v;
  }

  // All-empty graph (n > 0, nnz == 0): everything is zeros, cost is charged
  // (the launch still traverses indptr).
  Coo empty;
  empty.num_src = empty.num_dst = 6;
  const Csr ein = fg::graph::coo_to_in_csr(empty);
  const GpuAttentionResult r =
      fg::gpusim::attention_gpu(ein, "copy_u", {}, operands);
  EXPECT_EQ(r.alpha.numel(), 0);
  for (std::int64_t i = 0; i < r.out.numel(); ++i) {
    ASSERT_FALSE(std::isnan(r.out.at(i)));
    EXPECT_EQ(r.out.at(i), 0.0f);
  }
  EXPECT_GT(r.cost.total_s, 0.0);
}

TEST(AttentionGpu, SmemSplitTradesSoftmaxSpillsAgainstStagingReuse) {
  // Skewed two-class graph: hub destinations with long logit segments AND
  // hub sources worth staging.
  const Coo skewed = fg::graph::gen_two_class(60, 500, 600, 5, 5);
  const Csr in = fg::graph::coo_to_in_csr(skewed);
  const Tensor x = Tensor::randn({in.num_cols, 64}, 903);
  AttentionOperands operands;
  operands.src_feat = &x;

  // Zero softmax scratch forces every nonempty row to spill its logits to
  // global memory — strictly more load transactions than an even split.
  GpuSpmmSchedule no_scratch;
  no_scratch.attention_softmax_smem_frac = 0.0;
  GpuSpmmSchedule even;
  even.attention_softmax_smem_frac = 0.5;
  const auto spilled =
      fg::gpusim::attention_gpu(in, "copy_u", no_scratch, operands);
  const auto fits = fg::gpusim::attention_gpu(in, "copy_u", even, operands);
  EXPECT_GT(spilled.stats.global_load_transactions,
            fits.stats.global_load_transactions);
  EXPECT_TRUE(bit_equal(spilled.out, fits.out));  // cost-only knob

  // Hybrid staging of the high-degree sources cuts global feature loads on
  // this skew, exactly like the SpMM hybrid kernel.
  GpuSpmmSchedule hybrid = even;
  hybrid.hybrid_partition = true;
  const auto staged = fg::gpusim::attention_gpu(in, "copy_u", hybrid, operands);
  EXPECT_LT(staged.stats.global_load_transactions,
            fits.stats.global_load_transactions);
  EXPECT_TRUE(bit_equal(staged.out, fits.out));
}

TEST(AttentionGpu, GridTunerSearchesTheGpuAttentionAxis) {
  const Fixture& f = Fixture::get();
  AttentionOperands operands;
  operands.src_feat = &f.x;
  auto tuned = fg::core::tune(
      fg::core::list_space(fg::core::default_gpu_attention_candidates()),
      fg::core::gpu_attention_measure(f.in_csr, "copy_u", operands),
      fg::core::Search::grid());
  EXPECT_FALSE(tuned.trials.empty());
  for (const auto& t : tuned.trials)
    EXPECT_LE(tuned.best_seconds, t.seconds);
  // The winner is at least as good as the untuned default schedule.
  const double default_cost =
      fg::gpusim::attention_gpu(f.in_csr, "copy_u", {}, operands).cost.total_s;
  EXPECT_LE(tuned.best_seconds, default_cost);
  // The cached entry point returns a schedule with the winning cost.
  const fg::core::GpuSpmmSchedule best =
      fg::core::tuned_gpu_attention_schedule(f.in_csr, "copy_u", operands);
  const double best_cost =
      fg::gpusim::attention_gpu(f.in_csr, "copy_u", best, operands)
          .cost.total_s;
  EXPECT_DOUBLE_EQ(best_cost, tuned.best_seconds);
}

TEST(AttentionGpu, SmartTunerClimbsTheGpuAttentionLattice) {
  const Fixture& f = Fixture::get();
  AttentionOperands operands;
  operands.src_feat = &f.x;
  const auto measure =
      fg::core::gpu_attention_measure(f.in_csr, "copy_u", operands);
  fg::core::SmartTuneOptions options;
  options.max_trials = 10;
  const auto climb = [&] {
    return fg::core::tune(fg::core::gpu_attention_lattice(), measure,
                          fg::core::Search::climb(options));
  };
  const auto result = climb();
  EXPECT_LE(result.trials.size(),
            static_cast<std::size_t>(options.max_trials));
  EXPECT_GE(result.trials.size(), 1u);
  // The first seed is the default lattice point, so the winner can only
  // improve on it.
  fg::core::GpuSpmmSchedule seed;
  seed.hybrid_partition = true;
  EXPECT_LE(result.best_seconds, measure(seed));
  // Deterministic objective + fixed seed => reproducible search.
  const auto again = climb();
  EXPECT_DOUBLE_EQ(again.best_seconds, result.best_seconds);
}
