#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/partition_cache.hpp"
#include "core/reducers.hpp"
#include "core/simd.hpp"
#include "core/spmm.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::core::SpmmOperands;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::tensor::Tensor;
using fg::testing::reference_spmm;

namespace {

struct Fixture {
  Coo coo;
  Csr in_csr;
  Tensor x;       // n x d
  Tensor e_vec;   // m x d
  Tensor e_scal;  // m
  Tensor w;       // d x d2 (mlp weight)

  Fixture(fg::graph::vid_t n, double avg_deg, std::int64_t d, std::int64_t d2,
          std::uint64_t seed)
      : coo(fg::graph::gen_uniform(n, avg_deg, seed)),
        in_csr(fg::graph::coo_to_in_csr(coo)),
        x(Tensor::randn({n, d}, seed + 1)),
        e_vec(Tensor::randn({coo.num_edges(), d}, seed + 2)),
        e_scal(Tensor::randn({coo.num_edges()}, seed + 3)),
        w(Tensor::randn({d, d2}, seed + 4)) {}
};

fg::testing::RefMsgFn reference_msg(const std::string& op, const Fixture& f) {
  const std::int64_t d = f.x.row_size();
  if (op == "copy_u") {
    return [&, d](auto u, auto, auto, std::vector<float>& m) {
      for (std::int64_t j = 0; j < d; ++j) m[j] = f.x.at(u, j);
    };
  }
  if (op == "copy_e") {
    return [&, d](auto, auto e, auto, std::vector<float>& m) {
      for (std::int64_t j = 0; j < d; ++j) m[j] = f.e_vec.at(e * d + j);
    };
  }
  if (op == "u_add_v" || op == "u_sub_v" || op == "u_mul_v" ||
      op == "u_div_v") {
    return [&, d, op](auto u, auto, auto v, std::vector<float>& m) {
      for (std::int64_t j = 0; j < d; ++j) {
        const float a = f.x.at(u, j), b = f.x.at(v, j);
        m[j] = op == "u_add_v"   ? a + b
               : op == "u_sub_v" ? a - b
               : op == "u_mul_v" ? a * b
                                 : a / b;
      }
    };
  }
  if (op == "u_add_e") {
    return [&, d](auto u, auto e, auto, std::vector<float>& m) {
      for (std::int64_t j = 0; j < d; ++j)
        m[j] = f.x.at(u, j) + f.e_vec.at(e * d + j);
    };
  }
  if (op == "u_mul_e") {  // scalar edge weight broadcast
    return [&, d](auto u, auto e, auto, std::vector<float>& m) {
      for (std::int64_t j = 0; j < d; ++j)
        m[j] = f.x.at(u, j) * f.e_scal.at(e);
    };
  }
  if (op == "mlp") {
    const std::int64_t d2 = f.w.shape(1);
    return [&, d, d2](auto u, auto, auto v, std::vector<float>& m) {
      for (std::int64_t j = 0; j < d2; ++j) {
        float acc = 0.0f;
        for (std::int64_t k = 0; k < d; ++k)
          acc += (f.x.at(u, k) + f.x.at(v, k)) * f.w.at(k, j);
        m[j] = acc > 0 ? acc : 0;
      }
    };
  }
  ADD_FAILURE() << "unknown op " << op;
  return {};
}

SpmmOperands operands_for(const std::string& op, const Fixture& f) {
  SpmmOperands ops;
  ops.src_feat = &f.x;
  if (op == "copy_e" || op == "u_add_e") ops.edge_feat = &f.e_vec;
  if (op == "u_mul_e") ops.edge_feat = &f.e_scal;
  if (op == "mlp") ops.weight = &f.w;
  return ops;
}

std::int64_t d_out_for(const std::string& op, const Fixture& f) {
  return op == "mlp" ? f.w.shape(1) : f.x.row_size();
}

}  // namespace

// Sweep every builtin message op x reducer x a grid of schedules: the
// paper's central correctness property is that schedules (partitioning,
// tiling, threading) never change results.
struct SpmmCase {
  const char* msg_op;
  const char* reduce_op;
  int partitions;
  std::int64_t tile;
  int threads;
};

class SpmmSweep : public ::testing::TestWithParam<SpmmCase> {};

TEST_P(SpmmSweep, MatchesReference) {
  const auto p = GetParam();
  Fixture f(200, 6.0, 16, 8, /*seed=*/100);
  CpuSpmmSchedule sched;
  sched.num_partitions = p.partitions;
  sched.feat_tile = p.tile;
  sched.num_threads = p.threads;

  const Tensor got = fg::core::spmm(f.in_csr, p.msg_op, p.reduce_op, sched,
                                    operands_for(p.msg_op, f));
  const Tensor want = reference_spmm(f.in_csr, reference_msg(p.msg_op, f),
                                     p.reduce_op, d_out_for(p.msg_op, f));
  EXPECT_LT(fg::tensor::max_abs_diff(got, want), 2e-4f)
      << p.msg_op << "/" << p.reduce_op << " parts=" << p.partitions
      << " tile=" << p.tile << " threads=" << p.threads;
}

namespace {

std::vector<SpmmCase> make_sweep() {
  std::vector<SpmmCase> cases;
  const char* msg_ops[] = {"copy_u",  "copy_e",  "u_add_v",
                           "u_sub_v", "u_mul_v", "u_add_e",
                           "u_mul_e", "mlp"};
  const char* reduce_ops[] = {"sum", "max", "min", "mean"};
  const std::pair<int, std::int64_t> schedules[] = {
      {1, 0}, {4, 0}, {1, 8}, {4, 8}, {7, 5}};
  for (const char* m : msg_ops)
    for (const char* r : reduce_ops)
      for (auto [parts, tile] : schedules)
        cases.push_back({m, r, parts, tile, parts % 2 == 0 ? 2 : 1});
  return cases;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(AllOps, SpmmSweep, ::testing::ValuesIn(make_sweep()));

TEST(Spmm, GcnAggregationIsVanillaSpmm) {
  // copy_u + sum == A * X.
  Fixture f(50, 4.0, 8, 4, 200);
  CpuSpmmSchedule sched;
  const Tensor got =
      fg::core::spmm(f.in_csr, "copy_u", "sum", sched, {&f.x, nullptr, nullptr});
  Tensor want = Tensor::zeros({f.in_csr.num_rows, f.x.row_size()});
  for (fg::graph::eid_t e = 0; e < f.coo.num_edges(); ++e) {
    const auto u = f.coo.src[static_cast<std::size_t>(e)];
    const auto v = f.coo.dst[static_cast<std::size_t>(e)];
    for (std::int64_t j = 0; j < f.x.row_size(); ++j)
      want.at(v, j) += f.x.at(u, j);
  }
  EXPECT_LT(fg::tensor::max_abs_diff(got, want), 1e-4f);
}

TEST(Spmm, EmptyRowsProduceZeros) {
  // A path graph 0->1->2; vertex 0 has no in-edges.
  Coo coo;
  coo.num_src = coo.num_dst = 3;
  coo.src = {0, 1};
  coo.dst = {1, 2};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::full({3, 4}, 2.0f);
  for (const char* red : {"sum", "max", "min", "mean"}) {
    const Tensor out =
        fg::core::spmm(in, "copy_u", red, {}, {&x, nullptr, nullptr});
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_EQ(out.at(0, j), 0.0f) << "reducer " << red;
    EXPECT_EQ(out.at(1, 0), 2.0f);
  }
}

TEST(Spmm, ZeroEdgeGraphYieldsEmptyValueForEveryOpAndReducer) {
  // No edges at all: the edge-feature ops must take their width from the
  // edge tensor's shape (there is no nnz to divide by), and every row is an
  // empty row holding the reducer's empty value.
  constexpr std::int64_t kN = 5, kD = 7;
  Coo coo;
  coo.num_src = coo.num_dst = static_cast<fg::graph::vid_t>(kN);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  ASSERT_EQ(in.nnz(), 0);
  const Tensor x = Tensor::randn({kN, kD}, 81);
  const Tensor w = Tensor::randn({kD, 3}, 82);
  const Tensor e_vec = Tensor::zeros({0, kD});
  const Tensor e_scal = Tensor::zeros({0});
  struct Case {
    const char* op;
    SpmmOperands operands;
    std::int64_t d_out;
  };
  const std::vector<Case> cases = {
      {"copy_u", {&x, nullptr, nullptr}, kD},
      {"copy_e", {nullptr, &e_vec, nullptr}, kD},
      {"copy_e", {nullptr, &e_scal, nullptr}, 1},
      {"u_add_v", {&x, nullptr, nullptr}, kD},
      {"u_sub_v", {&x, nullptr, nullptr}, kD},
      {"u_mul_v", {&x, nullptr, nullptr}, kD},
      {"u_div_v", {&x, nullptr, nullptr}, kD},
      {"u_add_e", {&x, &e_vec, nullptr}, kD},
      {"u_add_e", {&x, &e_scal, nullptr}, kD},
      {"u_mul_e", {&x, &e_vec, nullptr}, kD},
      {"u_mul_e", {&x, &e_scal, nullptr}, kD},
      {"mlp", {&x, nullptr, &w}, 3},
  };
  const std::pair<const char*, float> reducers[] = {
      {"sum", fg::core::SumReducer::empty_value()},
      {"max", fg::core::MaxReducer::empty_value()},
      {"min", fg::core::MinReducer::empty_value()},
      {"mean", fg::core::MeanReducer::empty_value()},
  };
  CpuSpmmSchedule partitioned;
  partitioned.num_partitions = 2;
  partitioned.feat_tile = 4;
  partitioned.num_threads = 3;
  for (const Case& c : cases) {
    for (const auto& [red, empty] : reducers) {
      for (const CpuSpmmSchedule& sched : {CpuSpmmSchedule{}, partitioned}) {
        const Tensor out = fg::core::spmm(in, c.op, red, sched, c.operands);
        ASSERT_EQ(out.rows(), kN) << c.op << "/" << red;
        ASSERT_EQ(out.row_size(), c.d_out) << c.op << "/" << red;
        for (std::int64_t i = 0; i < out.numel(); ++i)
          ASSERT_EQ(out.at(i), empty) << c.op << "/" << red << " at " << i;
      }
    }
  }
}

TEST(Spmm, MaxWithAllNegativeFeatures) {
  Coo coo;
  coo.num_src = coo.num_dst = 2;
  coo.src = {0, 1};
  coo.dst = {1, 1};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x({2, 2});
  x.at(0, 0) = -5;
  x.at(0, 1) = -1;
  x.at(1, 0) = -3;
  x.at(1, 1) = -2;
  const Tensor out =
      fg::core::spmm(in, "copy_u", "max", {}, {&x, nullptr, nullptr});
  EXPECT_EQ(out.at(1, 0), -3.0f);
  EXPECT_EQ(out.at(1, 1), -1.0f);
}

TEST(Spmm, MeanDividesByInDegree) {
  Coo coo;
  coo.num_src = coo.num_dst = 3;
  coo.src = {0, 1, 2};
  coo.dst = {2, 2, 2};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x({3, 1});
  x.at(0) = 3;
  x.at(1) = 6;
  x.at(2) = 9;
  const Tensor out =
      fg::core::spmm(in, "copy_u", "mean", {}, {&x, nullptr, nullptr});
  EXPECT_FLOAT_EQ(out.at(2, 0), 6.0f);
}

TEST(Spmm, SelfLoopsAndMultiEdgesAreCounted) {
  Coo coo;
  coo.num_src = coo.num_dst = 2;
  coo.src = {0, 0, 1, 1};
  coo.dst = {0, 1, 1, 1};  // self loop at 0, double edge 1->1 and 0->1
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x({2, 1});
  x.at(0) = 1;
  x.at(1) = 10;
  const Tensor out =
      fg::core::spmm(in, "copy_u", "sum", {}, {&x, nullptr, nullptr});
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 21.0f);
}

TEST(Spmm, ScheduleInvarianceOnSkewedGraph) {
  // Heavy skew exercises nnz-balanced partition boundaries.
  const Coo coo = fg::graph::gen_two_class(10, 200, 200, 3, 300);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({in.num_cols, 24}, 301);
  const Tensor base =
      fg::core::spmm(in, "copy_u", "sum", {}, {&x, nullptr, nullptr});
  for (int parts : {2, 8, 32}) {
    for (std::int64_t tile : {std::int64_t{0}, std::int64_t{7}}) {
      for (auto lb : {fg::core::LoadBalance::kStaticRows,
                      fg::core::LoadBalance::kNnzBalanced}) {
        CpuSpmmSchedule sched;
        sched.num_partitions = parts;
        sched.feat_tile = tile;
        sched.num_threads = 2;
        sched.load_balance = lb;
        const Tensor got =
            fg::core::spmm(in, "copy_u", "sum", sched, {&x, nullptr, nullptr});
        EXPECT_LT(fg::tensor::max_abs_diff(got, base), 1e-4f)
            << parts << "/" << tile << "/" << static_cast<int>(lb);
      }
    }
  }
}

namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

// The SIMD engine's central contract: the AVX2 backend produces bit-for-bit
// the output of the scalar backend for every (msg_op, reduce_op) pair —
// exact equality for sum/mean (per-element add order is preserved along the
// feature axis) and for max/min (maxps/minps match the scalar ternary) — on
// feature widths that are NOT multiples of the 8-lane vector width, with
// empty rows present, under both row-split policies.
class SimdParitySweep : public ::testing::TestWithParam<SpmmCase> {};

TEST_P(SimdParitySweep, ScalarAndSimdBackendsBitEqual) {
  if (!fg::simd::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 hardware";
  const auto p = GetParam();
  // d=13 exercises the vector tail; at avg degree 4 a few percent of the
  // 230 rows draw no in-edges, so the empty-row fill path runs too.
  Fixture f(230, 4.0, 13, 11, /*seed=*/4200);
  CpuSpmmSchedule sched;
  sched.num_partitions = p.partitions;
  sched.feat_tile = p.tile;
  sched.num_threads = p.threads;

  Tensor scalar_out, simd_out;
  {
    fg::simd::ScopedIsa pin(fg::simd::Isa::kScalar);
    sched.load_balance = fg::core::LoadBalance::kStaticRows;
    scalar_out = fg::core::spmm(f.in_csr, p.msg_op, p.reduce_op, sched,
                                operands_for(p.msg_op, f));
  }
  {
    fg::simd::ScopedIsa pin(fg::simd::Isa::kAvx2);
    sched.load_balance = fg::core::LoadBalance::kNnzBalanced;
    simd_out = fg::core::spmm(f.in_csr, p.msg_op, p.reduce_op, sched,
                              operands_for(p.msg_op, f));
  }
  EXPECT_TRUE(bit_equal(scalar_out, simd_out))
      << p.msg_op << "/" << p.reduce_op << " parts=" << p.partitions
      << " tile=" << p.tile << " threads=" << p.threads;
}

INSTANTIATE_TEST_SUITE_P(AllOps, SimdParitySweep,
                         ::testing::ValuesIn(make_sweep()));

TEST(Spmm, EmptyRowsBitEqualAcrossBackends) {
  if (!fg::simd::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 hardware";
  // Isolated vertices 3..9: postprocess must write identical empty-row
  // values through either backend's fill.
  Coo coo;
  coo.num_src = coo.num_dst = 10;
  coo.src = {0, 1};
  coo.dst = {1, 2};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({10, 9}, 77);  // odd width again
  for (const char* red : {"sum", "max", "min", "mean"}) {
    Tensor a, b;
    {
      fg::simd::ScopedIsa pin(fg::simd::Isa::kScalar);
      a = fg::core::spmm(in, "copy_u", red, {}, {&x, nullptr, nullptr});
    }
    {
      fg::simd::ScopedIsa pin(fg::simd::Isa::kAvx2);
      b = fg::core::spmm(in, "copy_u", red, {}, {&x, nullptr, nullptr});
    }
    EXPECT_TRUE(bit_equal(a, b)) << red;
  }
}

TEST(Spmm, NnzBalancedMatchesStaticOnPowerLawGraph) {
  // The load_balance knob must never change results, only thread boundaries
  // — checked on the degree distribution it exists for.
  const Coo coo = fg::graph::gen_lognormal(400, 8.0, 1.5, 4300);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Tensor x = Tensor::randn({in.num_cols, 13}, 4301);
  for (const char* op : {"copy_u", "u_mul_v"}) {
    for (const char* red : {"sum", "max", "mean"}) {
      for (int threads : {1, 2, 4, 7}) {
        CpuSpmmSchedule stat, nnz;
        stat.num_threads = nnz.num_threads = threads;
        stat.load_balance = fg::core::LoadBalance::kStaticRows;
        nnz.load_balance = fg::core::LoadBalance::kNnzBalanced;
        const Tensor a =
            fg::core::spmm(in, op, red, stat, {&x, nullptr, nullptr});
        const Tensor b =
            fg::core::spmm(in, op, red, nnz, {&x, nullptr, nullptr});
        EXPECT_TRUE(bit_equal(a, b))
            << op << "/" << red << " threads=" << threads;
      }
    }
  }
}

TEST(Spmm, DegreeCacheIsStableAndCorrect) {
  const Coo coo = fg::graph::gen_uniform(150, 5.0, 4400);
  const Csr in = fg::graph::coo_to_in_csr(coo);
  const auto& degs = in.degrees();
  ASSERT_EQ(degs.size(), static_cast<std::size_t>(in.num_rows));
  for (fg::graph::vid_t v = 0; v < in.num_rows; ++v)
    EXPECT_EQ(degs[static_cast<std::size_t>(v)], in.degree(v));
  // Second call returns the same cached vector, not a recomputation.
  EXPECT_EQ(&in.degrees(), &degs);
  // Copies share the cache (immutable-structure contract).
  const Csr copy = in;
  EXPECT_EQ(&copy.degrees(), &degs);
}

TEST(Spmm, GenericUdfMatchesBuiltin) {
  Fixture f(120, 5.0, 12, 4, 400);
  fg::core::GenericMsgFn msg = [&](auto u, auto, auto, float* out) {
    for (std::int64_t j = 0; j < 12; ++j) out[j] = f.x.at(u, j);
  };
  CpuSpmmSchedule sched;
  sched.num_partitions = 4;
  sched.num_threads = 2;
  const Tensor generic = fg::core::spmm_generic(f.in_csr, msg, "sum", 12, sched);
  const Tensor builtin =
      fg::core::spmm(f.in_csr, "copy_u", "sum", sched, {&f.x, nullptr, nullptr});
  EXPECT_LT(fg::tensor::max_abs_diff(generic, builtin), 1e-4f);
}

TEST(Spmm, GenericUdfSupportsArbitraryComputation) {
  // A UDF no builtin covers: msg_j = sin(x_u[j]) * j (paper's flexibility
  // claim: arbitrary tensor expressions per edge).
  Fixture f(80, 4.0, 6, 4, 500);
  fg::core::GenericMsgFn msg = [&](auto u, auto, auto, float* out) {
    for (std::int64_t j = 0; j < 6; ++j)
      out[j] = std::sin(f.x.at(u, j)) * static_cast<float>(j);
  };
  const Tensor got = fg::core::spmm_generic(f.in_csr, msg, "max", 6, {});
  const Tensor want = reference_spmm(
      f.in_csr,
      [&](auto u, auto, auto, std::vector<float>& m) {
        for (std::int64_t j = 0; j < 6; ++j)
          m[j] = std::sin(f.x.at(u, j)) * static_cast<float>(j);
      },
      "max", 6);
  EXPECT_LT(fg::tensor::max_abs_diff(got, want), 1e-5f);
}

TEST(Spmm, ArgMaxTracksWinningSource) {
  Fixture f(60, 5.0, 8, 4, 600);
  std::vector<fg::graph::vid_t> args;
  const Tensor out = fg::core::spmm_copy_u_max_arg(f.in_csr, f.x, &args, 2);
  const Tensor want =
      fg::core::spmm(f.in_csr, "copy_u", "max", {}, {&f.x, nullptr, nullptr});
  EXPECT_LT(fg::tensor::max_abs_diff(out, want), 1e-5f);
  // Every argmax entry reproduces the max value; empty rows are -1.
  for (fg::graph::vid_t v = 0; v < f.in_csr.num_rows; ++v) {
    const bool empty = f.in_csr.degree(v) == 0;
    for (std::int64_t j = 0; j < 8; ++j) {
      const auto a = args[static_cast<std::size_t>(v * 8 + j)];
      if (empty) {
        EXPECT_EQ(a, -1);
      } else {
        ASSERT_GE(a, 0);
        EXPECT_FLOAT_EQ(f.x.at(a, j), out.at(v, j));
      }
    }
  }
}

TEST(Spmm, PartitionCacheSurvivesAddressRecycling) {
  // Regression test: caches must key on structure uids, not addresses. A
  // graph destroyed and replaced by a new allocation at the same address
  // must not alias the old partitioning (which silently produced wrong
  // results and absurd timings before the fix).
  Tensor results[2];
  for (int round = 0; round < 2; ++round) {
    // Different topology each round; the heap very likely recycles storage.
    const auto coo = fg::graph::gen_uniform(300 + round * 50, 8.0, 42 + round);
    const Csr in = fg::graph::coo_to_in_csr(coo);
    Tensor x = Tensor::randn({in.num_cols, 16}, 43 + round);
    CpuSpmmSchedule sched;
    sched.num_partitions = 8;
    const Tensor partitioned =
        fg::core::spmm(in, "copy_u", "sum", sched, {&x, nullptr, nullptr});
    const Tensor plain =
        fg::core::spmm(in, "copy_u", "sum", {}, {&x, nullptr, nullptr});
    EXPECT_LT(fg::tensor::max_abs_diff(partitioned, plain), 1e-4f)
        << "round " << round;
    results[round] = partitioned;
  }
}

TEST(Spmm, PartitionCacheReturnsStablePointers) {
  Fixture f(100, 4.0, 4, 4, 700);
  const auto* p4 = fg::core::cached_partition(f.in_csr, 4);
  const auto* p4_again = fg::core::cached_partition(f.in_csr, 4);
  const auto* p8 = fg::core::cached_partition(f.in_csr, 8);
  EXPECT_EQ(p4, p4_again);
  EXPECT_NE(static_cast<const void*>(p4), static_cast<const void*>(p8));
  EXPECT_EQ(fg::core::cached_partition(f.in_csr, 1), nullptr);
}

TEST(SpmmDeathTest, RejectsUnknownOps) {
  Fixture f(10, 2.0, 4, 4, 800);
  EXPECT_DEATH((void)fg::core::spmm(f.in_csr, "copy_u", "median", {},
                                    {&f.x, nullptr, nullptr}),
               "reduce");
  EXPECT_DEATH(
      (void)fg::core::spmm(f.in_csr, "bogus", "sum", {}, {&f.x, nullptr, nullptr}),
      "message op");
}

TEST(SpmmDeathTest, RejectsMissingOperands) {
  Fixture f(10, 2.0, 4, 4, 900);
  EXPECT_DEATH(
      (void)fg::core::spmm(f.in_csr, "copy_u", "sum", {}, SpmmOperands{}),
      "src_feat");
}
