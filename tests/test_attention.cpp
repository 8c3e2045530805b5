// Differential + property tests for the fused attention engine
// (core/attention.hpp), following the ISA-matrix pattern of
// tests/test_isa_differential.cpp: every builtin msg_op x every supported
// ISA x both load_balance policies x partition counts is checked against
// the composed-op oracle (tests/reference.hpp), with the scalar
// one-partition cell held to BIT-FOR-BIT equality (there the fused kernel
// performs the oracle's exact IEEE operations in its exact order) and the
// flagship copy_u pipeline additionally held bit-for-bit against the
// composed core-op chain (sddmm dot -> core::edge_softmax -> u_mul_e SpMM)
// on EVERY cell — fused vs composed never differ in arithmetic, only in
// launches; the naive-oracle tolerance covers the vector backends' dot
// reassociation and polynomial exp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/attention.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace fg = featgraph;
using fg::core::AttentionOperands;
using fg::core::AttentionResult;
using fg::core::CpuSddmmSchedule;
using fg::core::CpuSpmmSchedule;
using fg::core::LoadBalance;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::simd::Isa;
using fg::tensor::Tensor;

namespace {

// d = 19: not a multiple of 8 or 16, so every backend's tail path runs on
// every edge visit; d = 5 joins below for the d < vector-width regime.
constexpr std::int64_t kDim = 19;
constexpr std::int64_t kMlpD1 = 6;

struct Fixture {
  Coo coo;
  Csr in_csr;
  Tensor x;       // vertex features (messages AND dot logits), n x kDim
  Tensor xsmall;  // mlp input, n x kMlpD1
  Tensor w;       // mlp weight, kMlpD1 x kDim
  Tensor e_vec;   // vector edge features, nnz x kDim
  Tensor e_scal;  // scalar edge features, nnz
  Tensor logits;  // precomputed edge logits, nnz

  Fixture()
      : coo(fg::graph::gen_rmat(400, 7.0, 171)),
        in_csr(fg::graph::coo_to_in_csr(coo)),
        x(Tensor::randn({in_csr.num_cols, kDim}, 172)),
        xsmall(Tensor::randn({in_csr.num_cols, kMlpD1}, 173)),
        w(Tensor::randn({kMlpD1, kDim}, 174)),
        e_vec(Tensor::randn({in_csr.nnz(), kDim}, 175)),
        e_scal(Tensor::randn({in_csr.nnz()}, 176)),
        logits(Tensor::randn({in_csr.nnz()}, 177)) {}

  static const Fixture& get() {
    static const Fixture f;
    return f;
  }
};

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// |got - ref| <= abs + rel * |ref|, elementwise (relative form absorbs the
/// large-magnitude u_div_v messages).
void expect_close(const Tensor& got, const Tensor& ref, float rel, float abs,
                  const std::string& what) {
  ASSERT_EQ(got.numel(), ref.numel()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float g = got.at(i), r = ref.at(i);
    ASSERT_LE(std::fabs(g - r), abs + rel * std::fabs(r))
        << what << " at flat index " << i << ": got " << g << " want " << r;
  }
}

AttentionOperands operands_for(const std::string& op, const Fixture& f,
                               bool scalar_edge) {
  AttentionOperands ops;
  ops.logit_scale = 0.25f;  // exercised on every cell
  if (op == "mlp") {
    ops.src_feat = &f.xsmall;
    ops.weight = &f.w;
    ops.query = &f.x;  // logits from the wide features either way
    return ops;
  }
  ops.src_feat = &f.x;
  if (op == "copy_e" || op == "u_add_e" || op == "u_mul_e") {
    ops.edge_feat = scalar_edge ? &f.e_scal : &f.e_vec;
  }
  return ops;
}

fg::testing::RefMsgFn ref_msg_for(const std::string& op, const Fixture& f,
                                  bool scalar_edge) {
  return [&, op, scalar_edge](fg::graph::vid_t u, fg::graph::eid_t e,
                              fg::graph::vid_t v, std::vector<float>& msg) {
    if (op == "mlp") {
      for (std::int64_t j = 0; j < kDim; ++j) {
        float acc = 0.0f;
        for (std::int64_t k = 0; k < kMlpD1; ++k)
          acc += (f.xsmall.at(u, k) + f.xsmall.at(v, k)) * f.w.at(k, j);
        msg[static_cast<std::size_t>(j)] = acc > 0.0f ? acc : 0.0f;
      }
      return;
    }
    for (std::int64_t j = 0; j < kDim; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const float xu = f.x.at(u, j);
      if (op == "copy_u") {
        msg[ju] = xu;
      } else if (op == "copy_e") {
        msg[ju] = scalar_edge ? f.e_scal.at(e) : f.e_vec.at(e, j);
      } else if (op == "u_add_v") {
        msg[ju] = xu + f.x.at(v, j);
      } else if (op == "u_sub_v") {
        msg[ju] = xu - f.x.at(v, j);
      } else if (op == "u_mul_v") {
        msg[ju] = xu * f.x.at(v, j);
      } else if (op == "u_div_v") {
        msg[ju] = xu / f.x.at(v, j);
      } else if (op == "u_add_e") {
        msg[ju] = xu + (scalar_edge ? f.e_scal.at(e) : f.e_vec.at(e, j));
      } else {  // u_mul_e
        msg[ju] = xu * (scalar_edge ? f.e_scal.at(e) : f.e_vec.at(e, j));
      }
    }
  };
}

/// Naive sequential dot logit matching the fused kernel's math (exactly, on
/// the scalar backend; within dot/exp tolerance on vector backends).
fg::testing::RefLogitFn ref_dot_logit(const Tensor& q, float scale) {
  return [&q, scale](fg::graph::vid_t u, fg::graph::eid_t,
                     fg::graph::vid_t v) {
    float acc = 0.0f;
    for (std::int64_t k = 0; k < q.row_size(); ++k)
      acc += q.at(u, k) * q.at(v, k);
    return acc * scale;
  };
}

}  // namespace

TEST(Attention, FusedMatchesOracleOnEveryMsgOpIsaBalancePartitionCell) {
  const Fixture& f = Fixture::get();
  const auto isas = fg::simd::supported_isas();
  ASSERT_GE(isas.size(), 1u);
  // u_op_e runs twice: once with broadcast scalar edge features (the
  // waxpy_binop_scalar path) and once with full vector edge features (the
  // waxpy_binop path).
  struct Case {
    const char* op;
    bool scalar_edge;
  };
  const Case cases[] = {{"copy_u", false},  {"copy_e", false},
                        {"u_add_v", false}, {"u_sub_v", false},
                        {"u_mul_v", false}, {"u_div_v", false},
                        {"u_add_e", true},  {"u_add_e", false},
                        {"u_mul_e", true},  {"u_mul_e", false},
                        {"mlp", false}};
  for (const Case c : cases) {
    const char* op = c.op;
    const bool scalar_edge = c.scalar_edge;
    const AttentionOperands operands = operands_for(op, f, scalar_edge);
    // The dot logits always come from the wide features (operands_for sets
    // query = &f.x for mlp; the rest default query to src_feat = &f.x).
    Tensor ref_alpha;
    const Tensor oracle = fg::testing::reference_attention(
        f.in_csr, ref_msg_for(op, f, scalar_edge),
        ref_dot_logit(f.x, operands.logit_scale), kDim, &ref_alpha);
    for (const Isa isa : isas) {
      fg::simd::ScopedIsa pin(isa);
      for (const LoadBalance lb :
           {LoadBalance::kStaticRows, LoadBalance::kNnzBalanced}) {
        for (const int parts : {1, 4}) {
          CpuSpmmSchedule sched;
          sched.num_threads = 3;
          sched.load_balance = lb;
          sched.num_partitions = parts;
          const AttentionResult got =
              fg::core::attention(f.in_csr, op, sched, operands);
          const std::string cell = std::string(op) +
                                   (scalar_edge ? "(e-scalar)" : "") +
                                   " isa=" + fg::simd::isa_name(isa) +
                                   " lb=" + std::to_string(static_cast<int>(lb)) +
                                   " parts=" + std::to_string(parts);
          if (isa == Isa::kScalar) {
            // Scalar backend: libm exp, sequential dot — the oracle's exact
            // operations. alpha is bit-for-bit for ANY schedule (the per-row
            // softmax order never changes); the aggregation is bit-for-bit
            // unpartitioned (partitioning reorders per-row edge visits,
            // which reassociates the weighted sum).
            EXPECT_TRUE(bit_equal(got.alpha, ref_alpha)) << cell;
            if (parts == 1) {
              EXPECT_TRUE(bit_equal(got.out, oracle)) << cell;
            } else {
              expect_close(got.out, oracle, 1e-4f, 1e-4f, cell);
            }
          } else {
            // Vector backends: dot reassociates (FMA) and exp is the ~2 ulp
            // polynomial — tolerance, matching the simd.hpp contract.
            expect_close(got.alpha, ref_alpha, 1e-4f, 1e-6f, cell + " alpha");
            expect_close(got.out, oracle, 1e-4f, 1e-4f, cell);
          }
        }
      }
    }
  }
}

TEST(Attention, FusedCopyUIsBitForBitWithComposedCoreOpsOnEveryCell) {
  // The acceptance property, stronger than the <= 1e-6 relative bound: the
  // fused kernel and the composed chain it replaces (SDDMM dot logits ->
  // fused segment softmax -> u_mul_e SpMM) perform identical arithmetic on
  // every ISA / load-balance / partition cell — the fusion moves launches,
  // never operations.
  const Fixture& f = Fixture::get();
  const float s = 0.25f;
  AttentionOperands operands;
  operands.src_feat = &f.x;
  operands.logit_scale = s;
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    // Composed chain at the same ISA.
    CpuSddmmSchedule sddmm_sched;
    sddmm_sched.num_threads = 3;
    Tensor logits =
        fg::core::sddmm(f.coo, "dot", sddmm_sched, {&f.x, nullptr});
    for (std::int64_t e = 0; e < logits.numel(); ++e) logits.at(e) *= s;
    const Tensor alpha = fg::core::edge_softmax(f.in_csr, logits, 3);
    for (const LoadBalance lb :
         {LoadBalance::kStaticRows, LoadBalance::kNnzBalanced}) {
      for (const int parts : {1, 4}) {
        CpuSpmmSchedule sched;
        sched.num_threads = 3;
        sched.load_balance = lb;
        sched.num_partitions = parts;
        const Tensor composed = fg::core::spmm(f.in_csr, "u_mul_e", "sum",
                                               sched, {&f.x, &alpha, nullptr});
        const AttentionResult fused =
            fg::core::attention(f.in_csr, "copy_u", sched, operands);
        const std::string cell = std::string("isa=") +
                                 fg::simd::isa_name(isa) +
                                 " lb=" + std::to_string(static_cast<int>(lb)) +
                                 " parts=" + std::to_string(parts);
        EXPECT_TRUE(bit_equal(fused.alpha, alpha)) << cell << " alpha";
        EXPECT_TRUE(bit_equal(fused.out, composed)) << cell << " out";
      }
    }
  }
}

TEST(Attention, PrecomputedEdgeLogitsMatchOracle) {
  const Fixture& f = Fixture::get();
  AttentionOperands operands;
  operands.src_feat = &f.x;
  operands.edge_logits = &f.logits;
  operands.logit_scale = 1.5f;
  const Tensor oracle = fg::testing::reference_attention(
      f.in_csr, ref_msg_for("copy_u", f, false),
      [&](fg::graph::vid_t, fg::graph::eid_t e, fg::graph::vid_t) {
        return f.logits.at(e) * 1.5f;
      },
      kDim);
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    const AttentionResult got =
        fg::core::attention(f.in_csr, "copy_u", {}, operands);
    if (isa == Isa::kScalar) {
      EXPECT_TRUE(bit_equal(got.out, oracle));
    } else {
      expect_close(got.out, oracle, 1e-4f, 1e-5f, fg::simd::isa_name(isa));
    }
  }
}

TEST(Attention, EdgeCaseRowsEmptySingleEdgeIsolatedAndHub) {
  // Handcrafted topology: row 1 is a 4-edge hub, row 2 has exactly one
  // in-edge, row 4 has two, rows 0/3 have out-edges only (empty rows), and
  // vertices 5/6 are fully isolated.
  Coo coo;
  coo.num_src = coo.num_dst = 7;
  coo.src = {0, 2, 3, 4, 1, 0, 1};
  coo.dst = {1, 1, 1, 1, 2, 4, 4};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  const Tensor x = Tensor::randn({7, 11}, 333);  // 11 = another awkward tail
  AttentionOperands operands;
  operands.src_feat = &x;
  const fg::testing::RefMsgFn ref_msg =
      [&](fg::graph::vid_t u, fg::graph::eid_t, fg::graph::vid_t,
          std::vector<float>& msg) {
        for (std::int64_t j = 0; j < 11; ++j)
          msg[static_cast<std::size_t>(j)] = x.at(u, j);
      };
  const Tensor oracle = fg::testing::reference_attention(
      in, ref_msg, ref_dot_logit(x, 1.0f), 11);
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    for (const int parts : {1, 2}) {
      CpuSpmmSchedule sched;
      sched.num_threads = 2;
      sched.num_partitions = parts;
      const AttentionResult got =
          fg::core::attention(in, "copy_u", sched, operands);
      expect_close(got.out, oracle, 1e-4f, 1e-5f, fg::simd::isa_name(isa));
      // Empty rows aggregate to exactly zero.
      for (const fg::graph::vid_t v : {0, 3, 5, 6})
        for (std::int64_t j = 0; j < 11; ++j)
          EXPECT_EQ(got.out.at(v, j), 0.0f) << "row " << v;
      // A single-edge segment's softmax weight is exactly 1.
      EXPECT_EQ(got.alpha.at(4), 1.0f);
      // Every segment's weights sum to 1.
      for (fg::graph::vid_t v = 0; v < in.num_rows; ++v) {
        if (in.degree(v) == 0) continue;
        float sum = 0.0f;
        for (std::int64_t i = in.indptr[v]; i < in.indptr[v + 1]; ++i)
          sum += got.alpha.at(in.edge_ids[static_cast<std::size_t>(i)]);
        EXPECT_NEAR(sum, 1.0f, 1e-5f) << "row " << v;
      }
    }
  }
}

TEST(Attention, ZeroDegreeRowsYieldZerosNeverNaN) {
  // The empty-segment softmax pin: a destination with no in-edges must
  // aggregate to EXACTLY zero on every backend — never NaN from an hmax
  // over an empty segment (-inf row max) or a 0/0 normalization. Exercises
  // both a mixed graph (one nonempty row among empties) and the all-empty
  // graph, where the whole output is the zero fill.
  Coo coo;
  coo.num_src = coo.num_dst = 6;
  coo.src = {0, 2, 4};
  coo.dst = {1, 1, 1};
  const Csr in = fg::graph::coo_to_in_csr(coo);
  Coo empty;
  empty.num_src = empty.num_dst = 6;
  const Csr ein = fg::graph::coo_to_in_csr(empty);
  const Tensor x = Tensor::randn({6, 11}, 555);
  AttentionOperands operands;
  operands.src_feat = &x;
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    const AttentionResult mixed = fg::core::attention(in, "copy_u", {}, operands);
    for (std::int64_t i = 0; i < mixed.out.numel(); ++i)
      ASSERT_FALSE(std::isnan(mixed.out.at(i)))
          << fg::simd::isa_name(isa) << " flat " << i;
    for (const fg::graph::vid_t v : {0, 2, 3, 4, 5})
      for (std::int64_t j = 0; j < 11; ++j)
        EXPECT_EQ(mixed.out.at(v, j), 0.0f)
            << fg::simd::isa_name(isa) << " row " << v;

    const AttentionResult all_empty =
        fg::core::attention(ein, "copy_u", {}, operands);
    EXPECT_EQ(all_empty.alpha.numel(), 0);
    for (std::int64_t i = 0; i < all_empty.out.numel(); ++i) {
      ASSERT_FALSE(std::isnan(all_empty.out.at(i)));
      EXPECT_EQ(all_empty.out.at(i), 0.0f);
    }
    // The standalone fused edge softmax shares the empty-segment contract.
    const Tensor none = Tensor::zeros({0});
    const Tensor alpha = fg::core::edge_softmax(ein, none, 2);
    EXPECT_EQ(alpha.numel(), 0);
  }
}

TEST(Attention, ZeroEdgeGraphRunsEveryMsgOp) {
  // Like spmm, attention over a graph with no edges returns all-zero rows
  // of the message width for every msg op — copy_e and u_op_e read the
  // width off the {0, d} edge tensor's trailing shape — and so does the
  // memoized tuner's width lookup.
  Coo empty;
  empty.num_src = empty.num_dst = 5;
  const Csr ein = fg::graph::coo_to_in_csr(empty);
  const Tensor x = Tensor::randn({5, 7}, 556);
  const Tensor xsmall = Tensor::randn({5, 3}, 557);
  const Tensor w = Tensor::randn({3, 7}, 558);
  const Tensor e = Tensor::zeros({0, 7});
  for (const char* op : {"copy_u", "copy_e", "u_add_v", "u_sub_v", "u_mul_v",
                         "u_div_v", "u_add_e", "u_mul_e", "mlp"}) {
    AttentionOperands operands;
    const bool mlp = std::string(op) == "mlp";
    operands.src_feat = mlp ? &xsmall : &x;
    operands.weight = mlp ? &w : nullptr;
    operands.edge_feat = &e;
    operands.query = &x;
    const AttentionResult r = fg::core::attention(ein, op, {}, operands);
    EXPECT_EQ(r.alpha.numel(), 0) << op;
    ASSERT_EQ(r.out.rows(), 5) << op;
    ASSERT_EQ(r.out.row_size(), 7) << op;
    for (std::int64_t i = 0; i < r.out.numel(); ++i)
      EXPECT_EQ(r.out.at(i), 0.0f) << op << " " << i;
  }
  AttentionOperands copy_e;
  copy_e.edge_feat = &e;
  copy_e.query = &x;
  const CpuSpmmSchedule s =
      fg::core::tuned_attention_schedule(ein, "copy_e", copy_e, 1);
  EXPECT_EQ(s.num_threads, 1);
}

TEST(Attention, AlphaIsInvariantAcrossEverySchedule) {
  // The softmax never depends on the aggregation schedule: alpha must be
  // bit-for-bit identical across load_balance x partitions x feat_tile (at
  // a fixed ISA — threads only move row ownership, never per-row order).
  const Fixture& f = Fixture::get();
  AttentionOperands operands;
  operands.src_feat = &f.x;
  Tensor first;
  for (const LoadBalance lb :
       {LoadBalance::kStaticRows, LoadBalance::kNnzBalanced}) {
    for (const int parts : {1, 4}) {
      for (const std::int64_t tile : {std::int64_t{0}, std::int64_t{7}}) {
        CpuSpmmSchedule sched;
        sched.num_threads = 3;
        sched.load_balance = lb;
        sched.num_partitions = parts;
        sched.feat_tile = tile;
        const AttentionResult got =
            fg::core::attention(f.in_csr, "copy_u", sched, operands);
        if (!first.defined()) {
          first = got.alpha.clone();
        } else {
          EXPECT_TRUE(bit_equal(got.alpha, first))
              << "lb=" << static_cast<int>(lb) << " parts=" << parts
              << " tile=" << tile;
        }
      }
    }
  }
}

TEST(Attention, FeatTileNeverChangesUnpartitionedResults) {
  // Tiling the aggregation axis re-sweeps the row's edges per tile but runs
  // the identical per-element operations — bit-for-bit at one partition.
  const Fixture& f = Fixture::get();
  AttentionOperands operands;
  operands.src_feat = &f.x;
  CpuSpmmSchedule ref_sched;
  ref_sched.num_threads = 3;
  const AttentionResult ref =
      fg::core::attention(f.in_csr, "copy_u", ref_sched, operands);
  for (const std::int64_t tile : {std::int64_t{5}, std::int64_t{16}}) {
    CpuSpmmSchedule sched = ref_sched;
    sched.feat_tile = tile;
    const AttentionResult got =
        fg::core::attention(f.in_csr, "copy_u", sched, operands);
    EXPECT_TRUE(bit_equal(got.out, ref.out)) << "tile=" << tile;
  }
}

TEST(Attention, SoftmaxInvariantUnderPerRowLogitShifts) {
  // The property the row-max subtraction exists for: adding any constant to
  // a destination's logits leaves its softmax (and the aggregate) unchanged
  // up to rounding.
  const Fixture& f = Fixture::get();
  Tensor shifted = f.logits.clone();
  const Csr& in = f.in_csr;
  for (fg::graph::vid_t v = 0; v < in.num_rows; ++v) {
    const float shift = 10.0f + 0.5f * static_cast<float>(v % 13);
    for (std::int64_t i = in.indptr[v]; i < in.indptr[v + 1]; ++i)
      shifted.at(in.edge_ids[static_cast<std::size_t>(i)]) += shift;
  }
  AttentionOperands base;
  base.src_feat = &f.x;
  base.edge_logits = &f.logits;
  AttentionOperands moved = base;
  moved.edge_logits = &shifted;
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    const AttentionResult a = fg::core::attention(in, "copy_u", {}, base);
    const AttentionResult b = fg::core::attention(in, "copy_u", {}, moved);
    expect_close(b.alpha, a.alpha, 1e-5f, 1e-6f, fg::simd::isa_name(isa));
    expect_close(b.out, a.out, 1e-5f, 1e-5f, fg::simd::isa_name(isa));
  }
}

TEST(Attention, ForwardAgreesAcrossIsaLevelsWithinDocumentedTolerance) {
  // Cross-ISA drift comes from exactly two documented sources: the logits'
  // reassociated FMA dot and the vector backends' polynomial exp (~2 ulp).
  // Everything else (softmax order, weighted accumulates) is pinned, so the
  // GAT-style forward agrees across scalar/avx2/avx512 to tight tolerance.
  const Fixture& f = Fixture::get();
  AttentionOperands operands;
  operands.src_feat = &f.x;
  operands.logit_scale =
      1.0f / std::sqrt(static_cast<float>(kDim));
  Tensor ref_out, ref_alpha;
  {
    fg::simd::ScopedIsa pin(Isa::kScalar);
    AttentionResult r = fg::core::attention(f.in_csr, "copy_u", {}, operands);
    ref_out = std::move(r.out);
    ref_alpha = std::move(r.alpha);
  }
  for (const Isa isa : fg::simd::supported_isas()) {
    if (isa == Isa::kScalar) continue;
    fg::simd::ScopedIsa pin(isa);
    const AttentionResult got =
        fg::core::attention(f.in_csr, "copy_u", {}, operands);
    expect_close(got.alpha, ref_alpha, 1e-5f, 1e-7f, fg::simd::isa_name(isa));
    expect_close(got.out, ref_out, 1e-5f, 1e-6f, fg::simd::isa_name(isa));
  }
}

TEST(Attention, UniformLogitsReduceToMeanAggregation) {
  // With equal logits per row, alpha = 1/deg — attention degenerates to the
  // mean-reduced SpMM.
  const Fixture& f = Fixture::get();
  const Tensor zeros = Tensor::zeros({f.in_csr.nnz()});
  AttentionOperands operands;
  operands.src_feat = &f.x;
  operands.edge_logits = &zeros;
  const AttentionResult got =
      fg::core::attention(f.in_csr, "copy_u", {}, operands);
  const Tensor mean = fg::core::spmm(f.in_csr, "copy_u", "mean", {},
                                     {&f.x, nullptr, nullptr});
  expect_close(got.out, mean, 1e-5f, 1e-5f, "uniform-logit mean");
}

TEST(Attention, EdgeSoftmaxRoundTripsThroughBackward) {
  // d(sum alpha)/dlogit = 0 per segment: feeding ones as upstream gradient
  // must produce an (analytically) zero logit gradient.
  const Fixture& f = Fixture::get();
  const Tensor alpha = fg::core::edge_softmax(f.in_csr, f.logits, 3);
  Tensor ones = Tensor::full({f.in_csr.nnz()}, 1.0f);
  const Tensor dl =
      fg::core::edge_softmax_backward(f.in_csr, alpha, ones, 3);
  for (std::int64_t e = 0; e < dl.numel(); ++e)
    EXPECT_NEAR(dl.at(e), 0.0f, 1e-6f) << "edge " << e;
}
