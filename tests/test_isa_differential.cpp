// End-to-end ISA differential tests (GNNBENCH's lesson: backend speedups
// hide correctness drift unless every backend is validated against one
// oracle, not just against each other).
//
// Random R-MAT SpMM/SDDMM results under ScopedIsa for EVERY available ISA
// level must match the naive tests/reference.hpp oracle, for all builtin
// UDFs x reducers x both load_balance modes — and, on accumulation paths,
// must additionally be bit-for-bit identical to the scalar backend (the
// simd.hpp rounding contract observed through the full kernel stack).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/attention.hpp"
#include "core/partition_cache.hpp"
#include "core/schedule_ir.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "graph/generators.hpp"
#include "reference.hpp"

namespace fg = featgraph;
using fg::core::CpuSddmmSchedule;
using fg::core::CpuSpmmSchedule;
using fg::core::LoadBalance;
using fg::graph::Coo;
using fg::graph::Csr;
using fg::simd::Isa;
using fg::tensor::Tensor;

namespace {

// d = 19: not a multiple of 8 or 16, so every backend's tail path (scalar
// peel on AVX2, lane mask on AVX-512) runs on every edge visit.
constexpr std::int64_t kDim = 19;
constexpr std::int64_t kMlpD1 = 6;

struct Fixture {
  Coo coo;
  Csr in_csr;
  Tensor x;       // vertex features, n x kDim
  Tensor xsmall;  // mlp input, n x kMlpD1
  Tensor w;       // mlp weight, kMlpD1 x kDim
  Tensor e_vec;   // vector edge features, nnz x kDim
  Tensor e_scal;  // scalar edge features, nnz

  Fixture()
      : coo(fg::graph::gen_rmat(500, 8.0, 91)),
        in_csr(fg::graph::coo_to_in_csr(coo)),
        x(Tensor::randn({in_csr.num_cols, kDim}, 92)),
        xsmall(Tensor::randn({in_csr.num_cols, kMlpD1}, 93)),
        w(Tensor::randn({kMlpD1, kDim}, 94)),
        e_vec(Tensor::randn({in_csr.nnz(), kDim}, 95)),
        e_scal(Tensor::randn({in_csr.nnz()}, 96)) {}

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

fg::core::SpmmOperands operands_for(const std::string& op, const Fixture& f,
                                    bool scalar_edge) {
  fg::core::SpmmOperands ops{nullptr, nullptr, nullptr};
  if (op == "mlp") {
    ops.src_feat = &f.xsmall;
    ops.weight = &f.w;
    return ops;
  }
  ops.src_feat = &f.x;
  if (op == "copy_e" || op == "u_add_e" || op == "u_mul_e") {
    ops.edge_feat = scalar_edge ? &f.e_scal : &f.e_vec;
  }
  return ops;
}

/// The blackbox oracle for one builtin msg op (mirrors the kernel's math in
/// the naive per-element form).
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

}  // namespace

TEST(IsaDifferential, SpmmAllUdfsReducersBalancesMatchOracleOnEveryIsa) {
  const Fixture& f = Fixture::get();
  const auto isas = fg::simd::supported_isas();
  ASSERT_GE(isas.size(), 1u);
  const char* msg_ops[] = {"copy_u", "copy_e",  "u_add_v",
                           "u_sub_v", "u_mul_v", "u_div_v",
                           "u_add_e", "u_mul_e", "mlp"};
  const char* reducers[] = {"sum", "max", "min", "mean"};
  for (const char* op : msg_ops) {
    // u_op_e supports scalar-broadcast and vector edge features; copy_e's
    // vector form suffices (scalar copy_e is d_out == 1).
    const bool scalar_edge =
        std::string(op) == "u_add_e" || std::string(op) == "u_mul_e";
    const auto operands = operands_for(op, f, scalar_edge);
    const auto ref_msg = ref_msg_for(op, f, scalar_edge);
    for (const char* red : reducers) {
      const std::int64_t d_out = kDim;
      const Tensor oracle =
          fg::testing::reference_spmm(f.in_csr, ref_msg, red, d_out);
      Tensor scalar_out;
      for (const Isa isa : isas) {
        fg::simd::ScopedIsa pin(isa);
        for (const LoadBalance lb :
             {LoadBalance::kStaticRows, LoadBalance::kNnzBalanced}) {
          CpuSpmmSchedule sched;
          sched.num_threads = 3;
          sched.load_balance = lb;
          const Tensor got = fg::core::spmm(f.in_csr, op, red, sched, operands);
          // The mlp UDF's rank-1-update k-loop reassociates vs the oracle's
          // per-element dot; everything else runs the oracle's exact
          // reduction order (one partition, row-owned threads).
          const float tol = std::string(op) == "mlp" ? 1e-4f : 2e-5f;
          EXPECT_LT(fg::tensor::max_abs_diff(got, oracle), tol)
              << op << "/" << red << " isa=" << fg::simd::isa_name(isa)
              << " lb=" << static_cast<int>(lb);
          // Accumulation paths: bit-for-bit with the scalar backend.
          if (isa == Isa::kScalar && lb == LoadBalance::kStaticRows) {
            scalar_out = got.clone();
          } else {
            EXPECT_TRUE(bit_equal(got, scalar_out))
                << op << "/" << red << " isa=" << fg::simd::isa_name(isa)
                << " lb=" << static_cast<int>(lb)
                << " not bit-equal to scalar backend";
          }
        }
      }
    }
  }
}

TEST(IsaDifferential, SpmmLegalIrProgramsBitIdenticalToDefaultOnEveryIsa) {
  // The Schedule-IR bit-identity contract observed through the full kernel
  // stack: every ORDER-PRESERVING program — chunking, register-blocked
  // tiles, nnz-splitting — produces output bit-for-bit identical to the
  // default schedule on the SAME backend, for every msg op x reducer.
  // partition(P) regroups each destination row's in-edges by source bucket
  // (an intentional fold reorder, same as the flat num_partitions knob), so
  // partitioned programs are pinned against their flat-knob spelling
  // instead — the program nests the tiles inside row chunks, the flat
  // spelling runs them outermost, and both must fold identically. (The
  // bucket-ordered oracle test below pins that shared fold independently;
  // cross-backend identity is the previous test; composing them gives
  // program x ISA identity.)
  const Fixture& f = Fixture::get();
  const auto isas = fg::simd::supported_isas();
  using fg::core::ScheduleIr;
  // d_out = kDim = 19: tile widths 8 and 16 are legal on every backend
  // (scalar takes any width; AVX2 is 8-lane; AVX-512 reroutes 8 and takes
  // 16 natively). flat_parts == 1 compares against the default schedule;
  // flat_parts > 1 compares against {num_partitions, feat_tile} flat knobs.
  struct Case {
    ScheduleIr prog;
    int flat_parts = 1;
    std::int64_t flat_tile = 0;
  };
  const std::vector<Case> cases = {
      {ScheduleIr().chunk(64)},
      {ScheduleIr().tile(8)},
      {ScheduleIr().tile(16).unroll(4)},
      {ScheduleIr().tile(8).unroll(2).chunk(100)},
      {ScheduleIr().split_nnz(LoadBalance::kStaticRows).tile(8).unroll(4)},
      {ScheduleIr().partition(4).tile(16).unroll(4), 4, 16},
  };
  const char* msg_ops[] = {"copy_u", "copy_e", "u_add_v", "u_sub_v",
                           "u_mul_v", "u_div_v", "u_add_e", "u_mul_e", "mlp"};
  const char* reducers[] = {"sum", "max", "min", "mean"};
  for (const char* op : msg_ops) {
    const bool scalar_edge =
        std::string(op) == "u_add_e" || std::string(op) == "u_mul_e";
    const auto operands = operands_for(op, f, scalar_edge);
    for (const char* red : reducers) {
      for (const Isa isa : isas) {
        fg::simd::ScopedIsa pin(isa);
        for (const Case& c : cases) {
          ASSERT_EQ(fg::core::validate_spmm_ir(c.prog, f.in_csr.num_rows,
                                               kDim, isa),
                    "")
              << c.prog.describe();
          CpuSpmmSchedule baseline;
          baseline.num_threads = 3;
          if (c.flat_parts > 1) {
            baseline.num_partitions = c.flat_parts;
            baseline.feat_tile = c.flat_tile;
          }
          const Tensor want =
              fg::core::spmm(f.in_csr, op, red, baseline, operands);
          CpuSpmmSchedule s;
          s.num_threads = 3;
          s.ir = std::make_shared<const ScheduleIr>(c.prog);
          const Tensor got = fg::core::spmm(f.in_csr, op, red, s, operands);
          EXPECT_TRUE(bit_equal(got, want))
              << op << "/" << red << " isa=" << fg::simd::isa_name(isa)
              << " program=" << c.prog.describe();
        }
      }
    }
  }
}

TEST(IsaDifferential, SpmmPartitionedSchedulesMatchBucketOracleOnScalar) {
  // A partitioned launch folds each row's in-edges bucket by bucket, so the
  // in-order oracle only matches it to tolerance. The bucket-ordered oracle
  // performs the scalar backend's exact IEEE operations in the same order,
  // pinning the one SpMM loop nest bit-for-bit with no kernel on the other
  // side: flat {P, W} schedules (tiles outermost; W = 5 leaves a ragged
  // last tile) and a chunked register-blocked program (tiles inside row
  // chunks), at 1, 3 and 4 threads. Other backends are bit-identical to
  // scalar (SpmmAllUdfsReducersBalancesMatchOracleOnEveryIsa).
  const Fixture& f = Fixture::get();
  fg::simd::ScopedIsa pin(Isa::kScalar);
  using fg::core::ScheduleIr;
  struct Case {
    int parts;
    std::int64_t flat_tile;
    std::shared_ptr<const ScheduleIr> prog;
  };
  const std::vector<Case> cases = {
      {4, 0, nullptr},
      {4, 8, nullptr},
      {3, 5, nullptr},
      {8, 16, nullptr},
      {4, 0,
       std::make_shared<const ScheduleIr>(
           ScheduleIr().partition(4).tile(8).unroll(4).chunk(64))},
  };
  const char* msg_ops[] = {"copy_u", "copy_e", "u_add_v", "u_sub_v",
                           "u_mul_v", "u_div_v", "u_add_e", "u_mul_e", "mlp"};
  const char* reducers[] = {"sum", "max", "min", "mean"};
  for (const char* op : msg_ops) {
    const bool scalar_edge =
        std::string(op) == "u_add_e" || std::string(op) == "u_mul_e";
    const auto operands = operands_for(op, f, scalar_edge);
    const auto ref_msg = ref_msg_for(op, f, scalar_edge);
    for (const char* red : reducers) {
      for (const Case& c : cases) {
        const auto* parts = fg::core::cached_partition(f.in_csr, c.parts);
        ASSERT_NE(parts, nullptr);
        const Tensor oracle =
            fg::testing::reference_spmm_bucketed(*parts, ref_msg, red, kDim);
        for (const int threads : {1, 3, 4}) {
          CpuSpmmSchedule s;
          s.num_threads = threads;
          s.num_partitions = c.parts;
          s.feat_tile = c.flat_tile;
          s.ir = c.prog;
          const Tensor got = fg::core::spmm(f.in_csr, op, red, s, operands);
          EXPECT_TRUE(bit_equal(got, oracle))
              << op << "/" << red << " parts=" << c.parts
              << " tile=" << c.flat_tile << " threads=" << threads
              << " program=" << (c.prog ? c.prog->describe() : "");
        }
      }
    }
  }
}

TEST(IsaDifferential, AttentionIrProgramsBitIdenticalToDefaultOnEveryIsa) {
  // Fused attention interprets the same lowered plan (including the
  // weighted register-blocked path for copy_u); softmax spans are
  // degree-length regardless of the program, so bit-identity holds.
  // Order-preserving programs pin against the default schedule; the
  // partitioned program pins against its flat-knob spelling (partitioning
  // regroups each row's edge fold by source bucket, exactly like the flat
  // num_partitions knob).
  const Fixture& f = Fixture::get();
  const auto isas = fg::simd::supported_isas();
  using fg::core::ScheduleIr;
  fg::core::AttentionOperands ops;
  ops.src_feat = &f.x;
  ops.logit_scale = 0.25f;
  struct Case {
    ScheduleIr prog;
    int flat_parts = 1;
    std::int64_t flat_tile = 0;
  };
  const std::vector<Case> cases = {
      {ScheduleIr().chunk(64)},
      {ScheduleIr().tile(16).unroll(4)},
      {ScheduleIr().tile(8).unroll(2).chunk(100)},
      {ScheduleIr().partition(2).tile(8), 2, 8},
  };
  for (const Isa isa : isas) {
    fg::simd::ScopedIsa pin(isa);
    for (const Case& c : cases) {
      CpuSpmmSchedule baseline;
      baseline.num_threads = 3;
      if (c.flat_parts > 1) {
        baseline.num_partitions = c.flat_parts;
        baseline.feat_tile = c.flat_tile;
      }
      const auto want = fg::core::attention(f.in_csr, "copy_u", baseline, ops);
      CpuSpmmSchedule s;
      s.num_threads = 3;
      s.ir = std::make_shared<const ScheduleIr>(c.prog);
      const auto got = fg::core::attention(f.in_csr, "copy_u", s, ops);
      EXPECT_TRUE(bit_equal(got.out, want.out))
          << "out isa=" << fg::simd::isa_name(isa)
          << " program=" << c.prog.describe();
      EXPECT_TRUE(bit_equal(got.alpha, want.alpha))
          << "alpha isa=" << fg::simd::isa_name(isa)
          << " program=" << c.prog.describe();
    }
  }
}

TEST(IsaDifferential, SddmmIrProgramsBitIdenticalToFlatOnEveryIsa) {
  // SDDMM programs: chunk(C) is a pure split of the per-thread edge loop
  // (bit-identical to untiled flat), and tile(W) runs the identical code
  // path as the flat reduce_tile knob.
  const Fixture& f = Fixture::get();
  const auto isas = fg::simd::supported_isas();
  using fg::core::ScheduleIr;
  for (const Isa isa : isas) {
    fg::simd::ScopedIsa pin(isa);
    CpuSddmmSchedule def;
    def.num_threads = 3;
    const Tensor want = fg::core::sddmm(f.coo, "dot", def, {&f.x, nullptr});

    CpuSddmmSchedule chunked = def;
    chunked.ir = std::make_shared<const ScheduleIr>(ScheduleIr().chunk(128));
    EXPECT_TRUE(bit_equal(
        fg::core::sddmm(f.coo, "dot", chunked, {&f.x, nullptr}), want))
        << "chunk isa=" << fg::simd::isa_name(isa);

    CpuSddmmSchedule flat_tiled = def;
    flat_tiled.reduce_tile = 8;
    CpuSddmmSchedule ir_tiled = def;
    ir_tiled.ir = std::make_shared<const ScheduleIr>(ScheduleIr().tile(8));
    EXPECT_TRUE(bit_equal(
        fg::core::sddmm(f.coo, "dot", ir_tiled, {&f.x, nullptr}),
        fg::core::sddmm(f.coo, "dot", flat_tiled, {&f.x, nullptr})))
        << "tile isa=" << fg::simd::isa_name(isa);
  }
}

TEST(IsaDifferential, SddmmAllEdgeOpsMatchOracleOnEveryIsa) {
  const Fixture& f = Fixture::get();
  const auto isas = fg::simd::supported_isas();

  // dot / u_add_v / u_mul_v over n x kDim features.
  struct Case {
    const char* op;
    std::int64_t d_out;
  };
  for (const Case c : {Case{"dot", 1}, Case{"u_add_v", kDim},
                       Case{"u_mul_v", kDim}}) {
    const fg::testing::RefEdgeFn ref_fn =
        [&](fg::graph::vid_t u, fg::graph::eid_t, fg::graph::vid_t v,
            std::vector<float>& out) {
          if (std::string(c.op) == "dot") {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < kDim; ++k)
              acc += f.x.at(u, k) * f.x.at(v, k);
            out[0] = acc;
          } else {
            for (std::int64_t j = 0; j < kDim; ++j) {
              const auto ju = static_cast<std::size_t>(j);
              out[ju] = std::string(c.op) == "u_add_v"
                            ? f.x.at(u, j) + f.x.at(v, j)
                            : f.x.at(u, j) * f.x.at(v, j);
            }
          }
        };
    const Tensor oracle = fg::testing::reference_sddmm(f.coo, ref_fn, c.d_out);
    for (const Isa isa : isas) {
      fg::simd::ScopedIsa pin(isa);
      for (const bool hilbert : {false, true}) {
        CpuSddmmSchedule sched;
        sched.num_threads = 3;
        sched.hilbert_order = hilbert;
        const Tensor got = fg::core::sddmm(f.coo, c.op, sched, {&f.x, nullptr});
        EXPECT_LT(fg::tensor::max_abs_diff(got, oracle), 1e-4f)
            << c.op << " isa=" << fg::simd::isa_name(isa)
            << " hilbert=" << hilbert;
      }
    }
  }

  // multihead_dot over (n x heads x head_dim) with head_dim not a multiple
  // of any vector width.
  const std::int64_t heads = 3, head_dim = 5;
  Tensor a3 = Tensor::randn({f.in_csr.num_cols, heads, head_dim}, 97);
  const fg::testing::RefEdgeFn ref_mh =
      [&](fg::graph::vid_t u, fg::graph::eid_t, fg::graph::vid_t v,
          std::vector<float>& out) {
        for (std::int64_t h = 0; h < heads; ++h) {
          float acc = 0.0f;
          for (std::int64_t k = 0; k < head_dim; ++k)
            acc += a3.at((u * heads + h) * head_dim + k) *
                   a3.at((v * heads + h) * head_dim + k);
          out[static_cast<std::size_t>(h)] = acc;
        }
      };
  const Tensor oracle = fg::testing::reference_sddmm(f.coo, ref_mh, heads);
  for (const Isa isa : isas) {
    fg::simd::ScopedIsa pin(isa);
    const Tensor got =
        fg::core::sddmm(f.coo, "multihead_dot", {}, {&a3, nullptr});
    EXPECT_LT(fg::tensor::max_abs_diff(got, oracle), 1e-4f)
        << "multihead_dot isa=" << fg::simd::isa_name(isa);
  }
}
