// Lazy op-graph compiler tests: fusion legality, liveness/buffer-reuse
// properties, peak-memory scaling, fused-vs-eager bit-identity per ISA, and
// the forward-path copy-count regression.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/simd.hpp"
#include "graph/generators.hpp"
#include "minidgl/lazy_graph.hpp"
#include "minidgl/modules.hpp"
#include "minidgl/ops.hpp"
#include "tensor/tensor.hpp"

namespace fg = featgraph;
using fg::graph::Graph;
using fg::minidgl::backward;
using fg::minidgl::ExecContext;
using fg::minidgl::kNoNode;
using fg::minidgl::LazyGraph;
using fg::minidgl::LazyPlan;
using fg::minidgl::make_leaf;
using fg::minidgl::Model;
using fg::minidgl::NodeId;
using fg::minidgl::PlanOptions;
using fg::minidgl::SparseBackend;
using fg::minidgl::Var;
using fg::simd::Isa;
using fg::tensor::Tensor;

namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Records GCN-layer-shaped chains: matmul -> spmm -> add_bias -> relu.
struct GcnChain {
  LazyGraph g;
  Var x, w, b;
  NodeId anchor = kNoNode, bias = kNoNode, act = kNoNode;
};

GcnChain record_gcn_chain(const Graph& gr, std::int64_t n, std::int64_t d,
                          bool requires_grad, bool final_relu = true) {
  GcnChain c;
  c.x = make_leaf(Tensor::randn({n, d}, 11), requires_grad, "x");
  c.w = make_leaf(Tensor::randn({d, d}, 12), requires_grad, "w");
  c.b = make_leaf(Tensor::randn({d}, 13), requires_grad, "b");
  const NodeId z = c.g.matmul(c.g.leaf(c.x), c.g.leaf(c.w));
  c.anchor = c.g.spmm_copy_u(gr, z, "mean");
  c.bias = c.g.add_bias(c.anchor, c.g.leaf(c.b));
  c.act = final_relu ? c.g.relu(c.bias) : c.bias;
  return c;
}

}  // namespace

// --- fusion legality matrix -------------------------------------------------

TEST(LazyFusion, BiasReluChainFoldsIntoSpmmAnchor) {
  Graph gr(fg::graph::gen_uniform(24, 3.0, 5));
  GcnChain c = record_gcn_chain(gr, gr.num_vertices(), 8, true);
  const LazyPlan p = c.g.plan(PlanOptions{});

  // bias and relu fold into the SpMM anchor; the matmul stays its own step.
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(c.bias)], c.anchor);
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(c.act)], c.anchor);
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(c.anchor)], kNoNode);
  ASSERT_EQ(p.epilogue[static_cast<std::size_t>(c.anchor)].size(), 2u);
  EXPECT_EQ(p.epilogue[static_cast<std::size_t>(c.anchor)][0].kind,
            fg::core::EpilogueKind::kAddVec);
  EXPECT_EQ(p.epilogue[static_cast<std::size_t>(c.anchor)][1].kind,
            fg::core::EpilogueKind::kRelu);
  // Chain tail aliases the anchor's slot; the mid-chain bias value is never
  // materialized.
  EXPECT_EQ(p.alias[static_cast<std::size_t>(c.act)], c.anchor);
  EXPECT_EQ(p.alias[static_cast<std::size_t>(c.bias)], kNoNode);
}

TEST(LazyFusion, ActivationTerminatesItsChain) {
  // relu -> scale: the scale after the activation must NOT fold (the relu
  // output is the backward mask and terminates the epilogue).
  Graph gr(fg::graph::gen_uniform(16, 3.0, 7));
  LazyGraph g;
  Var x = make_leaf(Tensor::randn({gr.num_vertices(), 4}, 3), true, "x");
  const NodeId agg = g.spmm_copy_u(gr, g.leaf(x), "sum");
  const NodeId r = g.relu(agg);
  const NodeId s = g.scale(r, 2.0f);
  const LazyPlan p = g.plan(PlanOptions{});
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(r)], agg);
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(s)], kNoNode);
}

TEST(LazyFusion, MultiConsumerValueStopsTheChain) {
  // The aggregation feeds two consumers — nothing may fold into it, since
  // the epilogue would overwrite a value another op still reads raw.
  Graph gr(fg::graph::gen_uniform(16, 3.0, 9));
  LazyGraph g;
  Var x = make_leaf(Tensor::randn({gr.num_vertices(), 4}, 4), true, "x");
  const NodeId agg = g.spmm_copy_u(gr, g.leaf(x), "sum");
  const NodeId r = g.relu(agg);
  const NodeId s = g.add(agg, r);  // second consumer of agg
  const LazyPlan p = g.plan(PlanOptions{});
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(r)], kNoNode);
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(s)], kNoNode);
  EXPECT_TRUE(p.epilogue[static_cast<std::size_t>(agg)].empty());
}

TEST(LazyFusion, MaxReduceNeverAnchors) {
  // Max tracks an argmax per element; its rows are not finalized by the
  // span sweep, so even a clean bias+relu tail stays unfused.
  Graph gr(fg::graph::gen_uniform(16, 3.0, 11));
  LazyGraph g;
  Var x = make_leaf(Tensor::randn({gr.num_vertices(), 4}, 5), true, "x");
  Var b = make_leaf(Tensor::randn({4}, 6), true, "b");
  const NodeId agg = g.spmm_copy_u(gr, g.leaf(x), "max");
  const NodeId h = g.add_bias(agg, g.leaf(b));
  const LazyPlan p = g.plan(PlanOptions{});
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(h)], kNoNode);
  EXPECT_TRUE(p.epilogue[static_cast<std::size_t>(agg)].empty());
}

TEST(LazyFusion, AddOperandRecordedAfterAnchorDoesNotFold) {
  // add's second operand is a later anchor's value — not materialized when
  // this anchor runs, so the fold is illegal and must be rejected.
  Graph gr(fg::graph::gen_uniform(16, 3.0, 13));
  LazyGraph g;
  Var x = make_leaf(Tensor::randn({gr.num_vertices(), 4}, 7), true, "x");
  const NodeId a1 = g.spmm_copy_u(gr, g.leaf(x), "sum");
  const NodeId a2 = g.spmm_copy_u(gr, g.leaf(x), "mean");
  const NodeId h = g.add(a1, a2);
  const LazyPlan p = g.plan(PlanOptions{});
  // a2 executes after a1, so folding `+ a2` into a1 is illegal. Folding
  // `+ a1` into a2 would be legal if a2 were h's sole input chain start —
  // the walk starts at a1 first (id order) and consumes h into a2's chain
  // only if a1's own chain didn't claim it. Either way: h must not fold
  // into a1.
  EXPECT_NE(p.fused_into[static_cast<std::size_t>(h)], a1);
}

TEST(LazyFusion, PlanOptionOffDisablesFolding) {
  Graph gr(fg::graph::gen_uniform(16, 3.0, 15));
  GcnChain c = record_gcn_chain(gr, gr.num_vertices(), 4, true);
  PlanOptions po;
  po.fuse = false;
  const LazyPlan p = c.g.plan(po);
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(c.bias)], kNoNode);
  EXPECT_EQ(p.fused_into[static_cast<std::size_t>(c.act)], kNoNode);
}

// --- liveness / buffer plan properties --------------------------------------

namespace {

/// Asserts the linear-scan invariant: two slots sharing a buffer never have
/// overlapping live ranges (equality at the boundary is the in-place
/// handoff).
void check_disjoint_lifetimes(const LazyPlan& p) {
  const auto n = static_cast<NodeId>(p.alias.size());
  for (NodeId a = 0; a < n; ++a) {
    if (p.buffer_id[static_cast<std::size_t>(a)] == kNoNode) continue;
    for (NodeId b = a + 1; b < n; ++b) {
      if (p.buffer_id[static_cast<std::size_t>(b)] !=
          p.buffer_id[static_cast<std::size_t>(a)])
        continue;
      const auto au = static_cast<std::size_t>(a);
      const auto bu = static_cast<std::size_t>(b);
      EXPECT_TRUE(p.last_use[au] <= p.step[bu] ||
                  p.last_use[bu] <= p.step[au])
          << "slots " << a << " and " << b << " share buffer "
          << p.buffer_id[au] << " with overlapping live ranges";
    }
  }
}

}  // namespace

TEST(LazyLiveness, SharedBuffersHaveDisjointLiveRanges) {
  Graph gr(fg::graph::gen_uniform(32, 4.0, 17));
  // A deep elementwise chain interleaved with anchors gives the scanner
  // real reuse opportunities.
  LazyGraph g;
  Var x = make_leaf(Tensor::randn({gr.num_vertices(), 8}, 8), false, "x");
  NodeId h = g.leaf(x);
  for (int layer = 0; layer < 6; ++layer) {
    h = g.spmm_copy_u(gr, h, layer % 2 == 0 ? "sum" : "mean");
    h = g.scale(h, 0.5f);
    h = g.add(h, h);  // self-add: multi-consumer, chain must stop here
  }
  for (const bool fuse : {true, false}) {
    PlanOptions po;
    po.fuse = fuse;
    po.training = false;
    const LazyPlan p = g.plan(po);
    check_disjoint_lifetimes(p);
    EXPECT_GT(p.num_steps, 0);
  }
}

TEST(LazyLiveness, KeptSlotsNeverEnterTheReusePool) {
  Graph gr(fg::graph::gen_uniform(24, 3.0, 19));
  GcnChain c = record_gcn_chain(gr, gr.num_vertices(), 8, true);
  const LazyPlan p = c.g.plan(PlanOptions{});
  for (std::size_t i = 0; i < p.keep.size(); ++i) {
    if (p.keep[i]) {
      EXPECT_EQ(p.buffer_id[i], kNoNode) << "slot " << i;
    }
  }
  check_disjoint_lifetimes(p);
}

TEST(LazyLiveness, InferencePeakBytesStaysFlatAsDepthGrows) {
  // The tentpole's memory claim, pinned at the plan level: an N-layer chain
  // in inference keeps O(1) live slots, so peak_bytes must NOT scale with N.
  Graph gr(fg::graph::gen_uniform(64, 4.0, 21));
  const std::int64_t d = 16;
  auto peak_for = [&](int layers) {
    LazyGraph g;
    Var x = make_leaf(Tensor::randn({gr.num_vertices(), d}, 9), false, "x");
    Var w = make_leaf(Tensor::randn({d, d}, 10), false, "w");
    Var b = make_leaf(Tensor::randn({d}, 11), false, "b");
    NodeId h = g.leaf(x);
    for (int l = 0; l < layers; ++l) {
      h = g.matmul(h, g.leaf(w));
      h = g.spmm_copy_u(gr, h, "mean");
      h = g.add_bias(h, g.leaf(b));
      h = g.relu(h);
    }
    PlanOptions po;
    po.training = false;
    return g.plan(po).peak_bytes;
  };
  const std::int64_t p2 = peak_for(2);
  const std::int64_t p8 = peak_for(8);
  const std::int64_t p16 = peak_for(16);
  EXPECT_EQ(p2, p8);
  EXPECT_EQ(p8, p16);
  EXPECT_GT(p2, 0);
}

TEST(LazyLiveness, TrainingPeakMinusKeptBytesStaysFlatAsDepthGrows) {
  // Training must keep the backward's inputs (one kept activation per
  // layer), but the TRANSIENT overhead above the keep set must stay
  // constant with depth — that is what planned reuse buys.
  Graph gr(fg::graph::gen_uniform(64, 4.0, 23));
  const std::int64_t d = 16;
  auto transient_for = [&](int layers) {
    LazyGraph g;
    Var x = make_leaf(Tensor::randn({gr.num_vertices(), d}, 9), false, "x");
    Var w = make_leaf(Tensor::randn({d, d}, 10), true, "w");
    Var b = make_leaf(Tensor::randn({d}, 11), true, "b");
    NodeId h = g.leaf(x);
    for (int l = 0; l < layers; ++l) {
      h = g.matmul(h, g.leaf(w));
      h = g.spmm_copy_u(gr, h, "mean");
      h = g.add_bias(h, g.leaf(b));
      h = g.relu(h);
    }
    const LazyPlan p = g.plan(PlanOptions{});
    std::int64_t kept_bytes = 0;
    const auto& nodes = g.nodes();
    for (std::size_t i = 0; i < p.keep.size(); ++i) {
      if (!p.keep[i]) continue;
      std::int64_t numel = 1;
      for (std::int64_t dim : nodes[i].shape) numel *= dim;
      kept_bytes += numel * 4;
    }
    EXPECT_GT(kept_bytes, 0);
    return p.peak_bytes - kept_bytes;
  };
  const std::int64_t t2 = transient_for(2);
  const std::int64_t t8 = transient_for(8);
  EXPECT_EQ(t2, t8);
}

// --- fused vs eager bit-identity (the IsaDifferential) ----------------------

namespace {

/// Runs one recorded chain fused and eager under a pinned ISA and thread
/// count; both executions must agree bit for bit.
void expect_fused_eager_bit_identical(Isa isa, int threads,
                                      const std::string& reduce,
                                      bool u_mul_e) {
  if (!fg::simd::isa_supported(isa)) GTEST_SKIP() << "hardware lacks ISA";
  fg::simd::ScopedIsa pin(isa);
  Graph gr(fg::graph::gen_uniform(48, 4.0, 29));
  const std::int64_t d = 20;  // covers SIMD main lanes + masked tail

  auto run_once = [&](bool fuse) {
    ExecContext ctx;
    ctx.num_threads = threads;
    ctx.fuse_epilogues = fuse;
    LazyGraph g;
    Var x = make_leaf(Tensor::randn({gr.num_vertices(), d}, 31), false, "x");
    Var w = make_leaf(Tensor::randn({d, d}, 32), false, "w");
    Var b = make_leaf(Tensor::randn({d}, 33), false, "b");
    const NodeId z = g.matmul(g.leaf(x), g.leaf(w));
    NodeId agg;
    if (u_mul_e) {
      Var ew = make_leaf(
          fg::minidgl::symmetric_norm_weights(gr), false, "ew");
      agg = g.spmm_u_mul_e(gr, z, g.leaf(ew));
    } else {
      agg = g.spmm_copy_u(gr, z, reduce);
    }
    NodeId h = g.add_bias(agg, g.leaf(b));
    h = g.relu(h);
    return g.run(ctx, h)->value();
  };

  const Tensor fused = run_once(true);
  const Tensor eager = run_once(false);
  EXPECT_TRUE(bit_equal(fused, eager))
      << "isa=" << fg::simd::isa_name(isa) << " threads=" << threads
      << " reduce=" << (u_mul_e ? "u_mul_e" : reduce);
}

}  // namespace

TEST(LazyIsaDifferential, FusedMatchesEagerAllIsaReducersThreads) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!fg::simd::isa_supported(isa)) continue;
    for (const int threads : {1, 4}) {
      expect_fused_eager_bit_identical(isa, threads, "sum", false);
      expect_fused_eager_bit_identical(isa, threads, "mean", false);
      expect_fused_eager_bit_identical(isa, threads, "", true);
    }
  }
}

TEST(LazyIsaDifferential, MatmulEpilogueMatchesEagerChain) {
  // Dense anchor: bias+relu folded into the matmul's row sweep.
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!fg::simd::isa_supported(isa)) continue;
    fg::simd::ScopedIsa pin(isa);
    auto run_once = [&](bool fuse) {
      ExecContext ctx;
      ctx.fuse_epilogues = fuse;
      LazyGraph g;
      Var x = make_leaf(Tensor::randn({17, 20}, 41), false, "x");
      Var w = make_leaf(Tensor::randn({20, 20}, 42), false, "w");
      Var b = make_leaf(Tensor::randn({20}, 43), false, "b");
      NodeId h = g.add_bias(g.matmul(g.leaf(x), g.leaf(w)), g.leaf(b));
      h = g.relu(h);
      return g.run(ctx, h)->value();
    };
    EXPECT_TRUE(bit_equal(run_once(true), run_once(false)))
        << fg::simd::isa_name(isa);
  }
}

// --- whole-model gradients: fused vs eager plan, and across thread counts --

namespace {

/// One training step of `kind` on `gr` under `ctx`: returns the loss and
/// appends a copy of every parameter gradient to `grads`.
float train_step_grads(const std::string& kind, const Graph& gr,
                       ExecContext ctx, std::vector<Tensor>* grads) {
  const std::int64_t d = 12, hidden = 10, classes = 4;
  const Tensor features = Tensor::randn({gr.num_vertices(), d}, 52);
  std::vector<std::int32_t> labels(
      static_cast<std::size_t>(gr.num_vertices()));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int32_t>(i % classes);
  std::vector<std::int64_t> rows;
  for (std::int64_t r = 0; r < gr.num_vertices(); r += 2) rows.push_back(r);

  Model model(kind, d, hidden, classes, 77);
  Var x = make_leaf(features, false, "x");
  Var lp = model.forward(ctx, gr, x);
  Var loss = fg::minidgl::nll_loss(ctx, lp, labels, rows);
  backward(loss);
  for (const Var& p : model.parameters()) {
    EXPECT_TRUE(p->has_grad());
    grads->push_back(p->grad().clone());
  }
  return loss->value().at(0);
}

void expect_same_step(float loss_a, const std::vector<Tensor>& grads_a,
                      float loss_b, const std::vector<Tensor>& grads_b,
                      const std::string& what) {
  EXPECT_EQ(std::memcmp(&loss_a, &loss_b, sizeof(float)), 0) << what;
  ASSERT_EQ(grads_a.size(), grads_b.size());
  for (std::size_t i = 0; i < grads_a.size(); ++i)
    EXPECT_TRUE(bit_equal(grads_a[i], grads_b[i])) << what << " param " << i;
}

/// Trains one step of `kind` twice — fused and eager plans — and expects
/// bit-identical loss and parameter gradients. Both runs derive backward
/// from the same recorded DAG; fusion must be execution-invisible.
void expect_model_grads_bit_identical(const std::string& kind) {
  Graph gr(fg::graph::gen_uniform(40, 4.0, 51));
  std::vector<Tensor> fused_grads, eager_grads;
  ExecContext fused, eager;
  fused.fuse_epilogues = true;
  eager.fuse_epilogues = false;
  const float fused_loss = train_step_grads(kind, gr, fused, &fused_grads);
  const float eager_loss = train_step_grads(kind, gr, eager, &eager_grads);
  expect_same_step(fused_loss, fused_grads, eager_loss, eager_grads, kind);
}

/// Trains one step of `kind` at 1, 4 and 7 threads under every ISA and
/// expects bit-identical loss and parameter gradients. 600 vertices make the
/// weight gradients' matmul_tn cross its 256-row panel edges, and 7 threads
/// leave lanes with uneven (or empty) output-row ranges.
void expect_model_grads_thread_invariant(const std::string& kind) {
  Graph gr(fg::graph::gen_uniform(600, 4.0, 55));
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    auto step_at = [&](int threads, std::vector<Tensor>* grads) {
      ExecContext ctx;
      ctx.num_threads = threads;
      return train_step_grads(kind, gr, ctx, grads);
    };
    std::vector<Tensor> ref_grads;
    const float ref_loss = step_at(1, &ref_grads);
    for (const int threads : {4, 7}) {
      std::vector<Tensor> grads;
      const float loss = step_at(threads, &grads);
      expect_same_step(ref_loss, ref_grads, loss, grads,
                       kind + " " + fg::simd::isa_name(isa) +
                           " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace

TEST(LazyModelGrads, GcnFusedPlanBitIdenticalToEagerPlan) {
  expect_model_grads_bit_identical("gcn");
}

TEST(LazyModelGrads, SageMeanFusedPlanBitIdenticalToEagerPlan) {
  expect_model_grads_bit_identical("sage-mean");
}

TEST(LazyModelGrads, SageMaxFusedPlanBitIdenticalToEagerPlan) {
  expect_model_grads_bit_identical("sage-max");
}

TEST(LazyModelGrads, GatFusedPlanBitIdenticalToEagerPlan) {
  expect_model_grads_bit_identical("gat");
}

TEST(LazyModelGrads, GcnGradsBitIdenticalAcrossThreadCountsPerIsa) {
  expect_model_grads_thread_invariant("gcn");
}

TEST(LazyModelGrads, GatGradsBitIdenticalAcrossThreadCountsPerIsa) {
  expect_model_grads_thread_invariant("gat");
}

TEST(LazyModelGrads, BufferPlanOffIsAlsoBitIdentical) {
  // The reuse/in-place plan must be as invisible as fusion.
  Graph gr(fg::graph::gen_uniform(32, 4.0, 53));
  const std::int64_t d = 8;
  auto run_once = [&](bool plan_buffers) {
    ExecContext ctx;
    ctx.plan_buffers = plan_buffers;
    Model model("gcn", d, 6, 3, 88);
    Var x = make_leaf(Tensor::randn({gr.num_vertices(), d}, 54), false, "x");
    Var lp = model.forward(ctx, gr, x);
    std::vector<std::int32_t> labels(
        static_cast<std::size_t>(gr.num_vertices()), 1);
    Var loss = fg::minidgl::nll_loss(ctx, lp, labels, {0, 2, 4});
    backward(loss);
    return model.parameters()[0]->grad().clone();
  };
  EXPECT_TRUE(bit_equal(run_once(true), run_once(false)));
}

// --- copy-count regression --------------------------------------------------

TEST(LazyCopies, LeafCreationSharesStorageWithoutAllocating) {
  const Tensor features = Tensor::randn({64, 16}, 61);
  const std::int64_t before = fg::tensor::allocation_count();
  Var x = make_leaf(features, false, "features");  // shared view
  EXPECT_EQ(fg::tensor::allocation_count(), before);
  EXPECT_EQ(x->value().data(), features.data());
}

TEST(LazyCopies, CompiledForwardAllocatesFewerBuffersThanNaive) {
  // Copy-count regression for the whole inference path. The naive plan
  // (no fusion, no buffer planning) materializes every recorded op; the
  // compiled plan folds each layer's bias+relu into its SpMM epilogue (and
  // runs eligible survivors in place), so the 2-layer GCN drops from 8
  // buffer allocations to 5 (z1, agg1, z2, agg2, log_softmax).
  Graph gr(fg::graph::gen_uniform(48, 4.0, 63));
  const std::int64_t d = 16;
  const Tensor features = Tensor::randn({gr.num_vertices(), d}, 64);
  Model model("gcn", d, 12, 4, 99);
  auto allocs_for = [&](bool compiled) {
    ExecContext ctx;
    ctx.fuse_epilogues = compiled;
    ctx.plan_buffers = compiled;
    Var x = make_leaf(features, false, "x");
    const std::int64_t before = fg::tensor::allocation_count();
    Var lp = model.forward(ctx, gr, x);
    (void)lp;
    return fg::tensor::allocation_count() - before;
  };
  const std::int64_t naive = allocs_for(false);
  const std::int64_t compiled = allocs_for(true);
  EXPECT_LE(compiled + 3, naive)
      << "compiled=" << compiled << " naive=" << naive;
  EXPECT_LE(compiled, 5) << "compiled=" << compiled;
}

TEST(LazyCopies, BackwardHandsPassThroughGradientsOnWithoutCopying) {
  // relu(x + b): backward allocates the seed, relu's masked gradient and db.
  // add_bias is not the root, so its gradient (relu's) goes to x as is.
  ExecContext ctx;
  Var x = make_leaf(Tensor::randn({64, 16}, 65), true, "x");
  Var b = make_leaf(Tensor::randn({16}, 66), true, "b");
  LazyGraph g;
  Var y = g.run(ctx, g.relu(g.add_bias(g.leaf(x), g.leaf(b))));
  const std::int64_t before = fg::tensor::allocation_count();
  backward(y);
  EXPECT_EQ(fg::tensor::allocation_count() - before, 3);
  ASSERT_TRUE(x->has_grad() && b->has_grad());
}

TEST(LazyCopies, RootPassThroughGradientIsCopiedNotAdopted) {
  // The root's gradient belongs to the caller: add_bias / add at the root
  // must hand their inputs copies, never the root's own buffer.
  ExecContext ctx;
  Var x = make_leaf(Tensor::randn({8, 4}, 67), true, "x");
  Var b = make_leaf(Tensor::randn({4}, 68), true, "b");
  Var y = fg::minidgl::add_bias(ctx, x, b);
  backward(y);
  ASSERT_TRUE(x->has_grad() && y->has_grad());
  EXPECT_NE(x->grad().data(), y->grad().data());

  Var w = make_leaf(Tensor::randn({8, 4}, 69), true, "w");
  Var z = fg::minidgl::add(ctx, w, w);
  backward(z);
  ASSERT_TRUE(w->has_grad() && z->has_grad());
  EXPECT_NE(w->grad().data(), z->grad().data());
  for (std::int64_t i = 0; i < z->grad().numel(); ++i) {
    EXPECT_EQ(z->grad().at(i), 1.0f);
    EXPECT_EQ(w->grad().at(i), 2.0f);
  }
}

// --- executor accounting ----------------------------------------------------

TEST(LazyAccounting, PeakBytesSurfacesOnTheContext) {
  Graph gr(fg::graph::gen_uniform(32, 4.0, 67));
  ExecContext ctx;
  Model model("gcn", 8, 6, 3, 101);
  Var x = make_leaf(Tensor::randn({gr.num_vertices(), 8}, 68), false, "x");
  EXPECT_EQ(ctx.peak_bytes, 0.0);
  (void)model.forward(ctx, gr, x);
  EXPECT_GT(ctx.peak_bytes, 0.0);
  ctx.reset_accounting();
  EXPECT_EQ(ctx.peak_bytes, 0.0);
}
