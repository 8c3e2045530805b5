// Tests for the extension modules: graph statistics, binary graph I/O,
// symmetric GCN normalization, and multi-head GAT.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "minidgl/train.hpp"

namespace fg = featgraph;
using fg::graph::Coo;
using fg::tensor::Tensor;

// --- graph statistics --------------------------------------------------

TEST(Stats, UniformGraphHasLowGini) {
  const Coo coo = fg::graph::gen_uniform(5000, 20.0, 8);
  const auto stats =
      fg::graph::source_degree_stats(fg::graph::coo_to_in_csr(coo));
  EXPECT_NEAR(stats.mean, 20.0, 0.5);
  EXPECT_LT(stats.gini, 0.2);
}

TEST(Stats, TwoClassGraphHasHighGiniAndHeavyTail) {
  const Coo coo = fg::graph::gen_two_class(100, 500, 900, 5, 9);
  const auto stats =
      fg::graph::source_degree_stats(fg::graph::coo_to_in_csr(coo));
  EXPECT_GT(stats.gini, 0.4);
  EXPECT_EQ(stats.max, 500);
  EXPECT_EQ(stats.median, 5);
  EXPECT_GT(stats.p99, 100);
}

TEST(Stats, HighDegreeEdgeFractionMatchesConstruction) {
  // 100 hubs at degree 500 own 500*100 / (500*100 + 900*5) = 91.7% of edges.
  const Coo coo = fg::graph::gen_two_class(100, 500, 900, 5, 10);
  const double frac =
      fg::graph::high_degree_edge_fraction(fg::graph::coo_to_in_csr(coo), 0.9);
  EXPECT_NEAR(frac, 0.917, 0.02);
}

TEST(Stats, DescribeMentionsKeyFields) {
  const Coo coo = fg::graph::gen_uniform(100, 4.0, 11);
  const auto s =
      fg::graph::describe(fg::graph::source_degree_stats(fg::graph::coo_to_in_csr(coo)));
  EXPECT_NE(s.find("mean"), std::string::npos);
  EXPECT_NE(s.find("gini"), std::string::npos);
}

// --- graph I/O -----------------------------------------------------------

TEST(GraphIo, RoundTripsEdgeLists) {
  const Coo original = fg::graph::gen_lognormal(500, 8.0, 1.0, 12);
  const std::string path = ::testing::TempDir() + "/roundtrip.fgc";
  fg::graph::save_coo(original, path);
  EXPECT_TRUE(fg::graph::is_featgraph_file(path));
  const Coo loaded = fg::graph::load_coo(path);
  EXPECT_EQ(loaded.num_src, original.num_src);
  EXPECT_EQ(loaded.num_dst, original.num_dst);
  EXPECT_EQ(loaded.src, original.src);
  EXPECT_EQ(loaded.dst, original.dst);
  std::remove(path.c_str());
}

TEST(GraphIo, RoundTripsEmptyGraph) {
  Coo empty;
  empty.num_src = empty.num_dst = 7;
  const std::string path = ::testing::TempDir() + "/empty.fgc";
  fg::graph::save_coo(empty, path);
  const Coo loaded = fg::graph::load_coo(path);
  EXPECT_EQ(loaded.num_src, 7);
  EXPECT_EQ(loaded.num_edges(), 0);
  std::remove(path.c_str());
}

TEST(GraphIo, RejectsNonFeatgraphFiles) {
  const std::string path = ::testing::TempDir() + "/not_a_graph.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("hello world, definitely not a graph", f);
  std::fclose(f);
  EXPECT_FALSE(fg::graph::is_featgraph_file(path));
  EXPECT_DEATH((void)fg::graph::load_coo(path), "magic");
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileIsNotAFeatgraphFile) {
  EXPECT_FALSE(fg::graph::is_featgraph_file("/nonexistent/path.fgc"));
}

// --- symmetric GCN normalization -----------------------------------------

TEST(GcnNorm, WeightsMatchDegreesAndAggregationIsBounded) {
  fg::graph::Graph g(fg::graph::gen_uniform(200, 6.0, 13));
  const Tensor w = fg::minidgl::symmetric_norm_weights(g);
  ASSERT_EQ(w.numel(), g.num_edges());
  const auto& coo = g.coo();
  for (fg::graph::eid_t e = 0; e < g.num_edges(); e += 17) {
    const auto du = g.out_csr().degree(coo.src[static_cast<std::size_t>(e)]);
    const auto dv = g.in_csr().degree(coo.dst[static_cast<std::size_t>(e)]);
    EXPECT_NEAR(w.at(e),
                1.0f / std::sqrt(static_cast<float>(du) * dv), 1e-5f);
  }
}

TEST(GcnNorm, SymLayerTrainsOnSbm) {
  const auto data = fg::minidgl::make_sbm_classification(500, 10.0, 4, 0.9,
                                                         16, 2.0f, 14);
  fg::minidgl::ExecContext ctx;
  ctx.num_threads = 2;
  fg::minidgl::GcnLayer l1(16, 24, false, 1, "sym");
  fg::minidgl::GcnLayer l2(24, 4, true, 2, "sym");
  std::vector<fg::minidgl::Var> params = l1.parameters();
  for (auto& p : l2.parameters()) params.push_back(p);
  fg::minidgl::Adam adam(params, 0.05f);

  float first = 0, last = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    auto x = fg::minidgl::make_leaf(data.features.clone(), false);
    auto h = l2.forward(ctx, data.graph, l1.forward(ctx, data.graph, x));
    auto lp = fg::minidgl::log_softmax(ctx, h);
    auto loss = fg::minidgl::nll_loss(ctx, lp, data.labels, data.train_rows);
    adam.zero_grad();
    fg::minidgl::backward(loss);
    adam.step();
    if (epoch == 0) first = loss->value().at(0);
    last = loss->value().at(0);
  }
  EXPECT_LT(last, first * 0.7f);
}

TEST(GcnNormDeathTest, RejectsUnknownNormalization) {
  EXPECT_DEATH(fg::minidgl::GcnLayer(4, 4, false, 1, "l2"), "normalization");
}

// --- multi-head GAT --------------------------------------------------------

TEST(MultiHeadGat, ParameterCountScalesWithHeads) {
  fg::minidgl::GatLayer one(8, 4, false, 1, 1);
  fg::minidgl::GatLayer four(8, 4, false, 1, 4);
  EXPECT_EQ(one.parameters().size(), 2u);
  EXPECT_EQ(four.parameters().size(), 8u);
  EXPECT_EQ(four.num_heads(), 4);
}

TEST(MultiHeadGat, OutputShapeIndependentOfHeads) {
  fg::graph::Graph g(fg::graph::gen_uniform(80, 5.0, 15));
  fg::minidgl::ExecContext ctx;
  auto x = fg::minidgl::make_leaf(Tensor::randn({80, 8}, 16), false);
  for (int heads : {1, 2, 4}) {
    fg::minidgl::GatLayer layer(8, 6, true, 17, heads);
    auto h = layer.forward(ctx, g, x);
    EXPECT_EQ(h->value().shape(0), 80);
    EXPECT_EQ(h->value().shape(1), 6);
  }
}

TEST(MultiHeadGat, GradientsFlowThroughAllHeads) {
  fg::graph::Graph g(fg::graph::gen_uniform(40, 4.0, 18));
  fg::minidgl::ExecContext ctx;
  fg::minidgl::GatLayer layer(6, 4, true, 19, 3);
  auto x = fg::minidgl::make_leaf(Tensor::randn({40, 6}, 20), true);
  auto h = layer.forward(ctx, g, x);
  fg::minidgl::backward(h);
  for (const auto& p : layer.parameters()) {
    EXPECT_TRUE(p->has_grad());
    float norm = 0.0f;
    for (std::int64_t i = 0; i < p->grad().numel(); ++i)
      norm += std::fabs(p->grad().at(i));
    // Weight matrices must receive nonzero gradient (bias may be zero-ish).
    if (p->value().rank() == 2) EXPECT_GT(norm, 0.0f);
  }
}
