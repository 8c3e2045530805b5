#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/simd.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace fg = featgraph;
using fg::simd::Isa;
using fg::tensor::Tensor;

TEST(Tensor, ShapeAndSizeBookkeeping) {
  Tensor t({3, 4});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 12);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.row_size(), 4);
  Tensor v({5});
  EXPECT_EQ(v.rows(), 1);
  EXPECT_EQ(v.row_size(), 5);
  Tensor r3({2, 3, 4});
  EXPECT_EQ(r3.rows(), 2);
  EXPECT_EQ(r3.row_size(), 12);
}

TEST(Tensor, ZeroRowTensorsKeepTheirRowSize) {
  // The row width is the product of the trailing dims, so it survives a
  // zero leading dim (the {0, d} edge features of a graph with no edges).
  const Tensor e = Tensor::zeros({0, 7});
  EXPECT_EQ(e.rows(), 0);
  EXPECT_EQ(e.row_size(), 7);
  const Tensor e3 = Tensor::zeros({0, 3, 4});
  EXPECT_EQ(e3.rows(), 0);
  EXPECT_EQ(e3.row_size(), 12);
}

TEST(Tensor, ZerosAndFullInitialize) {
  Tensor z = Tensor::zeros({2, 2});
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(z.at(i), 0.0f);
  Tensor f = Tensor::full({2, 2}, 7.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(f.at(i), 7.5f);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Tensor a = Tensor::randn({4, 4}, 42);
  Tensor b = Tensor::randn({4, 4}, 42);
  Tensor c = Tensor::randn({4, 4}, 43);
  EXPECT_EQ(fg::tensor::max_abs_diff(a, b), 0.0f);
  EXPECT_GT(fg::tensor::max_abs_diff(a, c), 0.0f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a = Tensor::full({2, 2}, 1.0f);
  Tensor b = a.clone();
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::zeros({2, 6});
  Tensor b = a.reshape({3, 4});
  b.at(0) = 5.0f;
  EXPECT_EQ(a.at(0), 5.0f);
  EXPECT_EQ(b.rows(), 3);
}

TEST(TensorDeathTest, ReshapeMustPreserveNumel) {
  Tensor a = Tensor::zeros({2, 6});
  EXPECT_DEATH((void)a.reshape({5, 5}), "reshape");
}

TEST(Tensor, RowPointerAddressesRowMajorData) {
  Tensor a({2, 3});
  for (std::int64_t i = 0; i < 6; ++i) a.at(i) = static_cast<float>(i);
  EXPECT_EQ(a.row(1)[0], 3.0f);
  EXPECT_EQ(a.at(1, 2), 5.0f);
}

// --- ops ---------------------------------------------------------------

namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  Tensor c = Tensor::zeros({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  return c;
}

}  // namespace

// The GEMM rounding contract (tensor/ops.hpp): each output element is the
// naive loop's +0-seeded, ascending-p mul-then-add chain, so every backend
// at every thread count must match naive_matmul byte for byte.
struct GemmShape {
  std::int64_t m, k, n;
};

class MatmulTest : public ::testing::TestWithParam<GemmShape> {
 protected:
  /// Runs `gemm(threads)` under every supported ISA at several thread
  /// counts (7 leaves lanes with uneven or empty row ranges).
  template <class Gemm>
  void expect_bitwise_for_all_configs(const Tensor& want, Gemm gemm) {
    for (const Isa isa : fg::simd::supported_isas()) {
      fg::simd::ScopedIsa pin(isa);
      for (const int threads : {1, 2, 4, 7}) {
        const Tensor got = gemm(threads);
        EXPECT_EQ(got.shape(), want.shape());
        EXPECT_TRUE(bit_equal(got, want))
            << fg::simd::isa_name(isa) << " threads=" << threads;
      }
    }
  }
};

TEST_P(MatmulTest, MatchesNaiveTripleLoop) {
  const auto p = GetParam();
  const Tensor a = Tensor::randn({p.m, p.k}, 1);
  const Tensor b = Tensor::randn({p.k, p.n}, 2);
  expect_bitwise_for_all_configs(naive_matmul(a, b), [&](int threads) {
    return fg::tensor::matmul(a, b, threads);
  });
}

TEST_P(MatmulTest, TransposedMatchesNaiveOfTranspose) {
  const auto p = GetParam();
  const Tensor a = Tensor::randn({p.m, p.k}, 3);
  const Tensor b_t = Tensor::randn({p.n, p.k}, 4);
  expect_bitwise_for_all_configs(
      naive_matmul(a, fg::tensor::transpose(b_t)), [&](int threads) {
        return fg::tensor::matmul_transposed(a, b_t, threads);
      });
}

TEST_P(MatmulTest, TnMatchesNaiveOfTranspose) {
  // Here m is the reduction (input-row) axis: 255/256/257/513 rows cross
  // matmul_tn's panel edges.
  const auto p = GetParam();
  const Tensor a = Tensor::randn({p.m, p.k}, 5);
  const Tensor b = Tensor::randn({p.m, p.n}, 6);
  expect_bitwise_for_all_configs(
      naive_matmul(fg::tensor::transpose(a), b),
      [&](int threads) { return fg::tensor::matmul_tn(a, b, threads); });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulTest,
    ::testing::Values(GemmShape{0, 5, 7}, GemmShape{6, 0, 9},
                      GemmShape{4, 3, 0}, GemmShape{1, 1, 1},
                      GemmShape{3, 5, 7}, GemmShape{16, 16, 16},
                      GemmShape{33, 65, 17}, GemmShape{64, 100, 32},
                      GemmShape{128, 64, 96}, GemmShape{70, 130, 50},
                      GemmShape{255, 9, 33}, GemmShape{256, 12, 16},
                      GemmShape{257, 20, 31}, GemmShape{513, 17, 40}));

TEST(Ops, ElementwiseAddSubMul) {
  Tensor a = Tensor::full({2, 3}, 4.0f);
  Tensor b = Tensor::full({2, 3}, 2.0f);
  EXPECT_EQ(fg::tensor::add(a, b).at(0), 6.0f);
  EXPECT_EQ(fg::tensor::sub(a, b).at(0), 2.0f);
  EXPECT_EQ(fg::tensor::mul(a, b).at(0), 8.0f);
  EXPECT_EQ(fg::tensor::scale(a, 0.5f).at(0), 2.0f);
}

TEST(Ops, AddBiasBroadcastsAlongRows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor bias({3});
  bias.at(0) = 1;
  bias.at(1) = 2;
  bias.at(2) = 3;
  Tensor out = fg::tensor::add_bias(a, bias);
  EXPECT_EQ(out.at(0, 0), 1.0f);
  EXPECT_EQ(out.at(1, 2), 3.0f);
}

TEST(Ops, ReluAndBackward) {
  Tensor x({4});
  x.at(0) = -1;
  x.at(1) = 0;
  x.at(2) = 2;
  x.at(3) = -3;
  Tensor y = fg::tensor::relu(x);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  Tensor dy = Tensor::full({4}, 1.0f);
  Tensor dx = fg::tensor::relu_backward(dy, x);
  EXPECT_EQ(dx.at(0), 0.0f);
  EXPECT_EQ(dx.at(2), 1.0f);
}

TEST(Ops, LeakyReluAndBackward) {
  Tensor x({2});
  x.at(0) = -2;
  x.at(1) = 2;
  Tensor y = fg::tensor::leaky_relu(x, 0.1f);
  EXPECT_FLOAT_EQ(y.at(0), -0.2f);
  EXPECT_FLOAT_EQ(y.at(1), 2.0f);
  Tensor dy = Tensor::full({2}, 3.0f);
  Tensor dx = fg::tensor::leaky_relu_backward(dy, x, 0.1f);
  EXPECT_FLOAT_EQ(dx.at(0), 0.3f);
  EXPECT_FLOAT_EQ(dx.at(1), 3.0f);
}

TEST(Ops, LogSoftmaxRowsSumToOneInProbSpace) {
  Tensor a = Tensor::randn({5, 7}, 9);
  Tensor ls = fg::tensor::log_softmax_rows(a);
  for (std::int64_t i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 7; ++j) sum += std::exp(ls.at(i, j));
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, LogSoftmaxIsShiftInvariant) {
  Tensor a = Tensor::randn({3, 4}, 10);
  Tensor shifted = a.clone();
  for (std::int64_t i = 0; i < shifted.numel(); ++i) shifted.at(i) += 100.0f;
  EXPECT_LT(fg::tensor::max_abs_diff(fg::tensor::log_softmax_rows(a),
                                     fg::tensor::log_softmax_rows(shifted)),
            1e-4f);
}

TEST(Ops, NllLossGradientMatchesFiniteDifference) {
  Tensor logits = Tensor::randn({4, 3}, 11);
  std::vector<std::int64_t> rows = {0, 2, 3};
  std::vector<std::int32_t> labels = {1, 0, 2, 1};

  auto loss_of = [&](const Tensor& lg) {
    Tensor lp = fg::tensor::log_softmax_rows(lg);
    return fg::tensor::nll_loss_masked(lp, rows, labels, nullptr);
  };

  Tensor lp = fg::tensor::log_softmax_rows(logits);
  Tensor grad;
  fg::tensor::nll_loss_masked(lp, rows, labels, &grad);

  const float eps = 1e-2f;
  for (std::int64_t i : {std::int64_t{0}, std::int64_t{5}, std::int64_t{10}}) {
    Tensor plus = logits.clone();
    plus.at(i) += eps;
    Tensor minus = logits.clone();
    minus.at(i) -= eps;
    const float fd = (loss_of(plus) - loss_of(minus)) / (2 * eps);
    EXPECT_NEAR(grad.at(i), fd, 5e-3f) << "at flat index " << i;
  }
}

TEST(Ops, TransposeIsInvolution) {
  Tensor a = Tensor::randn({6, 9}, 12);
  Tensor tt = fg::tensor::transpose(fg::tensor::transpose(a));
  EXPECT_EQ(fg::tensor::max_abs_diff(a, tt), 0.0f);
}

TEST(Ops, SumAddsAllElements) {
  Tensor a = Tensor::full({10, 10}, 0.5f);
  EXPECT_FLOAT_EQ(fg::tensor::sum(a), 50.0f);
}
