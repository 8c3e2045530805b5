#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "core/simd.hpp"
#include "parallel/parallel_for.hpp"

namespace featgraph::tensor {

namespace {

void check_matrix(const Tensor& t) {
  FG_CHECK_MSG(t.rank() == 2, "operation requires a rank-2 tensor");
}

// waxpy_rows' `unroll` hint: ask for the widest register blocking (each
// backend clamps it; results do not depend on it).
constexpr int kUnroll = 4;
// matmul_tn streams A and B in panels of this many input rows: one panel of
// B (and a thread's slice of A) stays cache-resident across its output rows.
constexpr std::int64_t kPanelRows = 256;

std::vector<std::int32_t> iota_rows(std::int64_t count) {
  FG_CHECK_MSG(count <= std::numeric_limits<std::int32_t>::max(),
               "GEMM reduction dimension exceeds the row-index range");
  std::vector<std::int32_t> idx(static_cast<std::size_t>(count));
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, int threads) {
  check_matrix(a);
  check_matrix(b);
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  FG_CHECK_MSG(b.shape(0) == k, "matmul inner dimensions must agree");
  Tensor c({m, n});
  const std::vector<std::int32_t> idx = iota_rows(k);
  const simd::SpanOps& ops = simd::span_ops_for_width(n);
  parallel::parallel_for_ranges(
      0, m, threads, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          ops.fill(c.row(i), 0.0f, n);
          ops.waxpy_rows(c.row(i), b.data(), n, idx.data(), a.row(i), k, n,
                         kUnroll);
        }
      });
  return c;
}

Tensor matmul_transposed(const Tensor& a, const Tensor& b_t, int threads) {
  check_matrix(b_t);
  return matmul(a, transpose(b_t), threads);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b, int threads) {
  check_matrix(a);
  check_matrix(b);
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  FG_CHECK_MSG(b.shape(0) == m, "matmul_tn row counts must agree");
  Tensor c({k, n});
  const std::vector<std::int32_t> idx = iota_rows(std::min(m, kPanelRows));
  const simd::SpanOps& ops = simd::span_ops_for_width(n);
  // Threads own output rows [r0, r1) (columns of A). Every thread walks the
  // input rows in ascending panels, so each C element folds p in order.
  parallel::parallel_for_ranges(
      0, k, threads, [&](std::int64_t r0, std::int64_t r1) {
        // This thread's columns of one A panel, transposed: row r - r0 holds
        // the weights A[p0 + q, r] that fold B's panel rows into C's row r.
        std::vector<float> at(static_cast<std::size_t>((r1 - r0) * kPanelRows));
        for (std::int64_t r = r0; r < r1; ++r) ops.fill(c.row(r), 0.0f, n);
        for (std::int64_t p0 = 0; p0 < m; p0 += kPanelRows) {
          const std::int64_t rows = std::min(kPanelRows, m - p0);
          for (std::int64_t q = 0; q < rows; ++q) {
            const float* ap = a.row(p0 + q);
            for (std::int64_t r = r0; r < r1; ++r)
              at.data()[(r - r0) * kPanelRows + q] = ap[r];
          }
          for (std::int64_t r = r0; r < r1; ++r)
            ops.waxpy_rows(c.row(r), b.row(p0), n, idx.data(),
                           at.data() + (r - r0) * kPanelRows, rows, n,
                           kUnroll);
        }
      });
  return c;
}

namespace {

template <class Fn>
Tensor binary_op(const Tensor& a, const Tensor& b, Fn fn) {
  FG_CHECK_MSG(a.numel() == b.numel(), "elementwise operands must match");
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = fn(pa[i], pb[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] * s;
  return out;
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  check_matrix(a);
  FG_CHECK(bias.numel() == a.shape(1));
  Tensor out(a.shape());
  const std::int64_t n = a.shape(1);
  for (std::int64_t i = 0; i < a.shape(0); ++i) {
    const float* ai = a.row(i);
    float* oi = out.row(i);
    const float* bp = bias.data();
    for (std::int64_t j = 0; j < n; ++j) oi[j] = ai[j] + bp[j];
  }
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] > 0 ? pa[i] : 0;
  return out;
}

Tensor relu_backward(const Tensor& dy, const Tensor& x) {
  return binary_op(dy, x, [](float g, float v) { return v > 0 ? g : 0.0f; });
}

Tensor leaky_relu(const Tensor& a, float slope) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i)
    po[i] = pa[i] > 0 ? pa[i] : slope * pa[i];
  return out;
}

Tensor leaky_relu_backward(const Tensor& dy, const Tensor& x, float slope) {
  return binary_op(dy, x,
                   [slope](float g, float v) { return v > 0 ? g : slope * g; });
}

Tensor log_softmax_rows(const Tensor& a) {
  check_matrix(a);
  Tensor out(a.shape());
  const std::int64_t n = a.shape(1);
  for (std::int64_t i = 0; i < a.shape(0); ++i) {
    const float* ai = a.row(i);
    float* oi = out.row(i);
    float mx = ai[0];
    for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, ai[j]);
    float denom = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) denom += std::exp(ai[j] - mx);
    const float log_denom = std::log(denom) + mx;
    for (std::int64_t j = 0; j < n; ++j) oi[j] = ai[j] - log_denom;
  }
  return out;
}

float nll_loss_masked(const Tensor& log_probs,
                      const std::vector<std::int64_t>& mask_rows,
                      const std::vector<std::int32_t>& labels,
                      Tensor* grad_out) {
  FG_CHECK(log_probs.rank() == 2);
  FG_CHECK(!mask_rows.empty());
  const std::int64_t c = log_probs.shape(1);
  if (grad_out != nullptr) {
    *grad_out = Tensor::zeros(log_probs.shape());
  }
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(mask_rows.size());
  for (std::int64_t row : mask_rows) {
    const std::int32_t y = labels[static_cast<std::size_t>(row)];
    FG_CHECK(y >= 0 && y < c);
    loss -= log_probs.at(row, y);
    if (grad_out != nullptr) {
      // d(nll)/d(logits) for log-softmax inputs: softmax(x) - onehot(y).
      const float* lp = log_probs.row(row);
      float* g = grad_out->row(row);
      for (std::int64_t j = 0; j < c; ++j) g[j] = std::exp(lp[j]) * inv_n;
      g[y] -= inv_n;
    }
  }
  return static_cast<float>(loss / static_cast<double>(mask_rows.size()));
}

Tensor transpose(const Tensor& a) {
  check_matrix(a);
  const std::int64_t m = a.shape(0), n = a.shape(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  return out;
}

float sum(const Tensor& a) {
  double s = 0.0;
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) s += p[i];
  return static_cast<float>(s);
}

}  // namespace featgraph::tensor
