// Dense operator library over Tensor: the "dense side" of GNN workloads
// (linear layers, activations, softmax/loss). These back both the UDF bodies
// (e.g. MLP aggregation multiplies with a weight matrix) and the minidgl
// framework's dense layers.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace featgraph::tensor {

// GEMMs are waxpy_rows folds on the span engine (core/simd.hpp). Rounding
// contract: each output element is the naive triple loop's chain — start at
// +0, then one IEEE multiply and one add per reduction step p, p ascending,
// no FMA. Threads split output rows only, never the reduction, so results
// are bit-identical on every SIMD backend at every thread count.

/// C = A(m x k) * B(k x n); `threads` > 1 splits the rows of C.
Tensor matmul(const Tensor& a, const Tensor& b, int threads = 1);

/// C = A(m x k) * B^T where B is (n x k), as matmul(a, transpose(b_t)):
/// meant for a small B such as a weight.
Tensor matmul_transposed(const Tensor& a, const Tensor& b_t, int threads = 1);

/// C = A^T * B, (k x n), for A (m x k) and B (m x n), without transposing A:
/// a linear layer's weight gradient, where m is the large row count.
/// Threads split C's rows and stream A and B in ascending row panels.
Tensor matmul_tn(const Tensor& a, const Tensor& b, int threads = 1);

/// Elementwise helpers; all allocate a fresh result.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
/// out[i, :] = a[i, :] + bias[:] (bias broadcast along rows).
Tensor add_bias(const Tensor& a, const Tensor& bias);

Tensor relu(const Tensor& a);
/// grad of relu: dx = dy * (x > 0).
Tensor relu_backward(const Tensor& dy, const Tensor& x);
Tensor leaky_relu(const Tensor& a, float slope);
Tensor leaky_relu_backward(const Tensor& dy, const Tensor& x, float slope);

/// Row-wise log-softmax for an (n x c) matrix.
Tensor log_softmax_rows(const Tensor& a);
/// Mean negative log-likelihood over the rows listed in `mask_rows`;
/// also writes d(loss)/d(logits) into `grad_out` (same shape as logits).
float nll_loss_masked(const Tensor& log_probs,
                      const std::vector<std::int64_t>& mask_rows,
                      const std::vector<std::int32_t>& labels,
                      Tensor* grad_out);

/// (m x n) -> (n x m).
Tensor transpose(const Tensor& a);

float sum(const Tensor& a);

}  // namespace featgraph::tensor
