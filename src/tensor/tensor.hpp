// Dense row-major float32 tensor: the feature containers that make GNN
// workloads "substantially different from traditional graph workloads"
// (paper Fig. 1). Deliberately minimal: shapes up to rank 3, shared
// ownership for cheap views, 64-byte aligned storage for vectorized feature
// loops.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace featgraph::tensor {

/// Buffer allocations since process start. Tensor copies SHARE storage and
/// do not bump this — only fresh buffers (constructors, clone, zeros/full/
/// randn) do. Test hook: diff across a code path to pin its copy count.
std::int64_t allocation_count();

class Tensor {
 public:
  Tensor() = default;

  /// Allocates an uninitialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);
  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>(shape)) {}

  static Tensor zeros(std::vector<std::int64_t> shape);
  static Tensor full(std::vector<std::int64_t> shape, float value);
  /// iid N(0, stddev^2) entries from the given deterministic seed.
  static Tensor randn(std::vector<std::int64_t> shape, std::uint64_t seed,
                      float stddev = 1.0f);
  /// iid U[lo, hi) entries from the given deterministic seed.
  static Tensor uniform(std::vector<std::int64_t> shape, std::uint64_t seed,
                        float lo = 0.0f, float hi = 1.0f);

  bool defined() const { return data_ != nullptr; }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::int64_t numel() const { return numel_; }
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t shape(int i) const { return shape_.at(static_cast<size_t>(i)); }

  /// Number of rows / row width when viewed as a 2-D matrix: a rank-N tensor
  /// is (shape[0]) x (product of remaining dims). Rank-1 is 1 x n.
  std::int64_t rows() const {
    return rank() <= 1 ? 1 : shape_[0];
  }
  std::int64_t row_size() const {
    if (rank() <= 1) return numel_;
    std::int64_t n = 1;
    for (std::size_t i = 1; i < shape_.size(); ++i) n *= shape_[i];
    return n;
  }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float* row(std::int64_t i) {
    FG_DCHECK(i >= 0 && i < rows());
    return data_.get() + i * row_size();
  }
  const float* row(std::int64_t i) const {
    FG_DCHECK(i >= 0 && i < rows());
    return data_.get() + i * row_size();
  }

  float& at(std::int64_t i) {
    FG_DCHECK(i >= 0 && i < numel_);
    return data_.get()[i];
  }
  float at(std::int64_t i) const {
    FG_DCHECK(i >= 0 && i < numel_);
    return data_.get()[i];
  }
  float& at(std::int64_t i, std::int64_t j) { return *(row(i) + j); }
  float at(std::int64_t i, std::int64_t j) const { return *(row(i) + j); }

  /// Deep copy.
  Tensor clone() const;

  /// Shares storage; changes the logical shape. numel must match.
  Tensor reshape(std::vector<std::int64_t> new_shape) const;

  void fill(float value);

 private:
  std::vector<std::int64_t> shape_;
  std::int64_t numel_ = 0;
  std::shared_ptr<float[]> data_;
};

/// Max absolute elementwise difference; both tensors must have equal numel.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace featgraph::tensor
