// Fused kernel epilogues: the elementwise chain that follows an SpMM (or
// dense matmul) anchor, compiled by the lazy-graph fusion pass into a short
// step program applied per output row inside the kernel's own row-finalize
// sweep — before the row leaves cache, instead of as extra |V|×d passes.
//
// Bit-identity contract: every step is drawn from the exact class of the
// span protocol (adds, multiplies, compares — lanes never cross features and
// no fused multiply-adds), so applying the program inside the sweep yields
// byte-for-byte the tensors the eager chain produces, per ISA and thread
// count. The peephole that folds kAddVec+kRelu into kBiasRelu preserves this:
// both forms run the same IEEE add-then-max chain per element.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/simd.hpp"

namespace featgraph::core {

/// One elementwise post-op over an output row span.
enum class EpilogueKind : int {
  kAddVec = 0,    ///< out[j] += data[j]            (bias broadcast over rows)
  kAddRows = 1,   ///< out[j] += data[v*stride + j] (row-aligned residual add)
  kScale = 2,     ///< out[j] *= scalar
  kRelu = 3,      ///< out[j] = max(out[j], 0)
  kLeakyRelu = 4, ///< out[j] = out[j] > 0 ? out[j] : out[j]*scalar
  kBiasRelu = 5,  ///< out[j] = max(out[j] + data[j], 0)  (peephole of 0+3)
};

struct EpilogueStep {
  EpilogueKind kind;
  float scalar = 0.0f;           ///< kScale factor / kLeakyRelu slope.
  const float* data = nullptr;   ///< kAddVec/kAddRows/kBiasRelu operand.
  std::int64_t stride = 0;       ///< kAddRows row stride (elements).
};

/// A short straight-line program of post-ops, applied to one output row at a
/// time. Kernels accept `const EpilogueOps*` (nullptr = no epilogue) so the
/// unfused path pays nothing.
struct EpilogueOps {
  std::vector<EpilogueStep> steps;

  bool empty() const { return steps.empty(); }

  /// Apply every step to row `v`'s span. Runs after the reducer's
  /// empty-fill/mean-normalize, i.e. on exactly the value the eager chain
  /// would have read from the materialized SpMM output.
  void apply(const simd::SpanOps& ops, std::int64_t v, float* out_row,
             std::int64_t d) const {
    for (const EpilogueStep& s : steps) {
      switch (s.kind) {
        case EpilogueKind::kAddVec:
          simd::accum(ops, simd::Accum::kSum, out_row, s.data, d);
          break;
        case EpilogueKind::kAddRows:
          simd::accum(ops, simd::Accum::kSum, out_row, s.data + v * s.stride,
                      d);
          break;
        case EpilogueKind::kScale:
          ops.scale(out_row, s.scalar, d);
          break;
        case EpilogueKind::kRelu:
          ops.relu(out_row, d);
          break;
        case EpilogueKind::kLeakyRelu:
          ops.leaky_relu(out_row, s.scalar, d);
          break;
        case EpilogueKind::kBiasRelu:
          ops.bias_relu(out_row, s.data, d);
          break;
      }
    }
  }

  /// Fold a trailing kAddVec+kRelu pair into one kBiasRelu step (one pass
  /// over the row instead of two; bitwise-identical add-then-max chain).
  void peephole() {
    std::vector<EpilogueStep> folded;
    folded.reserve(steps.size());
    for (const EpilogueStep& s : steps) {
      if (s.kind == EpilogueKind::kRelu && !folded.empty() &&
          folded.back().kind == EpilogueKind::kAddVec) {
        folded.back().kind = EpilogueKind::kBiasRelu;
        continue;
      }
      folded.push_back(s);
    }
    steps = std::move(folded);
  }

  /// Structural FNV-1a signature covering step kinds and scalar operands
  /// (data pointers excluded: programs with the same shape share compiled
  /// schedules, but fused vs unfused — or differently-shaped — programs must
  /// never alias in BlockScheduleCache).
  std::uint64_t signature() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    mix(static_cast<std::uint64_t>(steps.size()));
    for (const EpilogueStep& s : steps) {
      mix(static_cast<std::uint64_t>(static_cast<int>(s.kind)) + 1);
      std::uint64_t bits = 0;
      static_assert(sizeof(float) == 4, "float must be 32-bit");
      std::memcpy(&bits, &s.scalar, sizeof(float));
      mix(bits);
      mix(static_cast<std::uint64_t>(s.stride));
    }
    return h;
  }
};

}  // namespace featgraph::core
