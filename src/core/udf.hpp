// Fine-grained user-defined functions (UDFs), the second granularity of the
// paper's programming interface (Sec. III-B).
//
// A message function computes, for edge (u -> v) with edge id e, the
// elements of a message vector that the SpMM template folds into the
// destination row. An edge function computes, for the same tuple, the
// elements of a new edge feature (SDDMM). In the original system UDFs are
// TVM tensor expressions inlined into the IR template; here they are
// functors the compiler inlines into the C++ kernel templates — same fusion,
// same decoupling (the functor knows nothing about traversal or
// partitioning; the template knows nothing about the feature computation).
//
// The functor protocol for SpMM message functions is BULK-SPAN: one call
// folds the whole feature span [j0, j1) of one edge's message into the
// destination row under the reducer, instead of surrendering each element to
// a per-element callback. This is the paper's FDS story made concrete — the
// feature axis is bound to the vector units (core/simd.hpp span primitives,
// AVX-512/AVX2 with scalar fallback) while the template owns traversal:
//
//   template <class Reducer>
//   void apply(const simd::SpanOps& ops, vid u, eid e, vid v,
//              float* out_row, i64 j0, i64 j1) const
//   // out_row[j] = Reducer::combine(out_row[j], msg_j)   for j in [j0, j1)
//
// `ops` is the span-primitive table the kernel template resolved ONCE at
// launch (simd::span_ops()): per-edge calls index the table directly instead
// of re-running the atomic-load dispatch on every span — the hoisting that
// matters once feature tiles are narrow.
//
// Messages are still never materialized (span primitives fuse the message
// computation with the reducer combine); the reducer is a template parameter
// so the fused (msg, reduce) pair compiles to a single vector loop.
//
// The protocol for SDDMM edge functions:
//   float partial(const simd::SpanOps& ops, vid u, eid e, vid v,
//                 i64 h, i64 k0, i64 k1) const
// returns the partial reduction of output element h over the reduce-axis
// tile [k0, k1); the template sums partials across tiles (this is what the
// FDS's reduce-axis tiling manipulates).
//
// Builtin UDFs cover all DGL builtin message functions the paper cites
// (copy-u/copy-e and u-op-v / u-op-e elementwise forms) plus the paper's
// flagship complex UDFs: MLP aggregation (Fig. 3b) and (multi-head)
// dot-product attention (Fig. 4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/simd.hpp"
#include "graph/csr.hpp"
#include "support/check.hpp"

namespace featgraph::core {

using graph::eid_t;
using graph::vid_t;

// ---------------------------------------------------------------------------
// SpMM message functions
// ---------------------------------------------------------------------------

/// msg = x_u  (GCN aggregation, paper Fig. 3a).
struct CopyU {
  /// The template skips loading per-entry edge ids for UDFs that never read
  /// them (saves 8 B of adjacency traffic per edge visit).
  static constexpr bool kUsesEdgeId = false;
  /// Register-blocked row-group protocol (Schedule-IR unroll path): the
  /// message is a pure gather of source rows, so a row's whole in-edge
  /// group can fold through simd::accum_rows with the output tile pinned in
  /// vector registers.
  static constexpr bool kSupportsRowBlock = true;
  const float* x;
  std::int64_t d;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t, vid_t, float* out_row,
             std::int64_t j0, std::int64_t j1) const {
    const float* xu = x + static_cast<std::int64_t>(u) * d;
    simd::accum(ops, Reducer::kAccum, out_row + j0, xu + j0, j1 - j0);
  }
  /// Folds source rows idx[0..cnt) into out_row[j0, j1) in order — the same
  /// per-element combine chain cnt apply() calls would run.
  template <class Reducer>
  void apply_rows(const simd::SpanOps& ops, const vid_t* idx,
                  std::int64_t cnt, float* out_row, std::int64_t j0,
                  std::int64_t j1, int unroll) const {
    simd::accum_rows(ops, Reducer::kAccum, out_row + j0, x + j0, d, idx, cnt,
                     j1 - j0, unroll);
  }
};

/// msg = e  (copy edge feature).
struct CopyE {
  static constexpr bool kUsesEdgeId = true;
  const float* edge;
  std::int64_t d;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t, eid_t e, vid_t, float* out_row,
             std::int64_t j0, std::int64_t j1) const {
    const float* ee = edge + e * d;
    simd::accum(ops, Reducer::kAccum, out_row + j0, ee + j0, j1 - j0);
  }
};

/// msg = x_u (op) x_v, elementwise.
template <class BinOp>
struct UOpV {
  static constexpr bool kUsesEdgeId = false;
  const float* x;
  std::int64_t d;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t, vid_t v,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    const float* xu = x + static_cast<std::int64_t>(u) * d;
    const float* xv = x + static_cast<std::int64_t>(v) * d;
    simd::accum_binop(ops, Reducer::kAccum, BinOp::kBinOp, out_row + j0,
                      xu + j0, xv + j0, j1 - j0);
  }
};

/// msg = x_u (op) e. Edge features may be scalars (d_edge == 1, broadcast)
/// or full vectors (d_edge == d).
template <class BinOp>
struct UOpE {
  static constexpr bool kUsesEdgeId = true;
  const float* x;
  const float* edge;
  std::int64_t d;
  std::int64_t d_edge;  // 1 (broadcast scalar) or d
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t e, vid_t,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    const float* xu = x + static_cast<std::int64_t>(u) * d;
    if (d_edge == 1) {
      simd::accum_binop_scalar(ops, Reducer::kAccum, BinOp::kBinOp,
                               out_row + j0, xu + j0, edge[e], j1 - j0);
    } else {
      const float* ee = edge + e * d;
      simd::accum_binop(ops, Reducer::kAccum, BinOp::kBinOp, out_row + j0,
                        xu + j0, ee + j0, j1 - j0);
    }
  }
};

// Elementwise op tags; `kBinOp` routes to the matching SIMD span primitive.
struct OpAdd {
  static constexpr simd::BinOp kBinOp = simd::BinOp::kAdd;
  float operator()(float a, float b) const { return a + b; }
};
struct OpSub {
  static constexpr simd::BinOp kBinOp = simd::BinOp::kSub;
  float operator()(float a, float b) const { return a - b; }
};
struct OpMul {
  static constexpr simd::BinOp kBinOp = simd::BinOp::kMul;
  float operator()(float a, float b) const { return a * b; }
};
struct OpDiv {
  static constexpr simd::BinOp kBinOp = simd::BinOp::kDiv;
  float operator()(float a, float b) const { return a / b; }
};

inline constexpr std::int64_t kMaxMlpInputDim = 128;

/// MLP aggregation message (paper Fig. 3b):
///   msg_j = ReLU( sum_k (x_u[k] + x_v[k]) * W[k, j] )
/// with x in R^{n x d1}, W in R^{d1 x d2}. The d2 axis is the message
/// dimension the FDS tiles/parallelizes; the k axis is its reduce axis.
///
/// The bulk form walks k outermost and sweeps the j span with axpy — the
/// rank-1-update layout that keeps W row accesses contiguous and the j loop
/// on the vector units. ReLU forces one materialized span (the activation
/// must see the finished dot product before the reducer folds it), staged in
/// a per-thread scratch buffer.
struct MlpMsg {
  static constexpr bool kUsesEdgeId = false;
  const float* x;
  std::int64_t d1;
  const float* w;  // row-major d1 x d2
  std::int64_t d2;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t, vid_t v,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    FG_DCHECK(d1 <= kMaxMlpInputDim);
    const float* xu = x + static_cast<std::int64_t>(u) * d1;
    const float* xv = x + static_cast<std::int64_t>(v) * d1;
    float s[kMaxMlpInputDim];
    for (std::int64_t k = 0; k < d1; ++k) s[k] = xu[k] + xv[k];
    const std::int64_t n = j1 - j0;
    thread_local std::vector<float> scratch;
    if (static_cast<std::int64_t>(scratch.size()) < n)
      scratch.resize(static_cast<std::size_t>(n));
    float* msg = scratch.data();
    ops.fill(msg, 0.0f, n);
    for (std::int64_t k = 0; k < d1; ++k)
      ops.axpy(msg, w + k * d2 + j0, s[k], n);
    ops.relu(msg, n);
    simd::accum(ops, Reducer::kAccum, out_row + j0, msg, n);
  }
};

/// Type-erased message function for arbitrary user code: writes the whole
/// message vector. This is the "blackbox UDF" path (what a traditional graph
/// processing system sees); it doubles as the reference implementation in
/// tests and as the flexibility escape hatch of the public API.
using GenericMsgFn =
    std::function<void(vid_t u, eid_t e, vid_t v, float* msg_out)>;

// ---------------------------------------------------------------------------
// SDDMM edge functions
// ---------------------------------------------------------------------------

/// out_e = <a_u, b_v>  (dot-product attention, paper Fig. 4a, with a == b;
/// gradients use different a/b, e.g. d(u_mul_e)/d(e) = <x_u, dOut_v>).
struct DotUV {
  const float* a;
  const float* b;
  std::int64_t d;
  std::int64_t num_out() const { return 1; }
  std::int64_t reduce_len() const { return d; }
  float partial(const simd::SpanOps& ops, vid_t u, eid_t, vid_t v,
                std::int64_t, std::int64_t k0, std::int64_t k1) const {
    const float* au = a + static_cast<std::int64_t>(u) * d;
    const float* bv = b + static_cast<std::int64_t>(v) * d;
    return ops.dot(au + k0, bv + k0, k1 - k0);
  }
};

/// out_{e,h} = <a_u[h,:], b_v[h,:]> for h heads (paper Fig. 4b);
/// tensors are (n x heads x head_dim) row-major.
struct MultiHeadDotUV {
  const float* a;
  const float* b;
  std::int64_t heads;
  std::int64_t head_dim;
  std::int64_t num_out() const { return heads; }
  std::int64_t reduce_len() const { return head_dim; }
  float partial(const simd::SpanOps& ops, vid_t u, eid_t, vid_t v,
                std::int64_t h, std::int64_t k0, std::int64_t k1) const {
    const float* au =
        a + (static_cast<std::int64_t>(u) * heads + h) * head_dim;
    const float* bv =
        b + (static_cast<std::int64_t>(v) * heads + h) * head_dim;
    return ops.dot(au + k0, bv + k0, k1 - k0);
  }
};

/// out_{e,j} = a_u[j] (op) b_v[j] — elementwise edge outputs from two dense
/// vertex tensors (a == b is the common case). Reduce axis is trivial.
template <class BinOp>
struct UOpVEdge {
  const float* a;
  const float* b;
  std::int64_t d;
  BinOp op;
  std::int64_t num_out() const { return d; }
  std::int64_t reduce_len() const { return 1; }
  float partial(const simd::SpanOps&, vid_t u, eid_t, vid_t v,
                std::int64_t j, std::int64_t, std::int64_t) const {
    return op(a[static_cast<std::int64_t>(u) * d + j],
              b[static_cast<std::int64_t>(v) * d + j]);
  }
};

/// Type-erased edge function: writes all num_out outputs for one edge.
using GenericEdgeFn =
    std::function<void(vid_t u, eid_t e, vid_t v, float* out)>;

}  // namespace featgraph::core
