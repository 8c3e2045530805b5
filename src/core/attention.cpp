// Fused attention kernel templates — see attention.hpp for the contract.
//
// Structure mirrors spmm.cpp: string-named builtin message ops resolve to
// WEIGHTED message functors (the bulk-span protocol of udf.hpp with alpha_e
// folded into the accumulate, via axpy / waxpy_binop), the logit side
// resolves to a small logit functor (SDDMM dot partial or a precomputed
// edge scalar), and the launch picks the single-pass fused row sweep or the
// two-phase partitioned form.
#include "core/attention.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/partition_cache.hpp"
#include "core/reducers.hpp"
#include "core/schedule_ir.hpp"
#include "core/spmm.hpp"
#include "core/spmm_kernels.hpp"
#include "core/udf.hpp"
#include "graph/partition.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace featgraph::core {

namespace {

using graph::eid_t;
using graph::vid_t;
using tensor::Tensor;

// --- logit functors --------------------------------------------------------

/// logit_e = <q_u, k_v> * scale — the SDDMM dot span partial (full reduce
/// span; attention recomputes nothing, the dot IS the logits pass).
struct DotLogit {
  const float* q;
  const float* k;
  std::int64_t d;
  float scale;
  float operator()(const simd::SpanOps& ops, vid_t u, eid_t, vid_t v) const {
    return ops.dot(q + static_cast<std::int64_t>(u) * d,
                   k + static_cast<std::int64_t>(v) * d, d) *
           scale;
  }
};

/// logit_e = l[e] * scale — precomputed per-edge scalars.
struct EdgeLogit {
  const float* l;
  float scale;
  float operator()(const simd::SpanOps&, vid_t, eid_t e, vid_t) const {
    return l[e] * scale;
  }
};

// --- weighted message functors ---------------------------------------------
// Bulk-span protocol (udf.hpp) with the softmax weight alpha[e] folded into
// the accumulate; attention always sum-reduces, which the static_assert
// pins. All functors read alpha by edge id so the SAME instantiation runs
// both the fused row sweep and the partitioned generalized_spmm launch.

struct WCopyU {
  static constexpr bool kUsesEdgeId = true;
  /// Weighted row-block protocol (Schedule-IR unroll path in the fused
  /// sweep): the message is a pure weighted gather, so a row's whole edge
  /// group can fold through SpanOps::waxpy_rows with the output tile pinned
  /// in vector registers. The weights array is the row's CSR-position-
  /// contiguous alpha values (the softmax scratch, see fused_rows).
  static constexpr bool kSupportsWeightedRowBlock = true;
  const float* x;
  std::int64_t d;
  const float* alpha;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t e, vid_t,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    static_assert(Reducer::kAccum == simd::Accum::kSum);
    ops.axpy(out_row + j0, x + static_cast<std::int64_t>(u) * d + j0,
             alpha[e], j1 - j0);
  }
  /// out_row[j] += w[i] * x[idx[i], j] folded in i order — the same mul/add
  /// chain cnt apply() calls run.
  void apply_rows_weighted(const simd::SpanOps& ops, const vid_t* idx,
                           std::int64_t cnt, const float* w, float* out_row,
                           std::int64_t j0, std::int64_t j1,
                           int unroll) const {
    ops.waxpy_rows(out_row + j0, x + j0, d, idx, w, cnt, j1 - j0, unroll);
  }
};

/// Detects weighted message functors implementing the row-block protocol.
template <class T, class = void>
struct HasWeightedRowBlock : std::false_type {};
template <class T>
struct HasWeightedRowBlock<T,
                           std::void_t<decltype(T::kSupportsWeightedRowBlock)>>
    : std::bool_constant<T::kSupportsWeightedRowBlock> {};

struct WCopyE {
  static constexpr bool kUsesEdgeId = true;
  const float* edge;
  std::int64_t d;
  const float* alpha;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t, eid_t e, vid_t,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    static_assert(Reducer::kAccum == simd::Accum::kSum);
    ops.axpy(out_row + j0, edge + e * d + j0, alpha[e], j1 - j0);
  }
};

template <class BinOp>
struct WUOpV {
  static constexpr bool kUsesEdgeId = true;
  const float* x;
  std::int64_t d;
  const float* alpha;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t e, vid_t v,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    static_assert(Reducer::kAccum == simd::Accum::kSum);
    simd::waxpy_binop(ops, BinOp::kBinOp, out_row + j0,
                      x + static_cast<std::int64_t>(u) * d + j0,
                      x + static_cast<std::int64_t>(v) * d + j0, alpha[e],
                      j1 - j0);
  }
};

template <class BinOp>
struct WUOpE {
  static constexpr bool kUsesEdgeId = true;
  const float* x;
  const float* edge;
  std::int64_t d;
  std::int64_t d_edge;  // 1 (broadcast scalar) or d
  const float* alpha;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t e, vid_t,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    static_assert(Reducer::kAccum == simd::Accum::kSum);
    const float* xu = x + static_cast<std::int64_t>(u) * d;
    if (d_edge == 1) {
      simd::waxpy_binop_scalar(ops, BinOp::kBinOp, out_row + j0, xu + j0,
                               edge[e], alpha[e], j1 - j0);
    } else {
      simd::waxpy_binop(ops, BinOp::kBinOp, out_row + j0, xu + j0,
                        edge + e * d + j0, alpha[e], j1 - j0);
    }
  }
};

/// MLP aggregation message weighted by alpha: stages the activated span in
/// per-thread scratch exactly like MlpMsg (ReLU must see the finished dot
/// product), then folds it with one weighted axpy.
struct WMlpMsg {
  static constexpr bool kUsesEdgeId = true;
  const float* x;
  std::int64_t d1;
  const float* w;  // row-major d1 x d2
  std::int64_t d2;
  const float* alpha;
  template <class Reducer>
  void apply(const simd::SpanOps& ops, vid_t u, eid_t e, vid_t v,
             float* out_row, std::int64_t j0, std::int64_t j1) const {
    static_assert(Reducer::kAccum == simd::Accum::kSum);
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
    ops.axpy(out_row + j0, msg, alpha[e], n);
  }
};

// --- per-row softmax -------------------------------------------------------

/// Computes row v's softmax weights into `alpha` (scattered by edge id):
/// logits into the scratch (CSR-position contiguous, so the span primitives
/// apply), row max, exponentials + denominator, then the same per-element
/// division the composed edge-softmax performs (NOT multiply-by-reciprocal —
/// rounding stays identical to the composed oracle).
template <class LogitFn>
inline void row_softmax(const simd::SpanOps& ops, const std::int64_t* indptr,
                        const vid_t* indices, const eid_t* edge_ids,
                        std::int64_t v, const LogitFn& logit,
                        std::vector<float>& buf, float* alpha) {
  const std::int64_t lo = indptr[v], hi = indptr[v + 1];
  const std::int64_t deg = hi - lo;
  if (deg == 0) return;
  if (static_cast<std::int64_t>(buf.size()) < deg)
    buf.resize(static_cast<std::size_t>(deg));
  float* l = buf.data();
  for (std::int64_t i = lo; i < hi; ++i)
    l[i - lo] = logit(ops, indices[i], edge_ids[i], static_cast<vid_t>(v));
  const float mx = ops.hmax(l, deg);
  const float denom = ops.exp_scale(l, -mx, deg);
  for (std::int64_t i = 0; i < deg; ++i) l[i] /= denom;
  for (std::int64_t i = 0; i < deg; ++i) alpha[edge_ids[lo + i]] = l[i];
}

/// Rows [r0, r1): softmax only (phase 1 of the partitioned launch).
template <class LogitFn>
void softmax_rows(const simd::SpanOps& ops, const graph::Csr& adj,
                  std::int64_t r0, std::int64_t r1, const LogitFn& logit,
                  float* alpha) {
  thread_local std::vector<float> buf;
  for (std::int64_t v = r0; v < r1; ++v)
    row_softmax(ops, adj.indptr.data(), adj.indices.data(),
                adj.edge_ids.data(), v, logit, buf, alpha);
}

/// Rows [r0, r1): the fully fused pass — softmax, then the weighted
/// aggregation folds alpha_e * MSG into the still-hot output row,
/// feature-tiled innermost. Runs the lowered plan's feature tile and the
/// register-blocked weighted fold for functors with the row-block protocol;
/// a row chunk needs no loop here, because each row's whole feature sweep
/// already happens in one visit. The softmax scratch `buf` keeps row v's
/// divided alphas CSR-position contiguous at [0, deg) — exactly the weights
/// array the blocked fold consumes.
template <class LogitFn, class WMsg>
void fused_rows(const simd::SpanOps& ops, const graph::Csr& adj,
                std::int64_t r0, std::int64_t r1, const LogitFn& logit,
                const WMsg& wmsg, float* out, std::int64_t d_out,
                const LoweredSpmmPlan& plan, float* alpha) {
  const std::int64_t* indptr = adj.indptr.data();
  const vid_t* indices = adj.indices.data();
  const eid_t* edge_ids = adj.edge_ids.data();
  const std::int64_t tile = plan.tile_for(d_out);
  thread_local std::vector<float> buf;
  for (std::int64_t v = r0; v < r1; ++v) {
    float* out_row = out + v * d_out;
    ops.fill(out_row, 0.0f, d_out);
    const std::int64_t lo = indptr[v], hi = indptr[v + 1];
    if (lo == hi) continue;
    row_softmax(ops, indptr, indices, edge_ids, v, logit, buf, alpha);
    for (std::int64_t j0 = 0; j0 < d_out; j0 += tile) {
      const std::int64_t j1 = std::min(j0 + tile, d_out);
      if constexpr (HasWeightedRowBlock<WMsg>::value) {
        if (plan.register_block) {
          wmsg.apply_rows_weighted(ops, indices + lo, hi - lo, buf.data(),
                                   out_row, j0, j1, plan.unroll);
          continue;
        }
      }
      for (std::int64_t i = lo; i < hi; ++i)
        wmsg.template apply<SumReducer>(ops, indices[i], edge_ids[i],
                                        static_cast<vid_t>(v), out_row, j0,
                                        j1);
    }
  }
}

// --- launch ----------------------------------------------------------------

template <class LogitFn, class WMsg>
void launch(const graph::Csr& adj, const LogitFn& logit, const WMsg& wmsg,
            float* out, float* alpha, std::int64_t d_out,
            const CpuSpmmSchedule& sched) {
  const std::int64_t n = adj.num_rows;
  if (n == 0) return;
  static obs::Counter& obs_launches =
      obs::Registry::global().counter("attention.launch.count");
  static obs::Counter& obs_edges =
      obs::Registry::global().counter("attention.edges.swept");
  obs_launches.add(1);
  obs_edges.add(static_cast<std::int64_t>(adj.nnz()));
  obs::TraceScope obs_span("attention.launch");
  if (obs_span.active()) {
    obs_span.arg("rows", n)
        .arg("nnz", static_cast<std::int64_t>(adj.nnz()))
        .arg("d_out", d_out)
        .arg("isa", simd::isa_name(simd::active_isa()))
        .arg("program",
             static_cast<std::int64_t>(schedule_program_hash(sched)));
  }
  // Flat knobs or the attached Schedule-IR program lower once per launch
  // (the same hoisting as generalized_spmm).
  const LoweredSpmmPlan plan =
      lower_spmm_schedule(sched, n, d_out, simd::active_isa());
  // Dispatch hoisted once per launch, as in the SpMM/SDDMM templates.
  // Deliberately NOT width-aware (span_ops_for_width): the same table runs
  // the degree-length softmax spans, and the composed chain's
  // edge_softmax resolves span_ops() — a narrow-d launch swapping the
  // whole table would run AVX2 exp_scale over a >= 16-edge segment where
  // the composed chain runs AVX-512, breaking the fused == composed
  // bit-for-bit contract. Narrow aggregation spans ride the intra-table
  // n < 16 fallback instead.
  const simd::SpanOps& span = simd::span_ops();
  // shard(S) programs route through the same dispatcher as SpMM: the fused
  // pass and the phase-1 softmax both write only rows they own, so the
  // sharded sweep is bit-identical to the static split (alpha included).
  const auto row_sweep = [&](auto&& body) {
    detail::run_row_sweep(plan, adj.indptr.data(), n, body);
  };
  const auto* parts = cached_partition(adj, plan.num_partitions);
  if (parts == nullptr || parts->parts.size() <= 1) {
    row_sweep([&](std::int64_t r0, std::int64_t r1) {
      fused_rows(span, adj, r0, r1, logit, wmsg, out, d_out, plan, alpha);
    });
    return;
  }
  // Partitioned two-phase launch: alpha first (the softmax needs the whole
  // row, which partition segments split), then the d-wide aggregation as a
  // regular partitioned SpMM over the weighted functor — the same nest and
  // the same cached partitioning SpMM runs. alpha values match the fused
  // pass bit-for-bit (same per-row order); only the aggregation's edge-visit
  // order reassociates, exactly like partitioned SpMM.
  row_sweep([&](std::int64_t r0, std::int64_t r1) {
    softmax_rows(span, adj, r0, r1, logit, alpha);
  });
  generalized_spmm<WMsg, SumReducer>(adj, wmsg, out, d_out, sched);
}

const Tensor& require(const Tensor* t, const char* what) {
  FG_CHECK_MSG(t != nullptr && t->defined(), what);
  return *t;
}

/// Resolves the logit functor, then launches. Returns the output tensor;
/// alpha is written in place.
template <class WMsg>
Tensor run_attention(const graph::Csr& adj, const WMsg& wmsg,
                     std::int64_t d_out, const CpuSpmmSchedule& fds,
                     const AttentionOperands& operands, float* alpha) {
  Tensor out({adj.num_rows, d_out});
  if (operands.edge_logits != nullptr) {
    const Tensor& l = *operands.edge_logits;
    FG_CHECK_MSG(l.numel() == adj.nnz(),
                 "edge_logits must hold one scalar per edge");
    launch(adj, EdgeLogit{l.data(), operands.logit_scale}, wmsg, out.data(),
           alpha, d_out, fds);
    return out;
  }
  const Tensor* q =
      operands.query != nullptr ? operands.query : operands.src_feat;
  const Tensor& qt = require(q, "attention requires query (or src_feat)");
  const Tensor& kt = operands.key != nullptr ? *operands.key : qt;
  FG_CHECK(qt.rows() == adj.num_cols);
  FG_CHECK(kt.rows() == adj.num_rows);
  FG_CHECK_MSG(qt.row_size() == kt.row_size(),
               "attention query/key widths must match");
  launch(adj,
         DotLogit{qt.data(), kt.data(), qt.row_size(), operands.logit_scale},
         wmsg, out.data(), alpha, d_out, fds);
  return out;
}

}  // namespace

AttentionResult attention(const graph::Csr& adj, std::string_view msg_op,
                          const CpuSpmmSchedule& fds,
                          const AttentionOperands& operands) {
  AttentionResult res;
  res.alpha = Tensor::zeros({adj.nnz()});
  float* a = res.alpha.data();

  if (msg_op == "copy_u") {
    const Tensor& x = require(operands.src_feat, "copy_u requires src_feat");
    FG_CHECK(x.rows() == adj.num_cols);
    res.out = run_attention(adj, WCopyU{x.data(), x.row_size(), a},
                            x.row_size(), fds, operands, a);
    return res;
  }
  if (msg_op == "copy_e") {
    const Tensor& e = require(operands.edge_feat, "copy_e requires edge_feat");
    FG_CHECK(adj.nnz() == 0 || e.numel() % adj.nnz() == 0);
    const std::int64_t d = edge_width(e, adj.nnz());
    res.out = run_attention(adj, WCopyE{e.data(), d, a}, d, fds, operands, a);
    return res;
  }
  if (msg_op == "u_add_v" || msg_op == "u_sub_v" || msg_op == "u_mul_v" ||
      msg_op == "u_div_v") {
    const Tensor& x = require(operands.src_feat, "u_op_v requires src_feat");
    FG_CHECK(x.rows() == adj.num_cols);
    const std::int64_t d = x.row_size();
    if (msg_op == "u_add_v") {
      res.out = run_attention(adj, WUOpV<OpAdd>{x.data(), d, a}, d, fds,
                              operands, a);
    } else if (msg_op == "u_sub_v") {
      res.out = run_attention(adj, WUOpV<OpSub>{x.data(), d, a}, d, fds,
                              operands, a);
    } else if (msg_op == "u_mul_v") {
      res.out = run_attention(adj, WUOpV<OpMul>{x.data(), d, a}, d, fds,
                              operands, a);
    } else {
      res.out = run_attention(adj, WUOpV<OpDiv>{x.data(), d, a}, d, fds,
                              operands, a);
    }
    return res;
  }
  if (msg_op == "u_add_e" || msg_op == "u_mul_e") {
    const Tensor& x = require(operands.src_feat, "u_op_e requires src_feat");
    const Tensor& e = require(operands.edge_feat, "u_op_e requires edge_feat");
    FG_CHECK(x.rows() == adj.num_cols);
    const std::int64_t d = x.row_size();
    const std::int64_t d_edge = edge_width(e, adj.nnz());
    FG_CHECK_MSG(d_edge == 1 || d_edge == d,
                 "edge feature must be scalar or match src feature width");
    if (msg_op == "u_add_e") {
      res.out = run_attention(
          adj, WUOpE<OpAdd>{x.data(), e.data(), d, d_edge, a}, d, fds,
          operands, a);
    } else {
      res.out = run_attention(
          adj, WUOpE<OpMul>{x.data(), e.data(), d, d_edge, a}, d, fds,
          operands, a);
    }
    return res;
  }
  if (msg_op == "mlp") {
    const Tensor& x = require(operands.src_feat, "mlp requires src_feat");
    const Tensor& w = require(operands.weight, "mlp requires weight");
    FG_CHECK(x.rows() == adj.num_cols);
    FG_CHECK(w.rank() == 2 && w.shape(0) == x.row_size());
    FG_CHECK_MSG(x.row_size() <= kMaxMlpInputDim,
                 "mlp UDF supports d1 <= kMaxMlpInputDim");
    res.out = run_attention(
        adj, WMlpMsg{x.data(), x.row_size(), w.data(), w.shape(1), a},
        w.shape(1), fds, operands, a);
    return res;
  }
  FG_CHECK_MSG(false, "unknown attention message op");
}

Tensor edge_softmax(const graph::Csr& adj, const tensor::Tensor& logits,
                    int num_threads) {
  FG_CHECK(logits.numel() == adj.nnz());
  Tensor alpha = Tensor::zeros({adj.nnz()});
  const simd::SpanOps& span = simd::span_ops();
  const EdgeLogit logit{logits.data(), 1.0f};
  float* a = alpha.data();
  parallel::parallel_for_nnz_ranges(
      adj.indptr.data(), 0, adj.num_rows, num_threads,
      [&](std::int64_t r0, std::int64_t r1) {
        softmax_rows(span, adj, r0, r1, logit, a);
      });
  return alpha;
}

Tensor edge_softmax_backward(const graph::Csr& adj,
                             const tensor::Tensor& alpha,
                             const tensor::Tensor& dalpha, int num_threads) {
  FG_CHECK(alpha.numel() == adj.nnz() && dalpha.numel() == adj.nnz());
  Tensor out = Tensor::zeros({adj.nnz()});
  const simd::SpanOps& span = simd::span_ops();
  const float* av = alpha.data();
  const float* gv = dalpha.data();
  float* dv = out.data();
  const std::int64_t* indptr = adj.indptr.data();
  const eid_t* edge_ids = adj.edge_ids.data();
  parallel::parallel_for_nnz_ranges(
      indptr, 0, adj.num_rows, num_threads,
      [&](std::int64_t r0, std::int64_t r1) {
        // Gather the segment into contiguous scratch so the vectorized dot
        // computes <alpha, dalpha> per destination.
        thread_local std::vector<float> abuf, gbuf;
        for (std::int64_t v = r0; v < r1; ++v) {
          const std::int64_t lo = indptr[v], hi = indptr[v + 1];
          const std::int64_t deg = hi - lo;
          if (deg == 0) continue;
          if (static_cast<std::int64_t>(abuf.size()) < deg) {
            abuf.resize(static_cast<std::size_t>(deg));
            gbuf.resize(static_cast<std::size_t>(deg));
          }
          for (std::int64_t i = lo; i < hi; ++i) {
            abuf[static_cast<std::size_t>(i - lo)] = av[edge_ids[i]];
            gbuf[static_cast<std::size_t>(i - lo)] = gv[edge_ids[i]];
          }
          const float dot = span.dot(abuf.data(), gbuf.data(), deg);
          for (std::int64_t i = lo; i < hi; ++i) {
            const eid_t e = edge_ids[i];
            dv[e] = av[e] * (gv[e] - dot);
          }
        }
      });
  return out;
}

}  // namespace featgraph::core
