#include "minidgl/lazy_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "core/attention.hpp"
#include "core/schedule_ir.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "gpusim/attention_gpu.hpp"
#include "gpusim/sddmm_gpu.hpp"
#include "gpusim/spmm_gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "sample/block.hpp"
#include "sample/pipeline.hpp"
#include "support/check.hpp"
#include "tensor/ops.hpp"

namespace featgraph::minidgl {

namespace {

using graph::eid_t;
using graph::vid_t;
using tensor::Tensor;

void charge_dense(ExecContext& ctx, double flops, double bytes) {
  if (ctx.device == Device::kGpuSim)
    ctx.sim_seconds += gpusim::dense_op_seconds(flops, bytes, ctx.gpu);
}

/// Fused generalized SpMM: native on CPU, functional + simulated cost on
/// gpusim. `adj` may be the in-CSR (forward) or out-CSR (gradients). The
/// optional epilogue runs inside the kernel's row-finalize sweep (CPU fused
/// path only — the fusion gate never enables it on gpusim); its signature is
/// folded into the schedule-cache key so fused and unfused launches of one
/// shape class never alias a compiled schedule.
Tensor run_spmm(ExecContext& ctx, const graph::Csr& adj,
                std::string_view msg_op, std::string_view reduce_op,
                const core::SpmmOperands& operands, std::int64_t d_out,
                const core::EpilogueOps* epilogue = nullptr) {
  if (ctx.device == Device::kGpuSim) {
    FG_CHECK(epilogue == nullptr);
    core::GpuSpmmSchedule sched;
    sched.num_blocks = std::max<std::int64_t>(1024, adj.num_rows / 4);
    // 256 threads regardless of feature width: narrow features pack
    // multiple rows per block, so the grid always fills the device.
    sched.threads_per_block = 256;
    auto result = gpusim::spmm_gpu(adj, msg_op, reduce_op, sched, operands,
                                   ctx.gpu);
    ctx.sim_seconds += result.cost.total_s;
    return std::move(result.out);
  }
  core::CpuSpmmSchedule sched;
  const std::uint64_t epilogue_sig =
      (epilogue != nullptr && !epilogue->empty()) ? epilogue->signature() : 0;
  if (ctx.schedule_cache != nullptr) {
    // Shape-class memo (the minibatch pipeline): the tuner/heuristic runs
    // once per (log2 rows, log2 nnz, width, threads, program) class, then
    // the stream of same-shaped blocks reuses the winner. The context's
    // Schedule-IR program (or the empty default) and the fused-epilogue
    // signature hash into the key so two programs over one geometry get
    // distinct entries. num_partitions is pinned to 1 (see
    // ExecContext::schedule_cache) — also what keeps full-fanout block
    // inference bit-identical to the unpartitioned full-graph path.
    core::CpuSpmmSchedule probe;
    probe.ir = ctx.block_schedule_ir;
    sched = ctx.schedule_cache->schedule_for(
        adj.num_rows, adj.nnz(), d_out, ctx.num_threads,
        core::schedule_program_hash(probe, epilogue_sig), [&] {
          if (ctx.tune_block_schedules) {
            return core::tune(core::list_space(core::default_spmm_candidates(
                                  d_out, ctx.num_threads)),
                              core::spmm_measure(adj, msg_op, reduce_op,
                                                 operands),
                              core::Search::grid())
                .best;
          }
          return core::heuristic_spmm_schedule(adj, d_out, ctx.num_threads);
        });
    sched.num_partitions = 1;
  } else {
    sched = core::heuristic_spmm_schedule(adj, d_out, ctx.num_threads);
  }
  // The context's IR program, when present, overrides the flat knobs above
  // (lowering treats an attached program as authoritative).
  if (ctx.block_schedule_ir != nullptr) sched.ir = ctx.block_schedule_ir;
  return core::spmm(adj, msg_op, reduce_op, sched, operands, epilogue);
}

Tensor run_sddmm_dot(ExecContext& ctx, const graph::Coo& coo, const Tensor& a,
                     const Tensor& b) {
  core::SddmmOperands ops{&a, &b};
  if (ctx.device == Device::kGpuSim) {
    core::GpuSddmmSchedule sched;  // tree reduction on by default
    auto result = gpusim::sddmm_gpu(coo, "dot", sched, ops, ctx.gpu);
    ctx.sim_seconds += result.cost.total_s;
    return std::move(result.out);
  }
  core::CpuSddmmSchedule sched;
  sched.num_threads = ctx.num_threads;
  return core::sddmm(coo, "dot", sched, ops);
}

// --- materialize-backend primitives (the DGL-without-FeatGraph path) -------

/// M[e, :] = x[idx[e], :]. Books the materialized tensor and its traffic.
Tensor gather_rows(ExecContext& ctx, const Tensor& x,
                   const std::vector<vid_t>& idx) {
  const std::int64_t d = x.row_size();
  const auto m = static_cast<std::int64_t>(idx.size());
  Tensor out({m, d});
  parallel::parallel_for_ranges(
      0, m, ctx.num_threads, [&](std::int64_t e0, std::int64_t e1) {
        for (std::int64_t e = e0; e < e1; ++e) {
          const float* src = x.row(idx[static_cast<std::size_t>(e)]);
          float* dst = out.row(e);
          for (std::int64_t j = 0; j < d; ++j) dst[j] = src[j];
        }
      });
  const double bytes = static_cast<double>(m) * d * 4.0;
  ctx.materialized_bytes += bytes;
  charge_dense(ctx, 0.0, 2.0 * bytes + m * 4.0);
  return out;
}

/// out[v, :] = reduce over in-edges e of M[edge_id(e), :]. For max, records
/// the winning edge id per output element in `arg_eid` when non-null.
Tensor segment_reduce(ExecContext& ctx, const graph::Csr& in_csr,
                      const Tensor& msgs, const std::string& reduce,
                      std::vector<eid_t>* arg_eid) {
  const std::int64_t d = msgs.row_size();
  const std::int64_t n = in_csr.num_rows;
  Tensor out({n, d});
  if (arg_eid != nullptr) arg_eid->assign(static_cast<std::size_t>(n * d), -1);
  parallel::parallel_for_ranges(
      0, n, ctx.num_threads, [&](std::int64_t v0, std::int64_t v1) {
        for (std::int64_t v = v0; v < v1; ++v) {
          float* ov = out.row(v);
          const std::int64_t lo = in_csr.indptr[v], hi = in_csr.indptr[v + 1];
          if (lo == hi) {
            for (std::int64_t j = 0; j < d; ++j) ov[j] = 0.0f;
            continue;
          }
          const bool is_max = reduce == "max";
          for (std::int64_t j = 0; j < d; ++j)
            ov[j] = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
          for (std::int64_t i = lo; i < hi; ++i) {
            const eid_t e = in_csr.edge_ids[static_cast<std::size_t>(i)];
            const float* me = msgs.row(e);
            for (std::int64_t j = 0; j < d; ++j) {
              if (is_max) {
                if (me[j] > ov[j]) {
                  ov[j] = me[j];
                  if (arg_eid != nullptr)
                    (*arg_eid)[static_cast<std::size_t>(v * d + j)] = e;
                }
              } else {
                ov[j] += me[j];
              }
            }
          }
          if (reduce == "mean") {
            const float inv = 1.0f / static_cast<float>(hi - lo);
            for (std::int64_t j = 0; j < d; ++j) ov[j] *= inv;
          }
        }
      });
  charge_dense(ctx, static_cast<double>(in_csr.nnz()) * d,
               static_cast<double>(in_csr.nnz()) * d * 4.0 +
                   static_cast<double>(n) * d * 4.0);
  return out;
}

/// dx[u, :] = sum over out-edges e of u of dM[edge_id(e), :] — the backward
/// of gather_rows-by-source, computed race-free over the out-CSR.
Tensor scatter_rows_by_src(ExecContext& ctx, const graph::Csr& out_csr,
                           const Tensor& d_msgs) {
  const std::int64_t d = d_msgs.row_size();
  Tensor out = Tensor::zeros({out_csr.num_rows, d});
  parallel::parallel_for_ranges(
      0, out_csr.num_rows, ctx.num_threads,
      [&](std::int64_t u0, std::int64_t u1) {
        for (std::int64_t u = u0; u < u1; ++u) {
          float* ou = out.row(u);
          for (std::int64_t i = out_csr.indptr[u]; i < out_csr.indptr[u + 1];
               ++i) {
            const float* me =
                d_msgs.row(out_csr.edge_ids[static_cast<std::size_t>(i)]);
            for (std::int64_t j = 0; j < d; ++j) ou[j] += me[j];
          }
        }
      });
  charge_dense(ctx, static_cast<double>(out_csr.nnz()) * d,
               static_cast<double>(out_csr.nnz()) * d * 4.0 +
                   static_cast<double>(out_csr.num_rows) * d * 4.0);
  return out;
}

/// Scales each row v of `t` (n x d) by s[v].
Tensor scale_rows(const Tensor& t, const std::vector<float>& s) {
  Tensor out(t.shape());
  const std::int64_t d = t.row_size();
  for (std::int64_t v = 0; v < t.rows(); ++v) {
    const float* src = t.row(v);
    float* dst = out.row(v);
    for (std::int64_t j = 0; j < d; ++j)
      dst[j] = src[j] * s[static_cast<std::size_t>(v)];
  }
  return out;
}

std::vector<float> inverse_in_degrees(const graph::Csr& in_csr) {
  std::vector<float> inv(static_cast<std::size_t>(in_csr.num_rows), 0.0f);
  for (vid_t v = 0; v < in_csr.num_rows; ++v) {
    const auto deg = in_csr.degree(v);
    if (deg > 0)
      inv[static_cast<std::size_t>(v)] = 1.0f / static_cast<float>(deg);
  }
  return inv;
}

std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

/// Can this node start an epilogue chain? Matmul and the sum/mean SpMM
/// variants finalize each output row in one sweep the epilogue can join.
/// Max-reduce tracks an argmax per element, so its rows are not finalized by
/// the span engine — it never anchors.
bool is_anchor(const LazyNode& nd) {
  switch (nd.op) {
    case LazyOp::kMatmul:
    case LazyOp::kSpmmUMulE:
      return true;
    case LazyOp::kSpmmCopyU:
    case LazyOp::kBlockSpmmCopyU:
      return nd.reduce != "max";
    default:
      return false;
  }
}

/// Elementwise ops that may run inside their primary input's buffer when the
/// input dies at this step. The in-place loops below replicate tensor/ops.cpp
/// formula-for-formula, so the rewrite is bitwise invisible.
bool in_place_eligible(LazyOp op) {
  switch (op) {
    case LazyOp::kRelu:
    case LazyOp::kLeakyRelu:
    case LazyOp::kScale:
    case LazyOp::kAddBias:
    case LazyOp::kAdd:
      return true;
    default:
      return false;
  }
}

/// Applies a compiled epilogue to every row of a dense (matmul) anchor
/// output — one hot pass right after the GEMM instead of the eager chain's
/// separate |rows| x d sweeps. Same span primitives, same per-row order as
/// the sparse anchors' in-kernel application.
void apply_epilogue_rows(ExecContext& ctx, Tensor& t,
                         const core::EpilogueOps& ep) {
  const std::int64_t d = t.row_size();
  const simd::SpanOps& ops = simd::span_ops_for_width(d);
  parallel::parallel_for_ranges(
      0, t.rows(), ctx.num_threads, [&](std::int64_t v0, std::int64_t v1) {
        for (std::int64_t v = v0; v < v1; ++v) ep.apply(ops, v, t.row(v), d);
      });
}

/// Everything the derived backward pass needs, captured once per run() into
/// the single autograd node. Replaces the per-op tape closures.
struct SideData {
  std::shared_ptr<std::vector<vid_t>> arg_src;  ///< fused max argmax
  std::shared_ptr<std::vector<eid_t>> arg_eid;  ///< materialize max argmax
  std::shared_ptr<Tensor> alpha;                ///< gat attention weights
};

struct BackwardState {
  std::vector<LazyNode> nodes;
  LazyPlan plan;
  std::vector<Tensor> kept;     ///< per keep-slot value (plan.keep)
  std::vector<SideData> side;   ///< per-node kernel side outputs
  ExecContext* ctx = nullptr;
  NodeId root = kNoNode;
};

/// The backward derivation pass at work: walk the recorded DAG in reverse and
/// apply the per-op vjp. Gradients accumulate per NODE (fused nodes
/// included — their chain-rule terms are ordinary elementwise vjps reading
/// only kept slots), then flush into the leaf Vars.
void run_lazy_backward(BackwardState& st, Node& node) {
  const auto& nodes = st.nodes;
  const LazyPlan& plan = st.plan;
  ExecContext& ctx = *st.ctx;
  const auto n = static_cast<NodeId>(nodes.size());

  std::vector<Tensor> grads(static_cast<std::size_t>(n));
  grads[static_cast<std::size_t>(st.root)] = node.grad();  // read-only share

  // Clone-on-first internal accumulation, mirroring Node::accumulate_grad.
  // `owned` marks tensors safe to take without copying. Later contributions
  // add over parallel element ranges: still one IEEE add per element.
  const simd::SpanOps& ops = simd::span_ops();
  auto acc = [&](NodeId j, Tensor g, bool owned) {
    if (!nodes[static_cast<std::size_t>(j)].needs_grad) return;
    Tensor& dst = grads[static_cast<std::size_t>(j)];
    if (!dst.defined()) {
      dst = owned ? std::move(g) : g.clone();
      return;
    }
    FG_CHECK(dst.numel() == g.numel());
    float* d = dst.data();
    const float* s = g.data();
    parallel::parallel_for_ranges(
        0, dst.numel(), ctx.num_threads, [&](std::int64_t i0, std::int64_t i1) {
          simd::accum(ops, simd::Accum::kSum, d + i0, s + i0, i1 - i0);
        });
  };
  // A pass-through vjp hands node i's gradient on to its last consumer j:
  // the slot is dead once i's vjp has run. The root's gradient is the
  // caller's read-only share, so acc clones it instead.
  auto pass_on = [&](NodeId j, NodeId i) {
    acc(j, std::move(grads[static_cast<std::size_t>(i)]), i != st.root);
  };

  // The value a vjp reads: leaves from their Var, everything else from the
  // kept slot its alias resolves to.
  auto val_of = [&](NodeId j) -> const Tensor& {
    const LazyNode& nd = nodes[static_cast<std::size_t>(j)];
    if (nd.op == LazyOp::kLeaf) return nd.leaf->value();
    const NodeId r = plan.alias[static_cast<std::size_t>(j)];
    FG_CHECK(r != kNoNode);
    const Tensor& t = st.kept[static_cast<std::size_t>(r)];
    FG_CHECK(t.defined());
    return t;
  };

  for (NodeId i = n - 1; i >= 0; --i) {
    const Tensor& g = grads[static_cast<std::size_t>(i)];
    if (!g.defined()) continue;
    const LazyNode& nd = nodes[static_cast<std::size_t>(i)];
    const auto in = [&](int idx) { return nd.inputs[static_cast<std::size_t>(idx)]; };
    const auto in_needs = [&](int idx) {
      return nodes[static_cast<std::size_t>(in(idx))].needs_grad;
    };
    switch (nd.op) {
      case LazyOp::kLeaf:
        break;
      case LazyOp::kMatmul: {
        const auto& sa = nodes[static_cast<std::size_t>(in(0))].shape;
        const auto& sb = nodes[static_cast<std::size_t>(in(1))].shape;
        const std::int64_t m = sa[0], k = sa[1], nn = sb[1];
        if (in_needs(0)) {
          acc(in(0),
              tensor::matmul_transposed(g, val_of(in(1)), ctx.num_threads),
              true);
          charge_dense(ctx, 2.0 * m * k * nn, 0.0);
        }
        if (in_needs(1)) {
          acc(in(1), tensor::matmul_tn(val_of(in(0)), g, ctx.num_threads),
              true);
          charge_dense(ctx, 2.0 * m * k * nn, 0.0);
        }
        break;
      }
      case LazyOp::kAddBias: {
        if (in_needs(1)) {
          const std::int64_t c = g.shape(1);
          Tensor db = Tensor::zeros({c});
          for (std::int64_t r = 0; r < g.shape(0); ++r) {
            const float* gr = g.row(r);
            for (std::int64_t j = 0; j < c; ++j) db.at(j) += gr[j];
          }
          acc(in(1), std::move(db), true);
        }
        pass_on(in(0), i);  // after db: g is moved from here on
        break;
      }
      case LazyOp::kRelu:
        // y > 0 ⟺ x > 0: the output-derived mask selects bit-identically to
        // the input-derived one, and the output survives fusion (kept slot)
        // where the pre-activation input need not exist at all.
        acc(in(0), tensor::relu_backward(g, val_of(i)), true);
        break;
      case LazyOp::kLeakyRelu:
        // Same output-mask equivalence; recording FG_CHECKs slope >= 0.
        acc(in(0), tensor::leaky_relu_backward(g, val_of(i), nd.scalar), true);
        break;
      case LazyOp::kAdd:
        // in(0) == in(1) still sums two copies: the first acc clones.
        acc(in(0), g, false);
        pass_on(in(1), i);
        break;
      case LazyOp::kScale:
        acc(in(0), tensor::scale(g, nd.scalar), true);
        break;
      case LazyOp::kLogSoftmax: {
        // dx = dY - softmax(x) * rowsum(dY), from the kept log-probs.
        const Tensor& ls = val_of(i);
        const std::int64_t rows = ls.shape(0), c = ls.shape(1);
        Tensor dx({rows, c});
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gr = g.row(r);
          const float* l = ls.row(r);
          float gsum = 0.0f;
          for (std::int64_t j = 0; j < c; ++j) gsum += gr[j];
          float* d = dx.row(r);
          for (std::int64_t j = 0; j < c; ++j)
            d[j] = gr[j] - std::exp(l[j]) * gsum;
        }
        acc(in(0), std::move(dx), true);
        break;
      }
      case LazyOp::kNllLoss: {
        const float seed = g.at(0);
        Tensor d =
            Tensor::zeros(nodes[static_cast<std::size_t>(in(0))].shape);
        const float inv = seed / static_cast<float>(nd.rows->size());
        for (std::int64_t r : *nd.rows)
          d.at(r, (*nd.labels)[static_cast<std::size_t>(r)]) -= inv;
        acc(in(0), std::move(d), true);
        break;
      }
      case LazyOp::kSliceRows: {
        const std::int64_t begin = (*nd.rows)[0], count = (*nd.rows)[1];
        const std::int64_t d =
            nodes[static_cast<std::size_t>(in(0))].shape[1];
        Tensor dx =
            Tensor::zeros(nodes[static_cast<std::size_t>(in(0))].shape);
        std::memcpy(dx.data() + begin * d, g.data(),
                    static_cast<std::size_t>(count * d) * sizeof(float));
        acc(in(0), std::move(dx), true);
        break;
      }
      case LazyOp::kSpmmCopyU:
      case LazyOp::kBlockSpmmCopyU: {
        const bool is_block = nd.op == LazyOp::kBlockSpmmCopyU;
        const std::int64_t d =
            nodes[static_cast<std::size_t>(in(0))].shape[1];
        if (nd.reduce == "max") {
          const SideData& sd = st.side[static_cast<std::size_t>(i)];
          if (sd.arg_src != nullptr) {
            // Fused max: scatter through the winning-source argmax.
            Tensor dx = Tensor::zeros(
                nodes[static_cast<std::size_t>(in(0))].shape);
            const std::int64_t rows = g.rows();
            for (std::int64_t v = 0; v < rows; ++v) {
              const float* gv = g.row(v);
              for (std::int64_t j = 0; j < d; ++j) {
                const vid_t u =
                    (*sd.arg_src)[static_cast<std::size_t>(v * d + j)];
                if (u >= 0) dx.at(u, j) += gv[j];
              }
            }
            charge_dense(ctx, 0.0, g.numel() * 12.0);
            acc(in(0), std::move(dx), true);
          } else {
            // Materialize max (full graph only): scatter through the
            // winning-edge argmax, then sum edges back onto sources.
            FG_CHECK(sd.arg_eid != nullptr && nd.g != nullptr);
            const auto m = nd.g->num_edges();
            Tensor d_msgs = Tensor::zeros({m, d});
            ctx.materialized_bytes += static_cast<double>(m) * d * 4.0;
            const std::int64_t rows = g.rows();
            for (std::int64_t v = 0; v < rows; ++v) {
              const float* gv = g.row(v);
              for (std::int64_t j = 0; j < d; ++j) {
                const eid_t e =
                    (*sd.arg_eid)[static_cast<std::size_t>(v * d + j)];
                if (e >= 0) d_msgs.at(e * d + j) += gv[j];
              }
            }
            acc(in(0), scatter_rows_by_src(ctx, nd.g->out_csr(), d_msgs),
                true);
          }
          break;
        }
        // sum / mean: d(loss)/dx[u] = sum over out-edges (u->v) of dout[v]
        // (scaled by 1/in-deg(v) for mean) — an SpMM over the reversed
        // adjacency. Blocks use the rev/inv-deg derived at record time.
        const bool is_mean = nd.reduce == "mean";
        Tensor dout = g;
        if (is_mean) {
          if (is_block) {
            FG_CHECK(nd.block_inv_deg != nullptr);
            dout = scale_rows(g, *nd.block_inv_deg);
          } else {
            dout = scale_rows(g, inverse_in_degrees(nd.g->in_csr()));
          }
        }
        if (is_block) {
          FG_CHECK(nd.block_rev != nullptr);
          acc(in(0),
              run_spmm(ctx, *nd.block_rev, "copy_u", "sum",
                       {&dout, nullptr, nullptr}, d),
              true);
        } else if (ctx.backend == SparseBackend::kFused) {
          acc(in(0),
              run_spmm(ctx, nd.g->out_csr(), "copy_u", "sum",
                       {&dout, nullptr, nullptr}, d),
              true);
        } else {
          Tensor d_msgs = gather_rows(ctx, dout, nd.g->coo().dst);
          acc(in(0), scatter_rows_by_src(ctx, nd.g->out_csr(), d_msgs), true);
        }
        break;
      }
      case LazyOp::kSpmmUMulE: {
        const std::int64_t d =
            nodes[static_cast<std::size_t>(in(0))].shape[1];
        const graph::Graph& gr = *nd.g;
        if (in_needs(0)) {
          // dx[u] = sum over out-edges of w_e * dout[v]: u_mul_e SpMM on the
          // reversed graph (edge ids are shared between orientations).
          if (ctx.backend == SparseBackend::kFused) {
            acc(in(0),
                run_spmm(ctx, gr.out_csr(), "u_mul_e", "sum",
                         {&g, &val_of(in(1)), nullptr}, d),
                true);
          } else {
            Tensor d_msgs = gather_rows(ctx, g, gr.coo().dst);
            const Tensor& w = val_of(in(1));
            for (eid_t e = 0; e < gr.num_edges(); ++e) {
              float* me = d_msgs.row(e);
              const float we = w.at(e);
              for (std::int64_t j = 0; j < d; ++j) me[j] *= we;
            }
            acc(in(0), scatter_rows_by_src(ctx, gr.out_csr(), d_msgs), true);
          }
        }
        if (in_needs(1)) {
          // dw_e = <x[u], dout[v]>: the SDDMM pattern (Sec. II-A).
          if (ctx.backend == SparseBackend::kFused) {
            acc(in(1), run_sddmm_dot(ctx, gr.coo(), val_of(in(0)), g), true);
          } else {
            Tensor xu = gather_rows(ctx, val_of(in(0)), gr.coo().src);
            Tensor gv = gather_rows(ctx, g, gr.coo().dst);
            Tensor dw({gr.num_edges()});
            for (eid_t e = 0; e < gr.num_edges(); ++e) {
              const float* a = xu.row(e);
              const float* b = gv.row(e);
              float s = 0.0f;
              for (std::int64_t j = 0; j < d; ++j) s += a[j] * b[j];
              dw.at(e) = s;
            }
            charge_dense(ctx, static_cast<double>(gr.num_edges()) * d * 2.0,
                         static_cast<double>(gr.num_edges()) * d * 8.0);
            acc(in(1), std::move(dw), true);
          }
        }
        break;
      }
      case LazyOp::kSddmmDot: {
        const std::int64_t d =
            nodes[static_cast<std::size_t>(in(0))].shape[1];
        const graph::Graph& gr = *nd.g;
        const Tensor& x = val_of(in(0));
        // d x[u] += g_e x[v] over out-edges; d x[v] += g_e x[u] over
        // in-edges: two u_mul_e SpMMs (the SpMM pattern, Sec. II-A).
        if (ctx.backend == SparseBackend::kFused) {
          acc(in(0),
              run_spmm(ctx, gr.out_csr(), "u_mul_e", "sum",
                       {&x, &g, nullptr}, d),
              true);
          acc(in(0),
              run_spmm(ctx, gr.in_csr(), "u_mul_e", "sum", {&x, &g, nullptr},
                       d),
              true);
        } else {
          Tensor xv = gather_rows(ctx, x, gr.coo().dst);
          Tensor xu = gather_rows(ctx, x, gr.coo().src);
          for (eid_t e = 0; e < gr.num_edges(); ++e) {
            const float ge = g.at(e);
            float* pv = xv.row(e);
            float* pu = xu.row(e);
            for (std::int64_t j = 0; j < d; ++j) {
              pv[j] *= ge;
              pu[j] *= ge;
            }
          }
          // xv rows scatter to sources, xu rows scatter to destinations.
          acc(in(0), scatter_rows_by_src(ctx, gr.out_csr(), xv), true);
          acc(in(0), scatter_rows_by_src(ctx, gr.in_csr(), xu), true);
        }
        break;
      }
      case LazyOp::kEdgeSoftmax: {
        // dlogit_e = alpha_e * (dalpha_e - sum_{e' in segment} alpha_e'
        // dalpha_e'), per destination segment — the fused softmax backward.
        const Tensor& alpha = val_of(i);
        Tensor d = core::edge_softmax_backward(nd.g->in_csr(), alpha, g,
                                               ctx.num_threads);
        charge_dense(ctx, 3.0 * static_cast<double>(nd.g->num_edges()),
                     6.0 * static_cast<double>(nd.g->num_edges()) * 4.0);
        acc(in(0), std::move(d), true);
        break;
      }
      case LazyOp::kGatAttention: {
        if (!in_needs(0)) break;
        const std::int64_t d =
            nodes[static_cast<std::size_t>(in(0))].shape[1];
        const graph::Graph& gr = *nd.g;
        const SideData& sd = st.side[static_cast<std::size_t>(i)];
        FG_CHECK(sd.alpha != nullptr);
        const Tensor& z = val_of(in(0));
        // Chain rule over the fused pipeline, every term a fused sparse
        // kernel (Sec. II-A duality; nothing |E| x d is materialized):
        //   dz[u] += sum_out-edges alpha_e * dOut[v]       (u_mul_e SpMM)
        acc(in(0),
            run_spmm(ctx, gr.out_csr(), "u_mul_e", "sum",
                     {&g, sd.alpha.get(), nullptr}, d),
            true);
        //   dalpha_e = <z_u, dOut_v>                       (SDDMM dot)
        Tensor dalpha = run_sddmm_dot(ctx, gr.coo(), z, g);
        //   dlogit = softmax backward, then the logit scale
        Tensor dlogit = core::edge_softmax_backward(gr.in_csr(), *sd.alpha,
                                                    dalpha, ctx.num_threads);
        charge_dense(ctx, 3.0 * static_cast<double>(gr.num_edges()),
                     6.0 * static_cast<double>(gr.num_edges()) * 4.0);
        if (nd.scalar != 1.0f) {
          for (std::int64_t e = 0; e < dlogit.numel(); ++e)
            dlogit.at(e) *= nd.scalar;
        }
        //   logits = scale * <z_u, z_v>: dz[u] += dl_e z_v over out-edges,
        //   dz[v] += dl_e z_u over in-edges (two u_mul_e SpMMs).
        acc(in(0),
            run_spmm(ctx, gr.out_csr(), "u_mul_e", "sum",
                     {&z, &dlogit, nullptr}, d),
            true);
        acc(in(0),
            run_spmm(ctx, gr.in_csr(), "u_mul_e", "sum", {&z, &dlogit, nullptr},
                     d),
            true);
        break;
      }
    }
  }

  // Flush leaf gradients (ascending id order, one accumulation per leaf).
  // Moved, not copied: every internal accumulation is owned by `grads` (acc
  // clones unowned passthroughs on first touch), so adoption is safe.
  for (NodeId i = 0; i < n; ++i) {
    const LazyNode& nd = nodes[static_cast<std::size_t>(i)];
    if (nd.op == LazyOp::kLeaf && grads[static_cast<std::size_t>(i)].defined())
      nd.leaf->accumulate_grad(std::move(grads[static_cast<std::size_t>(i)]));
  }
}

}  // namespace

// --- recording --------------------------------------------------------------

NodeId LazyGraph::push(LazyNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId LazyGraph::leaf(const Var& v) {
  FG_CHECK(v != nullptr && v->value().defined());
  for (NodeId i = 0; i < static_cast<NodeId>(nodes_.size()); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].op == LazyOp::kLeaf &&
        nodes_[static_cast<std::size_t>(i)].leaf == v)
      return i;
  }
  LazyNode nd;
  nd.op = LazyOp::kLeaf;
  nd.shape = v->value().shape();
  nd.needs_grad = v->requires_grad();
  nd.leaf = v;
  return push(std::move(nd));
}

namespace {
bool any_needs(const std::vector<LazyNode>& nodes,
               std::initializer_list<NodeId> ids) {
  for (NodeId i : ids)
    if (nodes[static_cast<std::size_t>(i)].needs_grad) return true;
  return false;
}
}  // namespace

NodeId LazyGraph::matmul(NodeId a, NodeId b) {
  const auto& sa = nodes_[static_cast<std::size_t>(a)].shape;
  const auto& sb = nodes_[static_cast<std::size_t>(b)].shape;
  FG_CHECK(sa.size() == 2 && sb.size() == 2 && sa[1] == sb[0]);
  LazyNode nd;
  nd.op = LazyOp::kMatmul;
  nd.inputs = {a, b};
  nd.shape = {sa[0], sb[1]};
  nd.needs_grad = any_needs(nodes_, {a, b});
  return push(std::move(nd));
}

NodeId LazyGraph::add_bias(NodeId a, NodeId bias) {
  const auto& sa = nodes_[static_cast<std::size_t>(a)].shape;
  const auto& sb = nodes_[static_cast<std::size_t>(bias)].shape;
  FG_CHECK(sa.size() == 2 && shape_numel(sb) == sa[1]);
  LazyNode nd;
  nd.op = LazyOp::kAddBias;
  nd.inputs = {a, bias};
  nd.shape = sa;
  nd.needs_grad = any_needs(nodes_, {a, bias});
  return push(std::move(nd));
}

NodeId LazyGraph::relu(NodeId x) {
  LazyNode nd;
  nd.op = LazyOp::kRelu;
  nd.inputs = {x};
  nd.shape = nodes_[static_cast<std::size_t>(x)].shape;
  nd.needs_grad = any_needs(nodes_, {x});
  return push(std::move(nd));
}

NodeId LazyGraph::leaky_relu(NodeId x, float slope) {
  FG_CHECK_MSG(slope >= 0.0f,
               "lazy leaky_relu requires a non-negative slope: the derived "
               "backward reads the activation mask off the OUTPUT (y > 0 iff "
               "x > 0), which fusion may be the only thing that materialized");
  LazyNode nd;
  nd.op = LazyOp::kLeakyRelu;
  nd.inputs = {x};
  nd.shape = nodes_[static_cast<std::size_t>(x)].shape;
  nd.needs_grad = any_needs(nodes_, {x});
  nd.scalar = slope;
  return push(std::move(nd));
}

NodeId LazyGraph::add(NodeId a, NodeId b) {
  const auto& sa = nodes_[static_cast<std::size_t>(a)].shape;
  const auto& sb = nodes_[static_cast<std::size_t>(b)].shape;
  FG_CHECK(shape_numel(sa) == shape_numel(sb));
  LazyNode nd;
  nd.op = LazyOp::kAdd;
  nd.inputs = {a, b};
  nd.shape = sa;
  nd.needs_grad = any_needs(nodes_, {a, b});
  return push(std::move(nd));
}

NodeId LazyGraph::scale(NodeId a, float s) {
  LazyNode nd;
  nd.op = LazyOp::kScale;
  nd.inputs = {a};
  nd.shape = nodes_[static_cast<std::size_t>(a)].shape;
  nd.needs_grad = any_needs(nodes_, {a});
  nd.scalar = s;
  return push(std::move(nd));
}

NodeId LazyGraph::log_softmax(NodeId x) {
  FG_CHECK(nodes_[static_cast<std::size_t>(x)].shape.size() == 2);
  LazyNode nd;
  nd.op = LazyOp::kLogSoftmax;
  nd.inputs = {x};
  nd.shape = nodes_[static_cast<std::size_t>(x)].shape;
  nd.needs_grad = any_needs(nodes_, {x});
  return push(std::move(nd));
}

NodeId LazyGraph::nll_loss(NodeId log_probs, std::vector<std::int32_t> labels,
                           std::vector<std::int64_t> rows) {
  FG_CHECK(!rows.empty());
  LazyNode nd;
  nd.op = LazyOp::kNllLoss;
  nd.inputs = {log_probs};
  nd.shape = {1};
  nd.needs_grad = any_needs(nodes_, {log_probs});
  nd.labels =
      std::make_shared<const std::vector<std::int32_t>>(std::move(labels));
  nd.rows = std::make_shared<const std::vector<std::int64_t>>(std::move(rows));
  return push(std::move(nd));
}

NodeId LazyGraph::slice_rows(NodeId x, std::int64_t begin, std::int64_t count) {
  const auto& sx = nodes_[static_cast<std::size_t>(x)].shape;
  FG_CHECK(sx.size() == 2 && begin >= 0 && count >= 0 &&
           begin + count <= sx[0]);
  LazyNode nd;
  nd.op = LazyOp::kSliceRows;
  nd.inputs = {x};
  nd.shape = {count, sx[1]};
  nd.needs_grad = any_needs(nodes_, {x});
  // The {begin, count} window rides in the rows payload.
  nd.rows = std::make_shared<const std::vector<std::int64_t>>(
      std::vector<std::int64_t>{begin, count});
  return push(std::move(nd));
}

NodeId LazyGraph::spmm_copy_u(const graph::Graph& g, NodeId x,
                              const std::string& reduce) {
  FG_CHECK_MSG(reduce == "sum" || reduce == "mean" || reduce == "max",
               "spmm_copy_u supports sum/mean/max");
  const auto& sx = nodes_[static_cast<std::size_t>(x)].shape;
  FG_CHECK(sx.size() == 2);
  LazyNode nd;
  nd.op = LazyOp::kSpmmCopyU;
  nd.inputs = {x};
  nd.shape = {g.in_csr().num_rows, sx[1]};
  nd.needs_grad = any_needs(nodes_, {x});
  nd.reduce = reduce;
  nd.g = &g;
  return push(std::move(nd));
}

NodeId LazyGraph::block_spmm_copy_u(const sample::Block& block, NodeId x,
                                    const std::string& reduce) {
  FG_CHECK_MSG(reduce == "sum" || reduce == "mean" || reduce == "max",
               "block_spmm_copy_u supports sum/mean/max");
  const auto& sx = nodes_[static_cast<std::size_t>(x)].shape;
  FG_CHECK(sx.size() == 2);
  FG_CHECK_MSG(sx[0] == block.num_src(),
               "x must hold one row per block source node");
  LazyNode nd;
  nd.op = LazyOp::kBlockSpmmCopyU;
  nd.inputs = {x};
  nd.shape = {block.num_dst(), sx[1]};
  nd.needs_grad = any_needs(nodes_, {x});
  nd.reduce = reduce;
  nd.block_adj = &block.adj;
  // The deep adjacency copy the old tape took unconditionally is replaced by
  // record-time derivation of EXACTLY what backward reads — the transposed
  // adjacency (sum/mean) and the inverse in-degrees (mean) — and only when a
  // gradient can actually flow. Max-reduce needs neither: its gradient
  // routes through the argmax captured at execution.
  if (nd.needs_grad && reduce != "max") {
    nd.block_rev =
        std::make_shared<const graph::Csr>(graph::transpose(block.adj));
    if (reduce == "mean") {
      nd.block_inv_deg = std::make_shared<const std::vector<float>>(
          inverse_in_degrees(block.adj));
    }
  }
  return push(std::move(nd));
}

NodeId LazyGraph::spmm_u_mul_e(const graph::Graph& g, NodeId x, NodeId w) {
  const auto& sx = nodes_[static_cast<std::size_t>(x)].shape;
  const auto& sw = nodes_[static_cast<std::size_t>(w)].shape;
  FG_CHECK(sx.size() == 2 && shape_numel(sw) == g.num_edges());
  LazyNode nd;
  nd.op = LazyOp::kSpmmUMulE;
  nd.inputs = {x, w};
  nd.shape = {g.in_csr().num_rows, sx[1]};
  nd.needs_grad = any_needs(nodes_, {x, w});
  nd.g = &g;
  return push(std::move(nd));
}

NodeId LazyGraph::sddmm_dot(const graph::Graph& g, NodeId x) {
  FG_CHECK(nodes_[static_cast<std::size_t>(x)].shape.size() == 2);
  LazyNode nd;
  nd.op = LazyOp::kSddmmDot;
  nd.inputs = {x};
  nd.shape = {g.num_edges()};
  nd.needs_grad = any_needs(nodes_, {x});
  nd.g = &g;
  return push(std::move(nd));
}

NodeId LazyGraph::edge_softmax(const graph::Graph& g, NodeId logits) {
  const auto& sl = nodes_[static_cast<std::size_t>(logits)].shape;
  FG_CHECK(shape_numel(sl) == g.num_edges());
  LazyNode nd;
  nd.op = LazyOp::kEdgeSoftmax;
  nd.inputs = {logits};
  nd.shape = sl;
  nd.needs_grad = any_needs(nodes_, {logits});
  nd.g = &g;
  return push(std::move(nd));
}

NodeId LazyGraph::gat_attention(const graph::Graph& g, NodeId z,
                                float logit_scale) {
  const auto& sz = nodes_[static_cast<std::size_t>(z)].shape;
  FG_CHECK(sz.size() == 2);
  LazyNode nd;
  nd.op = LazyOp::kGatAttention;
  nd.inputs = {z};
  nd.shape = {g.in_csr().num_rows, sz[1]};
  nd.needs_grad = any_needs(nodes_, {z});
  nd.scalar = logit_scale;
  nd.g = &g;
  return push(std::move(nd));
}

// --- compilation -------------------------------------------------------------

LazyPlan LazyGraph::plan(const PlanOptions& options) const {
  const auto n = static_cast<NodeId>(nodes_.size());
  const auto sz = static_cast<std::size_t>(n);
  FG_TRACE_SCOPE("lazy.plan", obs::arg("nodes", static_cast<std::int64_t>(n)),
                 obs::arg("fuse", options.fuse ? 1 : 0));
  LazyPlan p;
  p.fused_into.assign(sz, kNoNode);
  p.alias.resize(sz);
  for (NodeId i = 0; i < n; ++i) p.alias[static_cast<std::size_t>(i)] = i;
  p.epilogue.assign(sz, {});
  p.keep.assign(sz, 0);
  p.step.assign(sz, -1);
  p.last_use.assign(sz, -1);
  p.buffer_id.assign(sz, kNoNode);
  p.in_place.assign(sz, 0);

  // Consumer census (multiplicity counts: add(x, x) consumes x twice).
  std::vector<std::int32_t> consumers(sz, 0);
  std::vector<NodeId> sole(sz, kNoNode);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j : nodes_[static_cast<std::size_t>(i)].inputs) {
      consumers[static_cast<std::size_t>(j)]++;
      sole[static_cast<std::size_t>(j)] = i;
    }
  }

  // --- pass 1: fusion --------------------------------------------------------
  if (options.fuse) {
    for (NodeId a = 0; a < n; ++a) {
      const LazyNode& anchor = nodes_[static_cast<std::size_t>(a)];
      if (!is_anchor(anchor) ||
          p.fused_into[static_cast<std::size_t>(a)] != kNoNode)
        continue;
      // An extern operand is legal when its value is materialized before the
      // anchor executes: a leaf, or a slot written by an earlier step — and
      // never the anchor's own slot, which the epilogue overwrites in place.
      const auto extern_ok = [&](NodeId o) {
        if (nodes_[static_cast<std::size_t>(o)].op == LazyOp::kLeaf)
          return true;
        const NodeId r = p.alias[static_cast<std::size_t>(o)];
        return r != kNoNode && r != a && r < a;
      };
      std::vector<EpiloguePlanStep> steps;
      std::vector<NodeId> chain;
      NodeId cur = a;
      while (true) {
        if (consumers[static_cast<std::size_t>(cur)] != 1) break;
        const NodeId e = sole[static_cast<std::size_t>(cur)];
        const LazyNode& ne = nodes_[static_cast<std::size_t>(e)];
        bool terminal = false;
        bool foldable = true;
        EpiloguePlanStep st{core::EpilogueKind::kRelu, 0.0f, kNoNode};
        switch (ne.op) {
          case LazyOp::kRelu:
            st = {core::EpilogueKind::kRelu, 0.0f, kNoNode};
            terminal = true;  // the vjp mask reads the POST-activation value
            break;
          case LazyOp::kLeakyRelu:
            st = {core::EpilogueKind::kLeakyRelu, ne.scalar, kNoNode};
            terminal = true;
            foldable = ne.scalar >= 0.0f;  // output mask needs y>0 ⟺ x>0
            break;
          case LazyOp::kScale:
            st = {core::EpilogueKind::kScale, ne.scalar, kNoNode};
            break;
          case LazyOp::kAddBias:
            st = {core::EpilogueKind::kAddVec, 0.0f, ne.inputs[1]};
            foldable = ne.inputs[0] == cur && extern_ok(ne.inputs[1]);
            break;
          case LazyOp::kAdd: {
            const NodeId other =
                ne.inputs[0] == cur ? ne.inputs[1] : ne.inputs[0];
            st = {core::EpilogueKind::kAddRows, 0.0f, other};
            foldable =
                extern_ok(other) &&
                nodes_[static_cast<std::size_t>(other)].shape == anchor.shape;
            break;
          }
          default:
            foldable = false;
            break;
        }
        if (!foldable) break;
        steps.push_back(st);
        chain.push_back(e);
        cur = e;
        if (terminal) break;
      }
      if (!chain.empty()) {
        for (std::size_t ci = 0; ci < chain.size(); ++ci) {
          const NodeId e = chain[ci];
          p.fused_into[static_cast<std::size_t>(e)] = a;
          // Mid-chain values are never materialized; the chain tail's value
          // IS the anchor's slot after the epilogue runs.
          p.alias[static_cast<std::size_t>(e)] =
              (ci + 1 == chain.size()) ? a : kNoNode;
        }
        p.alias[static_cast<std::size_t>(a)] = kNoNode;
        p.epilogue[static_cast<std::size_t>(a)] = std::move(steps);
      }
    }
  }

  // --- step order ------------------------------------------------------------
  std::int32_t s = 0;
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (nodes_[ui].op == LazyOp::kLeaf) continue;
    if (p.fused_into[ui] != kNoNode) {
      p.step[ui] = p.step[static_cast<std::size_t>(p.fused_into[ui])];
    } else {
      p.step[ui] = s++;
    }
  }
  p.num_steps = s;

  // --- pass 3 prerequisite: the backward keep-set ----------------------------
  if (options.training) {
    const auto mark = [&](NodeId j) {
      if (nodes_[static_cast<std::size_t>(j)].op == LazyOp::kLeaf) return;
      const NodeId r = p.alias[static_cast<std::size_t>(j)];
      FG_CHECK(r != kNoNode);  // vjps never read unmaterialized values
      p.keep[static_cast<std::size_t>(r)] = 1;
    };
    for (NodeId i = 0; i < n; ++i) {
      const LazyNode& nd = nodes_[static_cast<std::size_t>(i)];
      if (nd.op == LazyOp::kLeaf) continue;
      const auto needs = [&](int idx) {
        return nodes_[static_cast<std::size_t>(
                          nd.inputs[static_cast<std::size_t>(idx)])]
            .needs_grad;
      };
      switch (nd.op) {
        case LazyOp::kMatmul:
          if (needs(0)) mark(nd.inputs[1]);
          if (needs(1)) mark(nd.inputs[0]);
          break;
        case LazyOp::kRelu:
        case LazyOp::kLeakyRelu:
        case LazyOp::kLogSoftmax:
        case LazyOp::kEdgeSoftmax:
          if (needs(0)) mark(i);
          break;
        case LazyOp::kSpmmUMulE:
          if (needs(0)) mark(nd.inputs[1]);
          if (needs(1)) mark(nd.inputs[0]);
          break;
        case LazyOp::kSddmmDot:
        case LazyOp::kGatAttention:
          if (needs(0)) mark(nd.inputs[0]);
          break;
        default:
          break;
      }
    }
  }

  // --- pass 2: liveness + buffer-reuse plan ----------------------------------
  // Reads: every executed node reads the slots its inputs resolve to at its
  // own step; a fused node's extern operands are read at the ANCHOR's step
  // (p.step already says so).
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (nodes_[ui].op == LazyOp::kLeaf) continue;
    for (NodeId j : nodes_[ui].inputs) {
      const NodeId r = p.alias[static_cast<std::size_t>(j)];
      if (r == kNoNode || nodes_[static_cast<std::size_t>(r)].op == LazyOp::kLeaf)
        continue;
      p.last_use[static_cast<std::size_t>(r)] =
          std::max(p.last_use[static_cast<std::size_t>(r)], p.step[ui]);
    }
  }
  // Kept slots and graph outputs (zero-consumer slots) live past the final
  // step: last_use == num_steps keeps them out of every release/reuse list.
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (nodes_[ui].op == LazyOp::kLeaf || p.fused_into[ui] != kNoNode)
      continue;
    if (p.keep[ui] || p.last_use[ui] < 0)
      p.last_use[ui] = static_cast<std::int32_t>(p.num_steps);
  }

  // In-place detection: an eligible elementwise op whose primary input slot
  // is a dying, non-kept intermediate takes over that buffer (live ranges
  // touch at the handoff step — the property tests' `a.last_use <= b.step`
  // convention). The linear scan below then treats the pair as one buffer.
  std::vector<char> transferred(sz, 0);
  if (options.reuse_buffers) {
    for (NodeId i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      const LazyNode& nd = nodes_[ui];
      if (nd.op == LazyOp::kLeaf || p.fused_into[ui] != kNoNode) continue;
      if (!in_place_eligible(nd.op)) continue;
      const NodeId pr = p.alias[static_cast<std::size_t>(nd.inputs[0])];
      if (pr == kNoNode) continue;
      const std::size_t upr = static_cast<std::size_t>(pr);
      if (nodes_[upr].op == LazyOp::kLeaf || p.keep[upr]) continue;
      if (transferred[upr]) continue;
      if (p.last_use[upr] != p.step[ui]) continue;
      if (shape_numel(nodes_[upr].shape) != shape_numel(nd.shape)) continue;
      p.in_place[ui] = 1;
      transferred[upr] = 1;
    }

    // Linear scan over slot definitions (id order == step order), exact-size
    // free list. Buffers free strictly AFTER their last use (equality is the
    // in-place transfer, handled above).
    std::map<std::int64_t, std::vector<NodeId>> free_bufs;
    std::vector<NodeId> active;
    NodeId next_buf = 0;
    for (NodeId i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      const LazyNode& nd = nodes_[ui];
      if (nd.op == LazyOp::kLeaf || p.fused_into[ui] != kNoNode) continue;
      if (p.keep[ui] || p.last_use[ui] >= p.num_steps) continue;
      if (p.in_place[ui]) {
        p.buffer_id[ui] =
            p.buffer_id[static_cast<std::size_t>(p.alias[static_cast<std::size_t>(
                nd.inputs[0])])];
        active.push_back(i);
        continue;
      }
      // Expire buffers whose owner died before this step.
      for (auto it = active.begin(); it != active.end();) {
        const std::size_t us = static_cast<std::size_t>(*it);
        if (p.last_use[us] < p.step[ui] && !transferred[us]) {
          if (p.buffer_id[us] != kNoNode)
            free_bufs[shape_numel(nodes_[us].shape)].push_back(
                p.buffer_id[us]);
          it = active.erase(it);
        } else {
          ++it;
        }
      }
      const std::int64_t bytes_key = shape_numel(nd.shape);
      auto fit = free_bufs.find(bytes_key);
      if (fit != free_bufs.end() && !fit->second.empty()) {
        p.buffer_id[ui] = fit->second.back();
        fit->second.pop_back();
      } else {
        p.buffer_id[ui] = next_buf++;
      }
      active.push_back(i);
    }
    p.num_buffers = next_buf;
  }

  // Peak bytes: high-water of live slot bytes over the step timeline. An
  // in-place slot starts one step late (its storage IS its input's until the
  // handoff), so shared buffers are never double-counted. Kept/output slots
  // stay live through the last step. Same model with reuse off — recycling
  // changes allocator traffic, not the live-byte high-water.
  if (p.num_steps > 0) {
    std::vector<std::int64_t> delta(static_cast<std::size_t>(p.num_steps) + 1,
                                    0);
    for (NodeId i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      if (nodes_[ui].op == LazyOp::kLeaf || p.fused_into[ui] != kNoNode)
        continue;
      std::int64_t s0 = p.step[ui] + (p.in_place[ui] ? 1 : 0);
      std::int64_t s1 =
          std::min<std::int64_t>(p.last_use[ui], p.num_steps - 1);
      if (s0 > s1) continue;
      const std::int64_t bytes = shape_numel(nodes_[ui].shape) * 4;
      delta[static_cast<std::size_t>(s0)] += bytes;
      delta[static_cast<std::size_t>(s1) + 1] -= bytes;
    }
    std::int64_t live = 0;
    for (std::int64_t st = 0; st < p.num_steps; ++st) {
      live += delta[static_cast<std::size_t>(st)];
      p.peak_bytes = std::max(p.peak_bytes, live);
    }
  }
  return p;
}

// --- execution ---------------------------------------------------------------

Var LazyGraph::run(ExecContext& ctx, NodeId root) {
  const auto n = static_cast<NodeId>(nodes_.size());
  const auto sz = static_cast<std::size_t>(n);
  FG_CHECK(root >= 0 && root < n);
  if (nodes_[static_cast<std::size_t>(root)].op == LazyOp::kLeaf)
    return nodes_[static_cast<std::size_t>(root)].leaf;

  PlanOptions po;
  po.fuse = ctx.device == Device::kCpu &&
            ctx.backend == SparseBackend::kFused && ctx.fuse_epilogues;
  po.reuse_buffers = ctx.plan_buffers;
  po.training = nodes_[static_cast<std::size_t>(root)].needs_grad;
  LazyPlan lp = plan(po);
  ctx.peak_bytes =
      std::max(ctx.peak_bytes, static_cast<double>(lp.peak_bytes));

  // Plan-shape metrics: how much the op-graph compiler actually bought.
  {
    std::int64_t fused = 0;
    std::int64_t buffered = 0;
    for (std::size_t ui = 0; ui < sz; ++ui) {
      if (lp.fused_into[ui] != kNoNode) ++fused;
      if (lp.buffer_id[ui] != kNoNode) ++buffered;
    }
    static obs::Counter& obs_runs =
        obs::Registry::global().counter("lazy.run.count");
    static obs::Counter& obs_fused =
        obs::Registry::global().counter("lazy.fusion.count");
    static obs::Counter& obs_reused =
        obs::Registry::global().counter("lazy.buffer.reused");
    static obs::Gauge& obs_peak =
        obs::Registry::global().gauge("lazy.peak_bytes");
    obs_runs.add(1);
    obs_fused.add(fused);
    // Nodes sharing a recycled slot beyond the first occupant of each.
    obs_reused.add(std::max<std::int64_t>(0, buffered - lp.num_buffers));
    obs_peak.set_max(lp.peak_bytes);
  }
  FG_TRACE_SCOPE("lazy.run", obs::arg("steps", lp.num_steps),
                 obs::arg("buffers", lp.num_buffers),
                 obs::arg("peak_bytes", lp.peak_bytes));

  std::vector<Tensor> vals(sz);
  std::vector<SideData> side(sz);

  // Eager release: after the step that last reads a slot, drop its handle.
  std::vector<std::vector<NodeId>> release_after(
      static_cast<std::size_t>(std::max<std::int64_t>(lp.num_steps, 1)));
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (nodes_[ui].op == LazyOp::kLeaf || lp.fused_into[ui] != kNoNode)
      continue;
    if (lp.last_use[ui] >= 0 && lp.last_use[ui] < lp.num_steps)
      release_after[static_cast<std::size_t>(lp.last_use[ui])].push_back(i);
  }

  const auto ev = [&](NodeId j) -> const Tensor& {
    const NodeId r = lp.alias[static_cast<std::size_t>(j)];
    FG_CHECK(r != kNoNode);
    const Tensor& t = vals[static_cast<std::size_t>(r)];
    FG_CHECK(t.defined());
    return t;
  };

  // Leaves load up front (shared views, never deep copies): an anchor's
  // epilogue may reference a bias leaf that was RECORDED after it.
  for (NodeId i = 0; i < n; ++i) {
    if (nodes_[static_cast<std::size_t>(i)].op == LazyOp::kLeaf)
      vals[static_cast<std::size_t>(i)] =
          nodes_[static_cast<std::size_t>(i)].leaf->value();
  }

  for (NodeId i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const LazyNode& nd = nodes_[ui];
    if (nd.op == LazyOp::kLeaf || lp.fused_into[ui] != kNoNode) continue;

    // Resolve this anchor's epilogue program: symbolic operands become data
    // pointers into already-materialized slots, then the peephole folds
    // trailing bias+relu into one pass.
    core::EpilogueOps ep;
    const core::EpilogueOps* ep_ptr = nullptr;
    if (!lp.epilogue[ui].empty()) {
      for (const EpiloguePlanStep& ps : lp.epilogue[ui]) {
        core::EpilogueStep es;
        es.kind = ps.kind;
        es.scalar = ps.scalar;
        if (ps.operand != kNoNode) {
          const Tensor& o = ev(ps.operand);
          es.data = o.data();
          if (ps.kind == core::EpilogueKind::kAddRows)
            es.stride = o.row_size();
        }
        ep.steps.push_back(es);
      }
      ep.peephole();
      ep_ptr = &ep;
    }

    switch (nd.op) {
      case LazyOp::kLeaf:
        break;
      case LazyOp::kMatmul: {
        const Tensor& a = ev(nd.inputs[0]);
        const Tensor& b = ev(nd.inputs[1]);
        const std::int64_t m = a.shape(0), k = a.shape(1), nn = b.shape(1);
        vals[ui] = tensor::matmul(a, b, ctx.num_threads);
        charge_dense(ctx, 2.0 * m * k * nn,
                     4.0 * (static_cast<double>(m) * k +
                            static_cast<double>(k) * nn +
                            static_cast<double>(m) * nn));
        if (ep_ptr != nullptr) apply_epilogue_rows(ctx, vals[ui], *ep_ptr);
        break;
      }
      case LazyOp::kAddBias: {
        const Tensor& b = ev(nd.inputs[1]);
        if (lp.in_place[ui]) {
          Tensor t = vals[static_cast<std::size_t>(
              lp.alias[static_cast<std::size_t>(nd.inputs[0])])];
          const std::int64_t c = t.shape(1);
          const float* bp = b.data();
          for (std::int64_t r = 0; r < t.shape(0); ++r) {
            float* tr = t.row(r);
            for (std::int64_t j = 0; j < c; ++j) tr[j] = tr[j] + bp[j];
          }
          vals[ui] = std::move(t);
        } else {
          vals[ui] = tensor::add_bias(ev(nd.inputs[0]), b);
        }
        charge_dense(ctx, static_cast<double>(shape_numel(nd.shape)),
                     static_cast<double>(shape_numel(nd.shape)) * 8.0);
        break;
      }
      case LazyOp::kRelu: {
        if (lp.in_place[ui]) {
          Tensor t = vals[static_cast<std::size_t>(
              lp.alias[static_cast<std::size_t>(nd.inputs[0])])];
          float* pt = t.data();
          for (std::int64_t e = 0; e < t.numel(); ++e)
            pt[e] = pt[e] > 0 ? pt[e] : 0;
          vals[ui] = std::move(t);
        } else {
          vals[ui] = tensor::relu(ev(nd.inputs[0]));
        }
        charge_dense(ctx, static_cast<double>(shape_numel(nd.shape)),
                     static_cast<double>(shape_numel(nd.shape)) * 8.0);
        break;
      }
      case LazyOp::kLeakyRelu: {
        if (lp.in_place[ui]) {
          Tensor t = vals[static_cast<std::size_t>(
              lp.alias[static_cast<std::size_t>(nd.inputs[0])])];
          float* pt = t.data();
          const float sl = nd.scalar;
          for (std::int64_t e = 0; e < t.numel(); ++e)
            pt[e] = pt[e] > 0 ? pt[e] : sl * pt[e];
          vals[ui] = std::move(t);
        } else {
          vals[ui] = tensor::leaky_relu(ev(nd.inputs[0]), nd.scalar);
        }
        charge_dense(ctx, static_cast<double>(shape_numel(nd.shape)),
                     static_cast<double>(shape_numel(nd.shape)) * 8.0);
        break;
      }
      case LazyOp::kAdd: {
        if (lp.in_place[ui]) {
          const Tensor& b = ev(nd.inputs[1]);
          Tensor t = vals[static_cast<std::size_t>(
              lp.alias[static_cast<std::size_t>(nd.inputs[0])])];
          float* pt = t.data();
          const float* pb = b.data();
          for (std::int64_t e = 0; e < t.numel(); ++e) pt[e] = pt[e] + pb[e];
          vals[ui] = std::move(t);
        } else {
          vals[ui] = tensor::add(ev(nd.inputs[0]), ev(nd.inputs[1]));
        }
        charge_dense(ctx, static_cast<double>(shape_numel(nd.shape)),
                     static_cast<double>(shape_numel(nd.shape)) * 12.0);
        break;
      }
      case LazyOp::kScale: {
        if (lp.in_place[ui]) {
          Tensor t = vals[static_cast<std::size_t>(
              lp.alias[static_cast<std::size_t>(nd.inputs[0])])];
          float* pt = t.data();
          const float s = nd.scalar;
          for (std::int64_t e = 0; e < t.numel(); ++e) pt[e] = pt[e] * s;
          vals[ui] = std::move(t);
        } else {
          vals[ui] = tensor::scale(ev(nd.inputs[0]), nd.scalar);
        }
        charge_dense(ctx, static_cast<double>(shape_numel(nd.shape)),
                     static_cast<double>(shape_numel(nd.shape)) * 8.0);
        break;
      }
      case LazyOp::kLogSoftmax:
        vals[ui] = tensor::log_softmax_rows(ev(nd.inputs[0]));
        charge_dense(ctx, 4.0 * static_cast<double>(shape_numel(nd.shape)),
                     static_cast<double>(shape_numel(nd.shape)) * 8.0);
        break;
      case LazyOp::kNllLoss: {
        const Tensor& lpv = ev(nd.inputs[0]);
        double loss = 0.0;
        for (std::int64_t r : *nd.rows)
          loss -= lpv.at(r, (*nd.labels)[static_cast<std::size_t>(r)]);
        Tensor value({1});
        value.at(0) =
            static_cast<float>(loss / static_cast<double>(nd.rows->size()));
        vals[ui] = std::move(value);
        charge_dense(ctx, static_cast<double>(nd.rows->size()),
                     static_cast<double>(nd.rows->size()) * 8.0);
        break;
      }
      case LazyOp::kSliceRows: {
        const std::int64_t begin = (*nd.rows)[0], count = (*nd.rows)[1];
        const Tensor& x = ev(nd.inputs[0]);
        const std::int64_t d = x.row_size();
        Tensor value({count, d});
        std::memcpy(value.data(), x.data() + begin * d,
                    static_cast<std::size_t>(count * d) * sizeof(float));
        vals[ui] = std::move(value);
        charge_dense(ctx, 0.0, 2.0 * static_cast<double>(count) * d * 4.0);
        break;
      }
      case LazyOp::kSpmmCopyU:
      case LazyOp::kBlockSpmmCopyU: {
        const bool is_block = nd.op == LazyOp::kBlockSpmmCopyU;
        FG_CHECK_MSG(!is_block || nd.block_adj != nullptr,
                     "a recorded block op must run before its Block dies");
        const graph::Csr& adj =
            is_block ? *nd.block_adj : nd.g->in_csr();
        const Tensor& x = ev(nd.inputs[0]);
        const std::int64_t d = x.row_size();
        if (nd.reduce == "max") {
          if (is_block || ctx.backend == SparseBackend::kFused) {
            // Fused max with argmax tracking; the argmax holds source ids in
            // `adj`'s column space — exactly what the gradient scatter needs
            // for full graphs and blocks alike.
            side[ui].arg_src = std::make_shared<std::vector<vid_t>>();
            vals[ui] = core::spmm_copy_u_max_arg(
                adj, x, side[ui].arg_src.get(), ctx.num_threads);
            if (ctx.device == Device::kGpuSim) {
              // Same traffic as a fused max-SpMM; charge it.
              core::GpuSpmmSchedule gsched;
              auto r = gpusim::spmm_gpu(adj, "copy_u", "max", gsched,
                                        {&x, nullptr, nullptr}, ctx.gpu);
              ctx.sim_seconds += r.cost.total_s;
            }
          } else {
            // Materialize: gather messages, segment-max with edge arg.
            Tensor msgs = gather_rows(ctx, x, nd.g->coo().src);
            side[ui].arg_eid = std::make_shared<std::vector<eid_t>>();
            vals[ui] = segment_reduce(ctx, nd.g->in_csr(), msgs, "max",
                                      side[ui].arg_eid.get());
          }
        } else if (is_block || ctx.backend == SparseBackend::kFused) {
          // Block aggregation always runs the fused kernels (the block
          // adjacency is a drop-in Csr; serving never materializes
          // messages). The epilogue — when the fusion pass attached one —
          // runs inside the same row sweep.
          vals[ui] = run_spmm(ctx, adj, "copy_u", nd.reduce,
                              {&x, nullptr, nullptr}, d, ep_ptr);
        } else {
          Tensor msgs = gather_rows(ctx, x, nd.g->coo().src);
          vals[ui] =
              segment_reduce(ctx, nd.g->in_csr(), msgs, nd.reduce, nullptr);
        }
        break;
      }
      case LazyOp::kSpmmUMulE: {
        const Tensor& x = ev(nd.inputs[0]);
        const Tensor& w = ev(nd.inputs[1]);
        const std::int64_t d = x.row_size();
        if (ctx.backend == SparseBackend::kFused) {
          vals[ui] = run_spmm(ctx, nd.g->in_csr(), "u_mul_e", "sum",
                              {&x, &w, nullptr}, d, ep_ptr);
        } else {
          Tensor msgs = gather_rows(ctx, x, nd.g->coo().src);
          for (eid_t e = 0; e < nd.g->num_edges(); ++e) {
            float* me = msgs.row(e);
            const float we = w.at(e);
            for (std::int64_t j = 0; j < d; ++j) me[j] *= we;
          }
          charge_dense(ctx, static_cast<double>(nd.g->num_edges()) * d,
                       static_cast<double>(nd.g->num_edges()) * d * 8.0);
          vals[ui] = segment_reduce(ctx, nd.g->in_csr(), msgs, "sum", nullptr);
        }
        break;
      }
      case LazyOp::kSddmmDot: {
        const Tensor& x = ev(nd.inputs[0]);
        const std::int64_t d = x.row_size();
        if (ctx.backend == SparseBackend::kFused) {
          vals[ui] = run_sddmm_dot(ctx, nd.g->coo(), x, x);
        } else {
          Tensor xu = gather_rows(ctx, x, nd.g->coo().src);
          Tensor xv = gather_rows(ctx, x, nd.g->coo().dst);
          Tensor value({nd.g->num_edges()});
          for (eid_t e = 0; e < nd.g->num_edges(); ++e) {
            const float* a = xu.row(e);
            const float* b = xv.row(e);
            float s = 0.0f;
            for (std::int64_t j = 0; j < d; ++j) s += a[j] * b[j];
            value.at(e) = s;
          }
          charge_dense(ctx, static_cast<double>(nd.g->num_edges()) * d * 2.0,
                       static_cast<double>(nd.g->num_edges()) * d * 8.0);
          vals[ui] = std::move(value);
        }
        break;
      }
      case LazyOp::kEdgeSoftmax:
        // Fused threaded segment softmax (core/attention.hpp), shared by
        // both sparse backends. The keep-set retains the output for the
        // backward sweep — no defensive clone anymore.
        vals[ui] = core::edge_softmax(nd.g->in_csr(), ev(nd.inputs[0]),
                                      ctx.num_threads);
        charge_dense(ctx, 3.0 * static_cast<double>(nd.g->num_edges()),
                     6.0 * static_cast<double>(nd.g->num_edges()) * 4.0);
        break;
      case LazyOp::kGatAttention: {
        FG_CHECK_MSG(ctx.backend == SparseBackend::kFused,
                     "gat_attention is the fused kernel; the materialize "
                     "backend runs the composed chain");
        const Tensor& z = ev(nd.inputs[0]);
        const std::int64_t d = z.row_size();
        core::AttentionOperands operands;
        operands.src_feat = &z;  // query/key default to src_feat
        operands.logit_scale = nd.scalar;
        if (ctx.device == Device::kGpuSim) {
          // One fused grid-stride kernel on the simulated device: one
          // traversal, one launch, zero atomics (gpusim/attention_gpu.hpp).
          core::GpuSpmmSchedule gsched;
          gsched.num_blocks =
              std::max<std::int64_t>(1024, nd.g->in_csr().num_rows / 4);
          auto r = gpusim::attention_gpu(nd.g->in_csr(), "copy_u", gsched,
                                         operands, ctx.gpu);
          ctx.sim_seconds += r.cost.total_s;
          vals[ui] = std::move(r.out);
          side[ui].alpha = std::make_shared<Tensor>(std::move(r.alpha));
        } else {
          const core::CpuSpmmSchedule sched = core::heuristic_spmm_schedule(
              nd.g->in_csr(), d, ctx.num_threads);
          core::AttentionResult res =
              core::attention(nd.g->in_csr(), "copy_u", sched, operands);
          vals[ui] = std::move(res.out);
          side[ui].alpha = std::make_shared<Tensor>(std::move(res.alpha));
        }
        break;
      }
    }

    for (NodeId r : release_after[static_cast<std::size_t>(lp.step[ui])]) {
      if (r != i) vals[static_cast<std::size_t>(r)] = Tensor();
    }
  }

  // Retain what backward reads, then surface the root's value.
  std::vector<Tensor> kept(sz);
  for (NodeId i = 0; i < n; ++i) {
    if (lp.keep[static_cast<std::size_t>(i)])
      kept[static_cast<std::size_t>(i)] = vals[static_cast<std::size_t>(i)];
  }
  const NodeId result_slot = lp.alias[static_cast<std::size_t>(root)];
  FG_CHECK(result_slot != kNoNode);
  Tensor out_value = vals[static_cast<std::size_t>(result_slot)];
  FG_CHECK(out_value.defined());

  if (!nodes_[static_cast<std::size_t>(root)].needs_grad) {
    nodes_.clear();
    return make_leaf(std::move(out_value), false, "lazy_graph");
  }

  std::vector<Var> leaf_vars;
  for (const LazyNode& nd : nodes_)
    if (nd.op == LazyOp::kLeaf) leaf_vars.push_back(nd.leaf);

  auto state = std::make_shared<BackwardState>();
  state->nodes = std::move(nodes_);
  state->plan = std::move(lp);
  state->kept = std::move(kept);
  state->side = std::move(side);
  state->ctx = &ctx;
  state->root = root;
  // Borrowed block adjacencies are dead once the caller's Block goes away;
  // backward only touches the record-time derived rev/inv-deg payloads.
  for (LazyNode& nd : state->nodes) nd.block_adj = nullptr;
  return make_op(
      std::move(out_value), std::move(leaf_vars),
      [state](Node& node) { run_lazy_backward(*state, node); }, "lazy_graph");
}

}  // namespace featgraph::minidgl
