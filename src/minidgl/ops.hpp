// Differentiable operator library for minidgl.
//
// Every op takes an ExecContext that selects
//   * the sparse backend: kFused runs FeatGraph kernels (messages are never
//     materialized); kMaterialize gathers per-edge message tensors and
//     segment-reduces them — what DGL does WITHOUT FeatGraph (Sec. IV-B),
//     Table VI's baseline;
//   * the device: kCpu executes natively (wall-clock measured outside);
//     kGpuSim executes functionally on the host while accumulating
//     simulated V100 time and materialized-memory bookkeeping in the
//     context (Table VI's GPU rows; the paper's GAT-OOM footnote).
//
// Gradient routing follows the paper's Sec. II-A duality: the backward of
// generalized SpMM w.r.t. edge values is an SDDMM, the backward of SDDMM is
// an SpMM over the reversed graph.
#pragma once

#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "gpusim/device.hpp"
#include "graph/csr.hpp"
#include "minidgl/autograd.hpp"

namespace featgraph::sample {
class BlockScheduleCache;
struct Block;
}  // namespace featgraph::sample

namespace featgraph::minidgl {

enum class SparseBackend { kFused, kMaterialize };
enum class Device { kCpu, kGpuSim };

struct ExecContext {
  SparseBackend backend = SparseBackend::kFused;
  Device device = Device::kCpu;
  int num_threads = 2;
  gpusim::DeviceSpec gpu;

  /// When set, CPU sparse ops resolve their schedule through this
  /// shape-class memo (sample/pipeline.hpp) instead of re-deriving it per
  /// launch — the minibatch pipeline's "consult the tuner once per shape
  /// class" contract. Schedules served from it pin num_partitions == 1:
  /// blocks are minibatch-sized (no LLC pressure to partition away) and the
  /// per-uid partition cache would grow without bound over a stream of
  /// short-lived block adjacencies.
  sample::BlockScheduleCache* schedule_cache = nullptr;
  /// With schedule_cache set: consult the grid tuner (core::tune over the
  /// default candidate list, timed on the first block of each shape class)
  /// instead of the O(1) heuristic.
  bool tune_block_schedules = false;
  /// When set, CPU SpMM launches run this Schedule-IR program (attached to
  /// whatever schedule the cache/heuristic served — the program is
  /// authoritative for every loop-nest decision except num_threads), and
  /// its core::schedule_program_hash is folded into the schedule-cache key
  /// so launches under different programs never alias one shape class. The
  /// program must stay legal for every block shape it will see (e.g. no
  /// chunk(C) beyond the smallest block's row count).
  std::shared_ptr<const core::ScheduleIr> block_schedule_ir;

  /// Fold recorded elementwise chains into SpMM / matmul epilogues (lazy
  /// graph pass 1). Effective on the CPU fused backend only; flip off to
  /// force the eager plan (the fused-vs-eager bit-identity baseline).
  bool fuse_epilogues = true;
  /// Run the linear-scan buffer-reuse / eager-release plan (lazy graph
  /// pass 2). Off = every intermediate stays live to the end of the run.
  bool plan_buffers = true;

  /// Simulated GPU seconds accumulated across ops (kGpuSim only).
  double sim_seconds = 0.0;
  /// Total bytes of materialized per-edge message tensors this epoch —
  /// drives the paper's "GAT training runs out of GPU memory" observation.
  double materialized_bytes = 0.0;
  /// High-water of planned live intermediate bytes across lazy-graph runs
  /// since the last reset — the buffer-reuse pass's figure of merit.
  double peak_bytes = 0.0;

  void reset_accounting() {
    sim_seconds = 0.0;
    materialized_bytes = 0.0;
    peak_bytes = 0.0;
  }
};

// --- dense ops -------------------------------------------------------------

Var matmul(ExecContext& ctx, const Var& a, const Var& b);
Var add_bias(ExecContext& ctx, const Var& a, const Var& bias);
Var relu(ExecContext& ctx, const Var& x);
Var leaky_relu(ExecContext& ctx, const Var& x, float slope);
Var add(ExecContext& ctx, const Var& a, const Var& b);
Var scale(ExecContext& ctx, const Var& a, float s);
Var log_softmax(ExecContext& ctx, const Var& x);

/// Mean NLL over `rows` of log-probabilities; returns a scalar variable.
Var nll_loss(ExecContext& ctx, const Var& log_probs,
             const std::vector<std::int32_t>& labels,
             const std::vector<std::int64_t>& rows);

// --- sparse (message passing) ops -------------------------------------------

/// h[v] = reduce over in-edges of x[u];  reduce in {"sum", "mean", "max"}.
Var spmm_copy_u(ExecContext& ctx, const graph::Graph& g, const Var& x,
                const std::string& reduce);

/// Minibatch (MFG) form of spmm_copy_u: aggregates over a sampled block's
/// local adjacency (sample/block.hpp). `x` holds one row per block SOURCE
/// node; the result has one row per block destination. Backward routes the
/// gradient through the transposed block adjacency, which is derived at
/// record time — and only when an input requires grad; inference pays
/// nothing. The block must outlive the forward call only: backward reads the
/// derived transpose/inverse-degrees, never the block itself (the old tape's
/// unconditional deep copy of the whole adjacency is gone).
Var block_spmm_copy_u(ExecContext& ctx, const sample::Block& block,
                      const Var& x, const std::string& reduce);

/// Rows [begin, begin + count) of x as a new Var; backward scatters the
/// gradient back into the sliced range. With a block's dst-then-src
/// invariant, slice_rows(x, 0, block.num_dst()) is the destination
/// (self-term) feature tensor.
Var slice_rows(ExecContext& ctx, const Var& x, std::int64_t begin,
               std::int64_t count);

/// h[v] = sum over in-edges of w_e * x[u]; w is an edge-scalar variable of
/// shape {|E|} (attention-weighted aggregation).
Var spmm_u_mul_e(ExecContext& ctx, const graph::Graph& g, const Var& x,
                 const Var& w);

/// logits_e = <x[u], x[v]> (dot-product attention scores).
Var sddmm_dot(ExecContext& ctx, const graph::Graph& g, const Var& x);

/// alpha = softmax of edge scalars over each destination's in-edges.
/// Forward and backward run the fused core kernels (core/attention.hpp):
/// threaded segment sweeps on the span engine, replacing the former
/// single-threaded scalar triple sweep.
Var edge_softmax(ExecContext& ctx, const graph::Graph& g, const Var& logits);

/// The whole GAT attention pipeline as ONE op on the fused attention kernel:
///   logit_e = <z_u, z_v> * logit_scale; alpha = edge_softmax(logits);
///   out[v]  = sum alpha_e * z_u
/// Forward is a single fused pass per destination row (no |E| x d tensor and
/// no intermediate logits/alpha Vars); backward routes through the
/// SpMM/SDDMM duality (u_mul_e SpMMs + an SDDMM dot + the fused softmax
/// backward). kFused on either device: kCpu runs the core engine, kGpuSim
/// runs the fused gpusim kernel (gpusim/attention_gpu.hpp — one simulated
/// launch/traversal, bit-identical output, cost accrued in sim_seconds).
/// The composed chain remains the kMaterialize path.
Var gat_attention(ExecContext& ctx, const graph::Graph& g, const Var& z,
                  float logit_scale);

/// Edge weights w_e = 1 / sqrt(deg_out(u) * deg_in(v)) — the symmetric GCN
/// normalization A_hat = D^-1/2 A D^-1/2 (Kipf & Welling); combine with
/// spmm_u_mul_e. Zero-degree endpoints produce weight 0.
tensor::Tensor symmetric_norm_weights(const graph::Graph& g);

}  // namespace featgraph::minidgl
