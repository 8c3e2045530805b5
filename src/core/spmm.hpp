// Public generalized-SpMM API: the coarse-grained `featgraph.spmm` template
// of the paper (Fig. 3) with string-named builtin message functions, any of
// the four reducers, and a CPU feature-dimension schedule.
//
// Builtin message ops (covering DGL's builtin message functions, Sec. III-B):
//   "copy_u"   msg = x_u                       (vanilla SpMM / GCN aggregation)
//   "copy_e"   msg = e
//   "u_add_v"  msg = x_u + x_v   "u_sub_v"  msg = x_u - x_v
//   "u_mul_v"  msg = x_u * x_v   "u_div_v"  msg = x_u / x_v
//   "u_add_e"  msg = x_u + e     "u_mul_e"  msg = x_u * e   (e scalar or vector)
//   "mlp"      msg = ReLU((x_u + x_v) W)       (MLP aggregation, Fig. 3b)
// Reducers: "sum", "max", "min", "mean".
#pragma once

#include <string_view>

#include "core/epilogue.hpp"
#include "core/schedule.hpp"
#include "core/udf.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace featgraph::core {

/// Dense operands a message function may reference.
struct SpmmOperands {
  const tensor::Tensor* src_feat = nullptr;   // X_V: n x d (or n x d1 for mlp)
  const tensor::Tensor* edge_feat = nullptr;  // |E| (scalar) or |E| x d
  const tensor::Tensor* weight = nullptr;     // d1 x d2 (mlp only)
};

/// Runs the generalized SpMM and returns the (num_rows x d_out) result.
/// `adj` is destination-major: row v lists in-neighbors of v. Pass a graph's
/// out_csr to aggregate in the reverse direction (used by gradients).
/// An optional fused epilogue (see epilogue.hpp) runs per output row inside
/// the kernel's row-finalize sweep — bit-identical to running the same
/// elementwise chain eagerly on the returned tensor, minus the extra passes.
tensor::Tensor spmm(const graph::Csr& adj, std::string_view msg_op,
                    std::string_view reduce_op, const CpuSpmmSchedule& fds,
                    const SpmmOperands& operands,
                    const EpilogueOps* epilogue = nullptr);

/// Per-edge feature width of an edge tensor. With edges it is numel / nnz;
/// a graph with no edges reads it off the tensor's trailing shape instead
/// ({0, d} -> d, {0} -> 1), so a launch still knows its output width.
std::int64_t edge_width(const tensor::Tensor& e, std::int64_t nnz);

/// Blackbox-UDF fallback: `msg` writes the full d_out message per edge. This
/// is both the flexibility escape hatch and the reference semantics used by
/// tests (a traditional graph system can only run SpMM this way).
tensor::Tensor spmm_generic(const graph::Csr& adj, const GenericMsgFn& msg,
                            std::string_view reduce_op, std::int64_t d_out,
                            const CpuSpmmSchedule& fds);

/// copy_u / max with argmax tracking: fills `arg_src[v*d + j]` with the
/// source vertex whose feature won the max (or -1 on empty rows). The
/// gradient of max-aggregation routes through exactly these entries.
tensor::Tensor spmm_copy_u_max_arg(const graph::Csr& adj,
                                   const tensor::Tensor& src_feat,
                                   std::vector<graph::vid_t>* arg_src,
                                   int num_threads = 1);

}  // namespace featgraph::core
