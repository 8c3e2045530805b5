#include "core/spmm.hpp"

#include <string>
#include <vector>

#include "core/spmm_kernels.hpp"

namespace featgraph::core {

namespace {

using tensor::Tensor;

/// Instantiates the kernel template for one (message functor, reducer) pair;
/// this is the "registry" moment where the UDF is fused into the template.
template <class MsgFn>
Tensor run_spmm(const graph::Csr& adj, const MsgFn& msg,
                std::string_view reduce_op, std::int64_t d_out,
                const CpuSpmmSchedule& fds,
                const EpilogueOps* epilogue = nullptr) {
  Tensor out({adj.num_rows, d_out});
  if (reduce_op == "sum") {
    generalized_spmm<MsgFn, SumReducer>(adj, msg, out.data(), d_out, fds,
                                        epilogue);
  } else if (reduce_op == "max") {
    generalized_spmm<MsgFn, MaxReducer>(adj, msg, out.data(), d_out, fds,
                                        epilogue);
  } else if (reduce_op == "min") {
    generalized_spmm<MsgFn, MinReducer>(adj, msg, out.data(), d_out, fds,
                                        epilogue);
  } else if (reduce_op == "mean") {
    generalized_spmm<MsgFn, MeanReducer>(adj, msg, out.data(), d_out, fds,
                                         epilogue);
  } else {
    FG_CHECK_MSG(false, "unknown reduce op (expected sum/max/min/mean)");
  }
  return out;
}

const Tensor& require(const Tensor* t, const char* what) {
  FG_CHECK_MSG(t != nullptr && t->defined(), what);
  return *t;
}

}  // namespace

std::int64_t edge_width(const Tensor& e, std::int64_t nnz) {
  if (nnz > 0) return e.numel() / nnz;
  std::int64_t d = 1;
  for (int i = 1; i < e.rank(); ++i) d *= e.shape(i);
  return d;
}

Tensor spmm(const graph::Csr& adj, std::string_view msg_op,
            std::string_view reduce_op, const CpuSpmmSchedule& fds,
            const SpmmOperands& operands, const EpilogueOps* epilogue) {
  if (msg_op == "copy_u") {
    const Tensor& x = require(operands.src_feat, "copy_u requires src_feat");
    FG_CHECK(x.rows() == adj.num_cols);
    return run_spmm(adj, CopyU{x.data(), x.row_size()}, reduce_op,
                    x.row_size(), fds, epilogue);
  }
  if (msg_op == "copy_e") {
    const Tensor& e = require(operands.edge_feat, "copy_e requires edge_feat");
    FG_CHECK(e.rows() == adj.nnz() || e.numel() == adj.nnz());
    const std::int64_t d = edge_width(e, adj.nnz());
    return run_spmm(adj, CopyE{e.data(), d}, reduce_op, d, fds, epilogue);
  }
  if (msg_op == "u_add_v" || msg_op == "u_sub_v" || msg_op == "u_mul_v" ||
      msg_op == "u_div_v") {
    const Tensor& x = require(operands.src_feat, "u_op_v requires src_feat");
    FG_CHECK(x.rows() == adj.num_cols);
    const std::int64_t d = x.row_size();
    if (msg_op == "u_add_v")
      return run_spmm(adj, UOpV<OpAdd>{x.data(), d}, reduce_op, d, fds,
                      epilogue);
    if (msg_op == "u_sub_v")
      return run_spmm(adj, UOpV<OpSub>{x.data(), d}, reduce_op, d, fds,
                      epilogue);
    if (msg_op == "u_mul_v")
      return run_spmm(adj, UOpV<OpMul>{x.data(), d}, reduce_op, d, fds,
                      epilogue);
    return run_spmm(adj, UOpV<OpDiv>{x.data(), d}, reduce_op, d, fds,
                    epilogue);
  }
  if (msg_op == "u_add_e" || msg_op == "u_mul_e") {
    const Tensor& x = require(operands.src_feat, "u_op_e requires src_feat");
    const Tensor& e = require(operands.edge_feat, "u_op_e requires edge_feat");
    FG_CHECK(x.rows() == adj.num_cols);
    const std::int64_t d = x.row_size();
    const std::int64_t d_edge = edge_width(e, adj.nnz());
    FG_CHECK_MSG(d_edge == 1 || d_edge == d,
                 "edge feature must be scalar or match src feature width");
    if (msg_op == "u_add_e")
      return run_spmm(adj, UOpE<OpAdd>{x.data(), e.data(), d, d_edge},
                      reduce_op, d, fds, epilogue);
    return run_spmm(adj, UOpE<OpMul>{x.data(), e.data(), d, d_edge},
                    reduce_op, d, fds, epilogue);
  }
  if (msg_op == "mlp") {
    const Tensor& x = require(operands.src_feat, "mlp requires src_feat");
    const Tensor& w = require(operands.weight, "mlp requires weight");
    FG_CHECK(x.rows() == adj.num_cols);
    FG_CHECK(w.rank() == 2 && w.shape(0) == x.row_size());
    FG_CHECK_MSG(x.row_size() <= kMaxMlpInputDim,
                 "mlp UDF supports d1 <= kMaxMlpInputDim");
    return run_spmm(
        adj, MlpMsg{x.data(), x.row_size(), w.data(), w.shape(1)}, reduce_op,
        w.shape(1), fds, epilogue);
  }
  FG_CHECK_MSG(false, "unknown spmm message op");
}

namespace {

/// Adapts a blackbox std::function UDF to the fused bulk-span protocol by
/// materializing the message into a per-thread scratch buffer, then folding
/// the requested span with the SIMD accumulator.
struct GenericMsgAdapter {
  static constexpr bool kUsesEdgeId = true;  // blackbox: may read anything
  const GenericMsgFn* fn;
  std::int64_t d_out;

  template <class Reducer>
  void apply(const simd::SpanOps& ops, graph::vid_t u, graph::eid_t e,
             graph::vid_t v, float* out_row, std::int64_t j0,
             std::int64_t j1) const {
    thread_local std::vector<float> buf;
    if (static_cast<std::int64_t>(buf.size()) < d_out)
      buf.resize(static_cast<std::size_t>(d_out));
    (*fn)(u, e, v, buf.data());
    simd::accum(ops, Reducer::kAccum, out_row + j0, buf.data() + j0, j1 - j0);
  }
};

}  // namespace

Tensor spmm_generic(const graph::Csr& adj, const GenericMsgFn& msg,
                    std::string_view reduce_op, std::int64_t d_out,
                    const CpuSpmmSchedule& fds) {
  return run_spmm(adj, GenericMsgAdapter{&msg, d_out}, reduce_op, d_out, fds);
}

Tensor spmm_copy_u_max_arg(const graph::Csr& adj,
                           const tensor::Tensor& src_feat,
                           std::vector<graph::vid_t>* arg_src,
                           int num_threads) {
  FG_CHECK(src_feat.rows() == adj.num_cols);
  const std::int64_t d = src_feat.row_size();
  const std::int64_t n = adj.num_rows;
  Tensor out({n, d});
  FG_CHECK(arg_src != nullptr);
  arg_src->assign(static_cast<std::size_t>(n * d), -1);

  const float* x = src_feat.data();
  graph::vid_t* args = arg_src->data();
  parallel::parallel_for_ranges(
      0, n, num_threads, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t v = r0; v < r1; ++v) {
          float* out_row = out.data() + v * d;
          graph::vid_t* arg_row = args + v * d;
          const std::int64_t lo = adj.indptr[v], hi = adj.indptr[v + 1];
          if (lo == hi) {
            for (std::int64_t j = 0; j < d; ++j) out_row[j] = 0.0f;
            continue;
          }
          for (std::int64_t j = 0; j < d; ++j)
            out_row[j] = -std::numeric_limits<float>::infinity();
          for (std::int64_t i = lo; i < hi; ++i) {
            const graph::vid_t u = adj.indices[i];
            const float* xu = x + static_cast<std::int64_t>(u) * d;
            for (std::int64_t j = 0; j < d; ++j) {
              if (xu[j] > out_row[j]) {
                out_row[j] = xu[j];
                arg_row[j] = u;
              }
            }
          }
        }
      });
  return out;
}

}  // namespace featgraph::core
