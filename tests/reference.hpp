// Naive reference implementations the optimized kernels are validated
// against. Deliberately simple: direct translations of the paper's
// Equations (1) and (2) with no tiling or threading, and partitioning only
// where a kernel's fold order depends on it (reference_spmm_bucketed).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "tensor/tensor.hpp"

namespace featgraph::testing {

using graph::eid_t;
using graph::vid_t;
using tensor::Tensor;

using RefMsgFn =
    std::function<void(vid_t u, eid_t e, vid_t v, std::vector<float>& msg)>;

/// One edge list of a row-major adjacency: a whole CSR, or one source
/// segment of a 1D partitioning.
struct RefEdges {
  const std::int64_t* indptr;
  const vid_t* indices;
  const eid_t* edge_ids;
};

/// Folds each row's in-edges list by list — every edge of edges[0] in
/// order, then edges[1], ... — from the reducer's identity, then applies
/// mean normalization; rows with no edge in any list produce zeros.
inline Tensor reference_spmm_lists(const std::vector<RefEdges>& edges,
                                   vid_t num_rows, const RefMsgFn& msg,
                                   const std::string& reduce_op,
                                   std::int64_t d_out) {
  Tensor out = Tensor::zeros({num_rows, d_out});
  std::vector<float> buf(static_cast<std::size_t>(d_out));
  for (vid_t v = 0; v < num_rows; ++v) {
    std::vector<float> acc(
        static_cast<std::size_t>(d_out),
        reduce_op == "max" ? -std::numeric_limits<float>::infinity()
        : reduce_op == "min" ? std::numeric_limits<float>::infinity()
                             : 0.0f);
    std::int64_t deg = 0;
    for (const RefEdges& list : edges) {
      const std::int64_t lo = list.indptr[v];
      const std::int64_t hi = list.indptr[v + 1];
      for (std::int64_t i = lo; i < hi; ++i, ++deg) {
        msg(list.indices[i], list.edge_ids[i], v, buf);
        for (std::int64_t j = 0; j < d_out; ++j) {
          const auto ju = static_cast<std::size_t>(j);
          if (reduce_op == "max") {
            acc[ju] = std::max(acc[ju], buf[ju]);
          } else if (reduce_op == "min") {
            acc[ju] = std::min(acc[ju], buf[ju]);
          } else {
            acc[ju] += buf[ju];
          }
        }
      }
    }
    if (deg == 0) continue;
    const float scale =
        reduce_op == "mean" ? 1.0f / static_cast<float>(deg) : 1.0f;
    for (std::int64_t j = 0; j < d_out; ++j)
      out.at(v, j) = acc[static_cast<std::size_t>(j)] * scale;
  }
  return out;
}

/// out[v,:] = reduce over in-edges of msg(u, e, v); reduce_op in
/// {sum, max, min, mean}; empty rows produce zeros.
inline Tensor reference_spmm(const graph::Csr& adj, const RefMsgFn& msg,
                             const std::string& reduce_op,
                             std::int64_t d_out) {
  return reference_spmm_lists(
      {{adj.indptr.data(), adj.indices.data(), adj.edge_ids.data()}},
      adj.num_rows, msg, reduce_op, d_out);
}

/// Bucket-ordered SpMM oracle: the fold order of a 1D source-partitioned
/// launch (paper Sec. IV-A). Each row folds its in-edges segment by segment
/// in `parts`' bucket order, CSR order within a segment — the regrouping
/// partition(P) and the flat num_partitions knob perform — with no tiling,
/// chunking or threading. On the scalar backend a partitioned launch
/// performs these exact IEEE operations in this exact order.
inline Tensor reference_spmm_bucketed(const graph::SrcPartitionedCsr& parts,
                                      const RefMsgFn& msg,
                                      const std::string& reduce_op,
                                      std::int64_t d_out) {
  std::vector<RefEdges> edges;
  for (const graph::CsrSegment& seg : parts.parts)
    edges.push_back({seg.indptr.data(), seg.indices.data(),
                     seg.edge_ids.data()});
  return reference_spmm_lists(edges, parts.num_rows, msg, reduce_op, d_out);
}

using RefLogitFn = std::function<float(vid_t u, eid_t e, vid_t v)>;

/// Composed-op attention oracle: per destination row, naive logits ->
/// numerically-stable segment softmax (std::exp, sequential max/sum, the
/// same per-element division the kernels use) -> alpha-weighted aggregation
/// in CSR row order. On the scalar backend with one partition the fused
/// kernel performs these exact IEEE operations in this exact order, so that
/// cell of the differential matrix is bit-for-bit.
inline Tensor reference_attention(const graph::Csr& adj, const RefMsgFn& msg,
                                  const RefLogitFn& logit, std::int64_t d_out,
                                  Tensor* alpha_out = nullptr) {
  Tensor out = Tensor::zeros({adj.num_rows, d_out});
  if (alpha_out != nullptr) *alpha_out = Tensor::zeros({adj.nnz()});
  std::vector<float> buf(static_cast<std::size_t>(d_out));
  for (vid_t v = 0; v < adj.num_rows; ++v) {
    const std::int64_t lo = adj.indptr[static_cast<std::size_t>(v)];
    const std::int64_t hi = adj.indptr[static_cast<std::size_t>(v) + 1];
    if (lo == hi) continue;
    std::vector<float> l(static_cast<std::size_t>(hi - lo));
    for (std::int64_t i = lo; i < hi; ++i)
      l[static_cast<std::size_t>(i - lo)] =
          logit(adj.indices[static_cast<std::size_t>(i)],
                adj.edge_ids[static_cast<std::size_t>(i)], v);
    float mx = -std::numeric_limits<float>::infinity();
    for (const float li : l) mx = li > mx ? li : mx;
    float denom = 0.0f;
    for (float& li : l) {
      li = std::exp(li + -mx);
      denom += li;
    }
    for (float& li : l) li /= denom;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (alpha_out != nullptr)
        alpha_out->at(adj.edge_ids[iu]) = l[static_cast<std::size_t>(i - lo)];
      msg(adj.indices[iu], adj.edge_ids[iu], v, buf);
      const float a = l[static_cast<std::size_t>(i - lo)];
      for (std::int64_t j = 0; j < d_out; ++j)
        out.at(v, j) += buf[static_cast<std::size_t>(j)] * a;
    }
  }
  return out;
}

using RefEdgeFn =
    std::function<void(vid_t u, eid_t e, vid_t v, std::vector<float>& out)>;

/// out[e,:] = fn(u, e, v) over all edges.
inline Tensor reference_sddmm(const graph::Coo& coo, const RefEdgeFn& fn,
                              std::int64_t d_out) {
  Tensor out = d_out == 1 ? Tensor::zeros({coo.num_edges()})
                          : Tensor::zeros({coo.num_edges(), d_out});
  std::vector<float> buf(static_cast<std::size_t>(d_out));
  for (eid_t e = 0; e < coo.num_edges(); ++e) {
    fn(coo.src[static_cast<std::size_t>(e)], e,
       coo.dst[static_cast<std::size_t>(e)], buf);
    for (std::int64_t j = 0; j < d_out; ++j)
      out.at(e * d_out + j) = buf[static_cast<std::size_t>(j)];
  }
  return out;
}

}  // namespace featgraph::testing
