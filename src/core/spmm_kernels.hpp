// Generalized SpMM kernel templates (paper Sec. III-B, Fig. 3).
//
// out[v, :] = REDUCE over in-edges (u -e-> v) of MSG(u, e, v)
//
// The coarse-grained template owns graph traversal: feature tiles outermost
// (Fig. 6b), then 1D source partitions processed one at a time with all
// threads cooperating inside the partition (Sec. IV-A), then destination
// rows split across threads (race-free: each thread owns its rows; the
// schedule's load_balance knob picks row-count or nnz-balanced boundaries).
// The fine-grained UDF folds one edge's whole message span into the output
// row per call (the bulk-span protocol of udf.hpp), so the innermost feature
// loop is a dense contiguous sweep on the vector units — messages are never
// materialized, and the fusion of message computation with the reducer
// combine is FeatGraph's key advantage over deep-learning-framework
// backends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "core/epilogue.hpp"
#include "core/reducers.hpp"
#include "core/schedule.hpp"
#include "core/schedule_ir.hpp"
#include "core/simd.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/shard_exec.hpp"
#include "support/check.hpp"

namespace featgraph::core {

namespace detail {

/// The one row-sweep dispatcher every SpMM/attention launch goes through:
/// shard(S) programs run the work-stealing shard executor, everything else
/// keeps the static parallel_for split (nnz- or row-balanced per the plan).
/// Bit-identity across the three paths is the shard executor's contract —
/// `body(r0, r1)` only writes rows it owns, and shard/lane boundaries never
/// split a row, so every path folds identical per-row edge chains.
template <class Body>
void run_row_sweep(const LoweredSpmmPlan& plan, const std::int64_t* indptr,
                   std::int64_t num_rows, const Body& body) {
  const int shards = plan.effective_shards(num_rows);
  if (shards > 1) {
    const bool nnz = plan.load_balance == LoadBalance::kNnzBalanced;
    parallel::sharded_row_sweep(nnz ? indptr : nullptr, num_rows, shards,
                                plan.steal_grain, plan.num_threads, body);
    return;
  }
  if (plan.load_balance == LoadBalance::kNnzBalanced) {
    parallel::parallel_for_nnz_ranges(indptr, 0, num_rows, plan.num_threads,
                                      body);
  } else {
    parallel::parallel_for_ranges(0, num_rows, plan.num_threads, body);
  }
}

/// Detects UDFs that implement the register-blocked row-group protocol
/// (`kSupportsRowBlock` + `apply_rows`): the Schedule-IR unroll path calls
/// apply_rows once per (row, tile) instead of apply once per edge. UDFs
/// without the protocol interpret unroll programs edge-at-a-time — legal,
/// identical results, no register-blocking win.
template <class T, class = void>
struct HasRowBlock : std::false_type {};
template <class T>
struct HasRowBlock<T, std::void_t<decltype(T::kSupportsRowBlock)>>
    : std::bool_constant<T::kSupportsRowBlock> {};

/// Aggregates rows [row_begin, row_end) x features [j0, j1) over one edge
/// segment. `init` resets the tile to the reducer identity first (done on
/// the first partition of each feature tile).
template <class MsgFn, class Reducer>
void spmm_rows(const simd::SpanOps& ops, const std::int64_t* indptr,
               const graph::vid_t* indices, const graph::eid_t* edge_ids,
               std::int64_t row_begin, std::int64_t row_end, const MsgFn& msg,
               float* out, std::int64_t d_out, std::int64_t j0,
               std::int64_t j1, bool init) {
  for (std::int64_t v = row_begin; v < row_end; ++v) {
    float* out_row = out + v * d_out;
    if (init) ops.fill(out_row + j0, Reducer::identity(), j1 - j0);
    for (std::int64_t i = indptr[v]; i < indptr[v + 1]; ++i) {
      // UDFs that never read the edge id skip the edge_ids load entirely:
      // 8 B less adjacency traffic per edge visit, which matters for tiled
      // schedules that re-traverse the graph once per feature tile.
      if constexpr (MsgFn::kUsesEdgeId) {
        msg.template apply<Reducer>(ops, indices[i], edge_ids[i],
                                    static_cast<graph::vid_t>(v), out_row, j0,
                                    j1);
      } else {
        msg.template apply<Reducer>(ops, indices[i], 0,
                                    static_cast<graph::vid_t>(v), out_row, j0,
                                    j1);
      }
    }
  }
}

/// Replaces untouched identities on empty rows and applies mean
/// normalization. `row_degree[v]` is the total in-degree of v. When a fused
/// epilogue is attached it runs here, per row, after the reducer finalize —
/// the one row sweep every SpMM launch already makes, so the fused chain
/// costs zero extra |V|×d passes and sees exactly the value the eager chain
/// would have read back from memory.
template <class Reducer>
void spmm_postprocess(const simd::SpanOps& ops, const std::int64_t* row_degree,
                      std::int64_t num_rows, float* out, std::int64_t d_out,
                      int num_threads, const EpilogueOps* epilogue = nullptr) {
  const bool fused = epilogue != nullptr && !epilogue->empty();
  parallel::parallel_for_ranges(
      0, num_rows, num_threads, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t v = r0; v < r1; ++v) {
          float* out_row = out + v * d_out;
          const std::int64_t deg = row_degree[v];
          if (deg == 0) {
            ops.fill(out_row, Reducer::empty_value(), d_out);
          } else if (Reducer::needs_degree_normalize()) {
            ops.scale(out_row, 1.0f / static_cast<float>(deg), d_out);
          }
          if (fused) epilogue->apply(ops, v, out_row, d_out);
        }
      });
}

/// The Schedule-IR interpreting loop nest: chunked rows > feature tiles >
/// rows > edges, with optional register-blocked row groups. Only launched
/// when the lowered plan asks for something the flat nest can't express
/// (row chunking, register blocking, per-partition overrides); the flat
/// fast path below stays byte-for-byte the pre-IR kernel. Bit-identity: per
/// (row, element) the fill-then-fold order over edges is exactly the flat
/// nest's — chunking and tile reordering move whole (row, tile) blocks, and
/// the blocked apply_rows folds the same per-element chain in the same edge
/// order (simd.hpp accum_rows contract).
template <class MsgFn, class Reducer>
void spmm_interpret(const simd::SpanOps& ops, const graph::Csr& adj,
                    const graph::SrcPartitionedCsr* parts, const MsgFn& msg,
                    float* out, std::int64_t d_out,
                    const LoweredSpmmPlan& plan) {
  const std::int64_t n = adj.num_rows;
  // One partition segment's sweep of rows [r0, r1), one thread.
  const auto segment = [&](const std::int64_t* indptr,
                           const graph::vid_t* indices,
                           const graph::eid_t* edge_ids, std::int64_t r0,
                           std::int64_t r1, bool init, int part) {
    const std::int64_t tw = plan.tile_for(d_out, part);
    const std::int64_t chunk = plan.row_chunk > 0 ? plan.row_chunk : r1 - r0;
    for (std::int64_t c0 = r0; c0 < r1; c0 += std::max<std::int64_t>(chunk, 1)) {
      const std::int64_t c1 = std::min(c0 + chunk, r1);
      for (std::int64_t j0 = 0; j0 < d_out; j0 += tw) {
        const std::int64_t j1 = std::min(j0 + tw, d_out);
        for (std::int64_t v = c0; v < c1; ++v) {
          float* out_row = out + v * d_out;
          if (init)
            ops.fill(out_row + j0, Reducer::identity(), j1 - j0);
          const std::int64_t lo = indptr[v];
          const std::int64_t hi = indptr[v + 1];
          if constexpr (HasRowBlock<MsgFn>::value) {
            if (plan.register_block) {
              msg.template apply_rows<Reducer>(ops, indices + lo, hi - lo,
                                               out_row, j0, j1, plan.unroll);
              continue;
            }
          }
          for (std::int64_t i = lo; i < hi; ++i) {
            if constexpr (MsgFn::kUsesEdgeId) {
              msg.template apply<Reducer>(ops, indices[i], edge_ids[i],
                                          static_cast<graph::vid_t>(v),
                                          out_row, j0, j1);
            } else {
              msg.template apply<Reducer>(ops, indices[i], 0,
                                          static_cast<graph::vid_t>(v),
                                          out_row, j0, j1);
            }
          }
        }
      }
    }
  };
  // Threads cooperate inside one partition at a time (same nesting as the
  // flat path); nnz balance is computed per segment.
  const auto sweep = [&](const std::int64_t* indptr,
                         const graph::vid_t* indices,
                         const graph::eid_t* edge_ids, bool init, int part) {
    const auto body = [&](std::int64_t r0, std::int64_t r1) {
      segment(indptr, indices, edge_ids, r0, r1, init, part);
    };
    run_row_sweep(plan, indptr, n, body);
  };
  if (parts == nullptr || parts->parts.size() <= 1) {
    sweep(adj.indptr.data(), adj.indices.data(), adj.edge_ids.data(),
          /*init=*/true, /*part=*/-1);
  } else {
    FG_CHECK(parts->num_rows == adj.num_rows);
    bool first = true;
    int part = 0;
    for (const auto& seg : parts->parts) {
      sweep(seg.indptr.data(), seg.indices.data(), seg.edge_ids.data(), first,
            part);
      first = false;
      ++part;
    }
  }
}

}  // namespace detail

/// Generalized SpMM over a destination-major CSR. `parts` may be null (no
/// partitioning) or a 1D source partitioning of the same CSR. The schedule's
/// feature tile, thread count, and load-balance policy apply in both cases.
template <class MsgFn, class Reducer>
void generalized_spmm(const graph::Csr& adj,
                      const graph::SrcPartitionedCsr* parts, const MsgFn& msg,
                      float* out, std::int64_t d_out,
                      const CpuSpmmSchedule& sched,
                      const EpilogueOps* epilogue = nullptr) {
  const std::int64_t n = adj.num_rows;
  if (n == 0 || d_out == 0) return;

  // Launch-granular observability: three relaxed counter bumps plus one
  // disabled-flag branch when tracing is off; the program hash (a real
  // reduction over the schedule) is only computed when a trace is live.
  static obs::Counter& obs_launches =
      obs::Registry::global().counter("spmm.launch.count");
  static obs::Counter& obs_rows =
      obs::Registry::global().counter("spmm.rows.swept");
  static obs::Counter& obs_nnz =
      obs::Registry::global().counter("spmm.nnz.swept");
  obs_launches.add(1);
  obs_rows.add(n);
  obs_nnz.add(static_cast<std::int64_t>(adj.nnz()));
  obs::TraceScope obs_span("spmm.launch");
  if (obs_span.active()) {
    const std::uint64_t sig = epilogue != nullptr ? epilogue->signature() : 0;
    obs_span.arg("rows", n)
        .arg("nnz", static_cast<std::int64_t>(adj.nnz()))
        .arg("d_out", d_out)
        .arg("isa", simd::isa_name(simd::active_isa()))
        .arg("program",
             static_cast<std::int64_t>(schedule_program_hash(sched, sig)))
        .arg("epilogue_sig", static_cast<std::int64_t>(sig));
  }

  // Hoist every loop-nest decision out of the launch: flat knobs (or the
  // attached Schedule-IR program) lower ONCE into a plain plan struct.
  const LoweredSpmmPlan plan =
      lower_spmm_schedule(sched, n, d_out, simd::active_isa());

  if (plan.needs_interpreter()) {
    const simd::SpanOps& span = simd::span_ops_for_width(plan.max_tile(d_out));
    detail::spmm_interpret<MsgFn, Reducer>(span, adj, parts, msg, out, d_out,
                                           plan);
    const std::int64_t* row_degree =
        (parts != nullptr && parts->parts.size() > 1)
            ? parts->row_degrees().data()
            : adj.degrees().data();
    detail::spmm_postprocess<Reducer>(span, row_degree, n, out, d_out,
                                      plan.num_threads, epilogue);
    return;
  }

  const std::int64_t tile =
      plan.feat_tile > 0 ? std::min(plan.feat_tile, d_out) : d_out;

  // Dispatch hoisted out of the inner loops: resolve the span-primitive
  // table ONCE per kernel launch and thread the reference through the
  // bulk-UDF protocol — per-span calls are a direct table load instead of a
  // relaxed atomic load + re-dispatch. Tests that pin an ISA mid-run
  // (ScopedIsa) still see a consistent backend for the whole launch. The
  // width-aware form additionally resolves narrow launches (every span a
  // 512-bit tail) straight to the AVX2 table — same code the intra-table
  // fallback would pick, minus its per-span branch.
  const simd::SpanOps& span = simd::span_ops_for_width(tile);

  // One edge segment, all threads cooperating; the load_balance knob picks
  // whether thread boundaries equalize rows or nnz. Note nnz balance is
  // computed per segment — a partition's skew, not the whole graph's,
  // decides its boundaries.
  const auto sweep = [&](const std::int64_t* indptr,
                         const graph::vid_t* indices,
                         const graph::eid_t* edge_ids, std::int64_t j0,
                         std::int64_t j1, bool init) {
    const auto body = [&](std::int64_t r0, std::int64_t r1) {
      detail::spmm_rows<MsgFn, Reducer>(span, indptr, indices, edge_ids, r0,
                                        r1, msg, out, d_out, j0, j1, init);
    };
    detail::run_row_sweep(plan, indptr, n, body);
  };

  for (std::int64_t j0 = 0; j0 < d_out; j0 += tile) {
    const std::int64_t j1 = std::min(j0 + tile, d_out);
    if (parts == nullptr || parts->parts.size() <= 1) {
      sweep(adj.indptr.data(), adj.indices.data(), adj.edge_ids.data(), j0,
            j1, /*init=*/true);
    } else {
      FG_CHECK(parts->num_rows == adj.num_rows);
      bool first = true;
      for (const auto& seg : parts->parts) {
        // Threads cooperate inside ONE partition; the partition loop itself
        // is sequential (Sec. IV-A: avoids LLC contention).
        sweep(seg.indptr.data(), seg.indices.data(), seg.edge_ids.data(), j0,
              j1, first);
        first = false;
      }
    }
  }

  // An nnz-balanced sweep with empty rows can leave boundary gaps only if
  // boundaries were non-tiling — nnz_split_point guarantees they tile, so
  // every row was initialized above. Unpartitioned launches read the CSR's
  // cached degree vector; partitioned launches read the partitioning's own
  // cached reassembly of the per-segment degree slices (seeded for free by
  // partition_by_source's pass-1 counts) — either way the vector is
  // materialized once per structure, never per call.
  const std::int64_t* row_degree =
      (parts != nullptr && parts->parts.size() > 1)
          ? parts->row_degrees().data()
          : adj.degrees().data();
  detail::spmm_postprocess<Reducer>(span, row_degree, n, out, d_out,
                                    plan.num_threads, epilogue);
}

}  // namespace featgraph::core
