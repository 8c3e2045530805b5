// Generalized SpMM kernel templates (paper Sec. III-B, Fig. 3).
//
// out[v, :] = REDUCE over in-edges (u -e-> v) of MSG(u, e, v)
//
// The coarse-grained template owns graph traversal through ONE loop nest:
//
//   [tile group] > partitions > row sweep > row chunks > tiles > rows > edges
//
// 1D source partitions are processed one at a time with all threads
// cooperating inside the partition (Sec. IV-A); destination rows split
// across threads (race-free: each thread owns its rows; the schedule's
// load_balance knob picks row-count or nnz-balanced boundaries). The lowered
// plan derives where the feature tiles sit: outermost (a tile group is one
// tile, Fig. 6b) unless the program chunks rows or register-blocks, in which
// case the group is the whole row and the tiles nest inside each thread's
// row chunks. The fine-grained UDF folds one edge's whole message span into
// the output row per call (the bulk-span protocol of udf.hpp), so the
// innermost feature loop is a dense contiguous sweep on the vector units —
// messages are never materialized, and the fusion of message computation
// with the reducer combine is FeatGraph's key advantage over deep-learning-
// framework backends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "core/epilogue.hpp"
#include "core/partition_cache.hpp"
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
/// without the protocol run unroll programs edge-at-a-time — legal,
/// identical results, no register-blocking win.
template <class T, class = void>
struct HasRowBlock : std::false_type {};
template <class T>
struct HasRowBlock<T, std::void_t<decltype(T::kSupportsRowBlock)>>
    : std::bool_constant<T::kSupportsRowBlock> {};

/// Aggregates rows [row_begin, row_end) x features [j0, j1) over one edge
/// segment. `init` resets the tile to the reducer identity first (done on
/// the first partition of each feature tile). `unroll` > 0 folds each row's
/// whole edge group through the UDF's register-blocked apply_rows with that
/// many vectors live; UDFs without the protocol, and unroll == 0, fold
/// edge-at-a-time — the same per-element chain in the same edge order.
template <class MsgFn, class Reducer>
void spmm_rows(const simd::SpanOps& ops, const std::int64_t* indptr,
               const graph::vid_t* indices, const graph::eid_t* edge_ids,
               std::int64_t row_begin, std::int64_t row_end, const MsgFn& msg,
               float* out, std::int64_t d_out, std::int64_t j0,
               std::int64_t j1, bool init, int unroll) {
  for (std::int64_t v = row_begin; v < row_end; ++v) {
    float* out_row = out + v * d_out;
    if (init) ops.fill(out_row + j0, Reducer::identity(), j1 - j0);
    const std::int64_t lo = indptr[v];
    const std::int64_t hi = indptr[v + 1];
    if constexpr (HasRowBlock<MsgFn>::value) {
      if (unroll > 0) {
        msg.template apply_rows<Reducer>(ops, indices + lo, hi - lo, out_row,
                                         j0, j1, unroll);
        continue;
      }
    }
    for (std::int64_t i = lo; i < hi; ++i) {
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

}  // namespace detail

/// Generalized SpMM over a destination-major CSR. The schedule (flat knobs
/// or an attached Schedule-IR program) lowers once per launch; its partition
/// count fetches the cached 1D source partitioning of `adj`, and its feature
/// tile, row chunk, register blocking, thread count, load-balance policy and
/// sharding all drive the one loop nest below.
template <class MsgFn, class Reducer>
void generalized_spmm(const graph::Csr& adj, const MsgFn& msg, float* out,
                      std::int64_t d_out, const CpuSpmmSchedule& sched,
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
  const graph::SrcPartitionedCsr* parts =
      cached_partition(adj, plan.num_partitions);
  const bool partitioned = parts != nullptr && parts->parts.size() > 1;
  const std::int64_t tile = plan.tile_for(d_out);
  const std::int64_t group = plan.tiles_outermost() ? tile : d_out;
  const std::int64_t chunk = plan.row_chunk;
  const int unroll = plan.register_block ? plan.unroll : 0;

  // Dispatch hoisted out of the inner loops: resolve the span-primitive
  // table ONCE per kernel launch and thread the reference through the
  // bulk-UDF protocol — per-span calls are a direct table load instead of a
  // relaxed atomic load + re-dispatch. Tests that pin an ISA mid-run
  // (ScopedIsa) still see a consistent backend for the whole launch. The
  // width-aware form additionally resolves narrow launches (every span a
  // 512-bit tail) straight to the AVX2 table — same code the intra-table
  // fallback would pick, minus its per-span branch.
  const simd::SpanOps& span = simd::span_ops_for_width(tile);

  // One edge segment over feature group [g0, g1), all threads cooperating;
  // the load_balance knob picks whether thread boundaries equalize rows or
  // nnz. Note nnz balance is computed per segment — a partition's skew, not
  // the whole graph's, decides its boundaries.
  const auto sweep = [&](const std::int64_t* indptr,
                         const graph::vid_t* indices,
                         const graph::eid_t* edge_ids, std::int64_t g0,
                         std::int64_t g1, bool init) {
    detail::run_row_sweep(plan, indptr, n, [&](std::int64_t r0,
                                               std::int64_t r1) {
      const std::int64_t step =
          std::max<std::int64_t>(chunk > 0 ? chunk : r1 - r0, 1);
      for (std::int64_t c0 = r0; c0 < r1; c0 += step) {
        const std::int64_t c1 = std::min(c0 + step, r1);
        for (std::int64_t j0 = g0; j0 < g1; j0 += tile) {
          detail::spmm_rows<MsgFn, Reducer>(span, indptr, indices, edge_ids,
                                            c0, c1, msg, out, d_out, j0,
                                            std::min(j0 + tile, g1), init,
                                            unroll);
        }
      }
    });
  };

  for (std::int64_t g0 = 0; g0 < d_out; g0 += group) {
    const std::int64_t g1 = std::min(g0 + group, d_out);
    if (!partitioned) {
      sweep(adj.indptr.data(), adj.indices.data(), adj.edge_ids.data(), g0,
            g1, /*init=*/true);
      continue;
    }
    FG_CHECK(parts->num_rows == adj.num_rows);
    bool first = true;
    for (const auto& seg : parts->parts) {
      // Threads cooperate inside ONE partition; the partition loop itself
      // is sequential (Sec. IV-A: avoids LLC contention).
      sweep(seg.indptr.data(), seg.indices.data(), seg.edge_ids.data(), g0,
            g1, first);
      first = false;
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
      partitioned ? parts->row_degrees().data() : adj.degrees().data();
  detail::spmm_postprocess<Reducer>(span, row_degree, n, out, d_out,
                                    plan.num_threads, epilogue);
}

}  // namespace featgraph::core
