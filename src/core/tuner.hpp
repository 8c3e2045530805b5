// Grid-search schedule tuner (paper Sec. IV-A: "we use naive grid search to
// find the optimal parameters under a given input shape").
//
// The design space is the product of template parameters (number of graph
// partitions) and FDS parameters (feature tile width). Results are cached
// per (graph, kernel, feature length, threads): GNN training runs hundreds
// of epochs over a fixed topology, so tuning cost is amortized to noise
// (Sec. V-E excludes it for the same reason).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/attention.hpp"
#include "core/schedule.hpp"
#include "core/spmm.hpp"
#include "gpusim/device.hpp"
#include "graph/csr.hpp"

namespace featgraph::core {

struct SpmmTrial {
  CpuSpmmSchedule schedule;
  double seconds = 0.0;
};

struct SpmmTuneResult {
  CpuSpmmSchedule best;
  double best_seconds = 0.0;
  std::vector<SpmmTrial> trials;
};

/// Candidate grid: partition counts x feature tiles, all at `num_threads`.
std::vector<CpuSpmmSchedule> default_spmm_candidates(std::int64_t d_out,
                                                     int num_threads);

/// Schedule-IR candidate grid. The FIRST candidate is the empty program —
/// lowered it reproduces the untuned default schedule bit-for-bit, so the
/// tuner's opening measurement is always the default launch. The rest are
/// legal IR programs (filtered through validate_spmm_ir against the active
/// backend, so the AVX2 and AVX-512 legs see different tile-width axes):
/// register-blocked feature tiles tile(W).unroll(U), row chunking chunk(C),
/// nnz-position splitting and source partitioning.
std::vector<CpuSpmmSchedule> default_spmm_ir_candidates(std::int64_t d_out,
                                                        std::int64_t num_rows,
                                                        int num_threads);

/// Times every candidate on the real kernel and returns the winner plus the
/// full trial log (benchmarks use the log for the Fig. 14 sensitivity grid).
SpmmTuneResult tune_spmm(const graph::Csr& adj, std::string_view msg_op,
                         std::string_view reduce_op,
                         const SpmmOperands& operands,
                         std::vector<CpuSpmmSchedule> candidates,
                         int timing_reps = 1);

/// Cached best schedule for (adj, msg_op, reduce_op, d_out, threads);
/// tunes with the default grid on first call.
CpuSpmmSchedule tuned_spmm_schedule(const graph::Csr& adj,
                                    std::string_view msg_op,
                                    std::string_view reduce_op,
                                    const SpmmOperands& operands,
                                    int num_threads);

/// A sensible untuned default: partitions sized so one partition's source
/// features fit in roughly half of a 25 MB LLC, feature tile 64.
CpuSpmmSchedule heuristic_spmm_schedule(const graph::Csr& adj,
                                        std::int64_t d_feat, int num_threads);

// --- fused attention axis ---------------------------------------------------
// The fused attention kernel (core/attention.hpp) honors the same
// CpuSpmmSchedule, so it tunes over the same candidate grid; the smart tuner
// (core/smart_tuner.hpp) covers it too through its MeasureFn — wrap an
// attention launch in the callback, as attention_measure_fn does.

/// Times every candidate on the fused attention kernel and returns the
/// winner plus the full trial log (same shape as tune_spmm).
SpmmTuneResult tune_attention(const graph::Csr& adj, std::string_view msg_op,
                              const AttentionOperands& operands,
                              std::vector<CpuSpmmSchedule> candidates,
                              int timing_reps = 1);

/// Cached best attention schedule for (adj, msg_op, d_out, threads); tunes
/// with the default SpMM grid on first call. Shares the SpMM tune cache
/// under an "attn:"-prefixed kernel key.
CpuSpmmSchedule tuned_attention_schedule(const graph::Csr& adj,
                                         std::string_view msg_op,
                                         const AttentionOperands& operands,
                                         int num_threads);

/// Adapter for the smart tuner: a MeasureFn-compatible callback timing one
/// fused attention launch per candidate schedule. The callback holds a
/// REFERENCE to `adj` and a copy of `operands` (a struct of tensor
/// pointers): both the adjacency and every tensor the operands point at
/// must outlive the returned function — pass named objects, never
/// temporaries.
std::function<double(const CpuSpmmSchedule&)> attention_measure_fn(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, int timing_reps = 1);

// --- gpusim fused-attention axis --------------------------------------------
// The fused GPU attention kernel (gpusim/attention_gpu.hpp) has its own
// schedule half inside GpuSpmmSchedule: the staging-tile size, the tile row
// assignment, hybrid source staging, and the shared-memory split between
// softmax scratch and staged sources. Its objective is the SIMULATED cost
// (deterministic — no timing reps), searched by the same two tuners as the
// CPU axes: grid search below, hill climbing via
// smart_tune_gpu_attention + gpu_attention_measure_fn.

struct GpuAttentionTrial {
  GpuSpmmSchedule schedule;
  double seconds = 0.0;  // simulated cost, not wall-clock
};

struct GpuAttentionTuneResult {
  GpuSpmmSchedule best;
  double best_seconds = 0.0;
  std::vector<GpuAttentionTrial> trials;
};

/// Candidate grid: the plain full-scratch kernel plus the hybrid-staging
/// grid over rows-per-tile x smem split x row assignment.
std::vector<GpuSpmmSchedule> default_gpu_attention_candidates();

/// Evaluates every candidate's simulated cost on the fused gpusim kernel
/// and returns the winner plus the full trial log.
GpuAttentionTuneResult tune_attention_gpu(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands,
    std::vector<GpuSpmmSchedule> candidates,
    const gpusim::DeviceSpec& spec = {});

/// Cached best gpusim attention schedule for (adj, msg_op, d_out); tunes
/// with the default candidate grid on first call.
GpuSpmmSchedule tuned_gpu_attention_schedule(const graph::Csr& adj,
                                             std::string_view msg_op,
                                             const AttentionOperands& operands,
                                             const gpusim::DeviceSpec& spec = {});

/// Adapter for the smart tuner's GPU lattice: a GpuMeasureFn-compatible
/// callback returning one candidate's simulated fused-attention cost. Same
/// lifetime rules as attention_measure_fn.
std::function<double(const GpuSpmmSchedule&)> gpu_attention_measure_fn(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, const gpusim::DeviceSpec& spec = {});

}  // namespace featgraph::core
