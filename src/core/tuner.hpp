// Schedule tuner: one search function over candidate spaces.
//
// Paper Sec. IV-A: "we use naive grid search to find the optimal parameters
// under a given input shape", and names smarter tuners (OpenTuner, AutoTVM)
// as future work. Both searches live here, as two strategies of one tune():
//
//   * A Space<S> is a lattice of schedules: one size per axis, an origin
//     point and a decode from a point to a schedule S (CpuSpmmSchedule or
//     GpuSpmmSchedule). An explicit candidate list is the one-axis space.
//   * A MeasureFn<S> returns one schedule's cost: wall seconds of a real CPU
//     launch, or the simulated cost of a gpusim launch.
//   * tune(space, measure, search) walks the space. Search::grid() measures
//     every point in row-major order; Search::climb() runs random-restart
//     greedy descent (+-1 along each axis) under a hard trial budget. On the
//     spaces FeatGraph cares about the cost surface is close to unimodal
//     along each axis (Fig. 14), which the climb exploits — typically
//     reaching the grid winner with a third of the measurements (see
//     bench_ablation_tuner).
//
// Memoized entry points cache the grid winner per (kernel, graph, ops,
// output width, threads or smem budget): GNN training runs hundreds of
// epochs over a fixed topology, so tuning cost is amortized to noise
// (Sec. V-E excludes it for the same reason).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/attention.hpp"
#include "core/schedule.hpp"
#include "core/spmm.hpp"
#include "gpusim/device.hpp"
#include "graph/csr.hpp"

namespace featgraph::core {

/// A schedule space: the lattice [0, sizes[0]) x ... x [0, sizes[N-1]),
/// decoded point by point into schedules. `origin` is the climb's
/// deterministic first seed.
template <class S>
struct Space {
  std::vector<int> sizes;
  std::vector<int> origin;
  std::function<S(const std::vector<int>&)> decode;
};

/// The one-axis space over an explicit candidate list, in list order.
template <class S>
Space<S> list_space(std::vector<S> candidates) {
  const int n = static_cast<int>(candidates.size());
  return {{n}, {0}, [c = std::move(candidates)](const std::vector<int>& p) {
            return c[static_cast<std::size_t>(p[0])];
          }};
}

/// Cost of one candidate schedule (lower is better). `kind` names what is
/// measured in the tuner.tune trace span; it must be a string literal.
template <class S>
class MeasureFn {
 public:
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, MeasureFn> &&
                         std::is_invocable_r_v<double, F&, const S&>>>
  MeasureFn(F fn, const char* kind = "custom")
      : fn_(std::move(fn)), kind_(kind) {}

  double operator()(const S& s) const { return fn_(s); }
  const char* kind() const { return kind_; }

 private:
  std::function<double(const S&)> fn_;
  const char* kind_;
};

template <class S>
struct Trial {
  S schedule;
  double seconds = 0.0;
};

/// The winner plus every measurement in the order it was taken (benchmarks
/// use the grid's log for the Fig. 14 sensitivity grid).
template <class S>
struct TuneResult {
  S best;
  double best_seconds = 0.0;
  std::vector<Trial<S>> trials;
};

/// The climb's budget. Deterministic for a fixed seed.
struct SmartTuneOptions {
  int max_trials = 12;     // hard measurement budget
  int num_seeds = 3;       // random-restart seed points (the first = origin)
  std::uint64_t seed = 1;  // rng for the later seed points
};

struct Search {
  enum class Strategy { kGrid, kClimb };
  Strategy strategy = Strategy::kGrid;
  SmartTuneOptions budget;  // climb only

  static Search grid() { return {}; }
  static Search climb(const SmartTuneOptions& budget = {}) {
    return {Strategy::kClimb, budget};
  }
};

/// Searches `space` with `measure`. Every call adds 1 to tuner.tune.count
/// and 1 to tuner.trial.count per measurement, inside one tuner.tune span.
TuneResult<CpuSpmmSchedule> tune(const Space<CpuSpmmSchedule>& space,
                                 const MeasureFn<CpuSpmmSchedule>& measure,
                                 const Search& search);
TuneResult<GpuSpmmSchedule> tune(const Space<GpuSpmmSchedule>& space,
                                 const MeasureFn<GpuSpmmSchedule>& measure,
                                 const Search& search);

// --- candidate lists (grid search) -----------------------------------------

/// Partition counts x feature tiles x row-split policies, all at
/// `num_threads`.
std::vector<CpuSpmmSchedule> default_spmm_candidates(std::int64_t d_out,
                                                     int num_threads);

/// Schedule-IR candidates. The FIRST candidate is the empty program —
/// lowered it reproduces the untuned default schedule bit-for-bit, so the
/// grid's opening measurement is always the default launch. The rest are
/// legal IR programs (filtered through validate_spmm_ir against the active
/// backend, so the AVX2 and AVX-512 legs see different tile-width axes):
/// register-blocked feature tiles tile(W).unroll(U), row chunking chunk(C),
/// nnz-position splitting and source partitioning.
std::vector<CpuSpmmSchedule> default_spmm_ir_candidates(std::int64_t d_out,
                                                        std::int64_t num_rows,
                                                        int num_threads);

/// gpusim fused attention: the plain full-scratch kernel plus the
/// hybrid-staging grid over rows-per-tile x smem split x row assignment.
std::vector<GpuSpmmSchedule> default_gpu_attention_candidates();

// --- lattices (climb) -------------------------------------------------------

/// (num_partitions, feat_tile, load_balance); the origin is the untuned
/// default (1 partition, untiled, nnz-balanced). `d_out` bounds the tile
/// axis.
Space<CpuSpmmSchedule> spmm_lattice(std::int64_t d_out, int num_threads);

/// (partition count, register-blocked tile(W).unroll(U) combo, row chunk,
/// nnz-split policy, shard count). Every point is a legal, distinct IR
/// program for the active backend; the origin is the EMPTY program, which
/// lowers to the untuned default schedule bit-for-bit.
Space<CpuSpmmSchedule> spmm_ir_lattice(std::int64_t d_out,
                                       std::int64_t num_rows, int num_threads);

/// gpusim fused attention with hybrid staging on: rows-per-tile x smem split
/// x row assignment (the smem split only exists under staging; the plain
/// kernel is the candidate list's extra entry). The origin is the schedule
/// defaults.
Space<GpuSpmmSchedule> gpu_attention_lattice();

// --- measure functions ------------------------------------------------------
// Each holds a REFERENCE to `adj` and a copy of `operands` (a struct of
// tensor pointers): the adjacency and every tensor the operands point at
// must outlive the returned function — pass named objects, never
// temporaries.

/// Mean wall seconds of `timing_reps` SpMM launches.
MeasureFn<CpuSpmmSchedule> spmm_measure(const graph::Csr& adj,
                                        std::string_view msg_op,
                                        std::string_view reduce_op,
                                        const SpmmOperands& operands,
                                        int timing_reps = 1);

/// Mean wall seconds of `timing_reps` fused attention launches.
MeasureFn<CpuSpmmSchedule> attention_measure(const graph::Csr& adj,
                                             std::string_view msg_op,
                                             const AttentionOperands& operands,
                                             int timing_reps = 1);

/// The SIMULATED cost of one gpusim fused attention launch (deterministic,
/// so no timing reps).
MeasureFn<GpuSpmmSchedule> gpu_attention_measure(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, const gpusim::DeviceSpec& spec = {});

// --- memoized grid winners ------------------------------------------------
// One cache keyed by (kernel, adjacency uid, msg_op, reduce_op, output
// width, threads or smem budget). The output width follows the kernel's own
// dispatch — the weight's output width for mlp, the edge feature width for
// copy_e, the source feature width otherwise — so schedules tuned for one
// width are never served for another.

CpuSpmmSchedule tuned_spmm_schedule(const graph::Csr& adj,
                                    std::string_view msg_op,
                                    std::string_view reduce_op,
                                    const SpmmOperands& operands,
                                    int num_threads);

CpuSpmmSchedule tuned_attention_schedule(const graph::Csr& adj,
                                         std::string_view msg_op,
                                         const AttentionOperands& operands,
                                         int num_threads);

/// Keyed on the block's smem budget too: the smem-split search is
/// structurally sensitive to it, so a schedule tuned for a 96 KB block must
/// not be served to a 48 KB one.
GpuSpmmSchedule tuned_gpu_attention_schedule(const graph::Csr& adj,
                                             std::string_view msg_op,
                                             const AttentionOperands& operands,
                                             const gpusim::DeviceSpec& spec = {});

/// A sensible untuned default: partitions sized so one partition's source
/// features fit in roughly half of a 25 MB LLC, feature tile 64.
CpuSpmmSchedule heuristic_spmm_schedule(const graph::Csr& adj,
                                        std::int64_t d_feat, int num_threads);

}  // namespace featgraph::core
