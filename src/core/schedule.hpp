// Schedules: the knobs of FeatGraph's two-level optimization space.
//
// The paper splits a kernel's schedule into (a) template parameters owned by
// the sparse template (number of graph partitions, CUDA block counts,
// hybrid-partitioning threshold) and (b) the user-provided feature dimension
// schedule, FDS (feature tiling factors, parallelization/binding of the
// feature axis, tree reduction). This header holds both halves; the tuner
// (core/tuner.hpp) searches their product space by grid search, exactly as
// Sec. IV-A describes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace featgraph::core {

class ScheduleIr;  // core/schedule_ir.hpp — composable loop-nest programs

enum class Target { kCpu, kGpuSim };

/// How destination rows are split across the threads cooperating inside one
/// partition.
enum class LoadBalance : int {
  /// Equal ROW counts per thread: cheapest split, but power-law graphs leave
  /// every thread idle behind the one that drew the hub rows.
  kStaticRows = 0,
  /// Equal NNZ per thread: boundaries found by binary search over the indptr
  /// prefix sums (parallel/parallel_for.hpp), so per-thread edge work is
  /// even regardless of the degree distribution.
  kNnzBalanced = 1,
};

/// The load-balance values worth searching at a given thread count — the
/// single source of truth every tuner space draws its axis from. At one
/// thread the two policies run the identical sweep, so only the default is
/// listed; element 0 always matches CpuSpmmSchedule's default (the
/// spmm_lattice origin relies on that).
inline std::vector<LoadBalance> load_balance_axis(int num_threads) {
  if (num_threads <= 1) return {LoadBalance::kNnzBalanced};
  return {LoadBalance::kNnzBalanced, LoadBalance::kStaticRows};
}

/// CPU generalized-SpMM schedule.
struct CpuSpmmSchedule {
  /// Template half: number of 1D source partitions (1 = no partitioning).
  int num_partitions = 1;
  /// FDS half: feature tile width in elements (0 = whole feature vector).
  std::int64_t feat_tile = 0;
  /// Worker threads; threads cooperate on one partition at a time
  /// (Sec. IV-A) so the LLC holds a single partition's working set.
  int num_threads = 1;
  /// Template half: row-split policy inside a partition. Results are
  /// identical under either policy (per-row work is untouched); the tuner
  /// searches both because the winner depends on degree skew.
  LoadBalance load_balance = LoadBalance::kNnzBalanced;

  /// Optional composable loop-nest program (core/schedule_ir.hpp). When set
  /// and non-empty it is AUTHORITATIVE for every loop-nest decision —
  /// partitions, tiling, chunking, register blocking, row split — except
  /// num_threads, which stays a flat knob. When null the flat knobs above
  /// are the schedule: they lower to the same plan their default program
  /// does, and the kernel's one loop nest runs either.
  std::shared_ptr<const ScheduleIr> ir;

  static CpuSpmmSchedule single_thread_default() { return {}; }
};

/// CPU generalized-SDDMM schedule.
struct CpuSddmmSchedule {
  /// FDS half: tile width of the per-edge reduction axis (0 = untiled).
  std::int64_t reduce_tile = 0;
  /// Template half: visit edges in Hilbert-curve order (Sec. III-C-1).
  bool hilbert_order = false;
  int num_threads = 1;
  /// Optional loop-nest program; SDDMM accepts tile (reduce axis) and chunk
  /// (edge positions) transforms. Null = flat knobs.
  std::shared_ptr<const ScheduleIr> ir;
};

/// GPU (simulated) generalized-SpMM schedule.
struct GpuSpmmSchedule {
  /// Template half: CUDA blocks in the grid; rows are cyclically assigned.
  int num_blocks = 4096;
  /// FDS half: threads per block, bound to the feature axis (Fig. 7a).
  int threads_per_block = 256;
  /// Template half: hybrid degree-based partitioning (Sec. III-C-3).
  bool hybrid_partition = false;
  /// Quantile of the source-degree distribution above which sources are
  /// staged in shared memory when hybrid_partition is on.
  double hybrid_quantile = 0.8;
  /// Rows per shared-memory staging tile: the hybrid kernel grid-strides
  /// over row tiles of this size, staging the high-degree sources each tile
  /// touches. Larger tiles see more reuse per staged row but need more
  /// shared memory (the paper's read-efficiency vs merge-cost trade-off).
  int hybrid_rows_per_tile = 32;
  /// How destination rows are assigned to staging tiles/blocks: kStaticRows
  /// cuts uniform hybrid_rows_per_tile chunks; kNnzBalanced reuses the CPU
  /// kernels' nnz_split_point so every tile owns ~equal edge work (same tile
  /// COUNT, boundaries moved — power-law graphs otherwise leave most blocks
  /// idle behind the one holding the hub rows).
  LoadBalance row_assignment = LoadBalance::kNnzBalanced;
  /// Fused-attention FDS (gpusim/attention_gpu.hpp): fraction of the
  /// per-block shared-memory budget reserved for the segment-softmax
  /// scratch; the remainder stages high-degree source rows when
  /// hybrid_partition is on. A destination row whose in-degree overflows
  /// the scratch spills its logits to global memory (two stores — the
  /// logit write and the exp rewrite — plus three read passes per spilled
  /// logit), so the knob trades softmax spills against source-staging
  /// reuse — both tuner searches cover it.
  double attention_softmax_smem_frac = 0.5;
};

/// GPU (simulated) generalized-SDDMM schedule.
struct GpuSddmmSchedule {
  int num_blocks = 4096;
  int threads_per_block = 256;
  /// FDS half: tree reduction across threads for per-edge dots (Fig. 7b);
  /// false degenerates to Gunrock's one-thread-per-edge strategy.
  bool tree_reduce = true;
};

}  // namespace featgraph::core
