// Composable loop-nest Schedule-IR — the paper's two-level (template x FDS)
// schedule space at full strength, replacing the handful of flat knobs on
// CpuSpmmSchedule/CpuSddmmSchedule with an ordered list of transforms over
// the (dst-row, nnz-pos, feature) loop nest, in the spirit of TACO's
// scheduleSpMMCPU (split / pos / reorder / parallelize with CHUNK_SIZE and
// UNROLL_FACTOR — the SNIPPETS.md exemplar).
//
// The IR is DECLARATIVE and cheap: a ScheduleIr is a short transform list a
// tuner composes; kernels never walk it per edge. At launch the list (or the
// flat knobs, when no program is attached) is LOWERED once into a
// LoweredSpmmPlan / LoweredSddmmPlan — a plain struct of hoisted decisions,
// exactly like the SpanOps table dispatch — and the kernel template's one
// loop nest (spmm_kernels.hpp) runs the plan with branch-free inner loops.
//
// Transforms (SpMM / fused attention):
//   chunk(C)                 — process destination rows in chunks of C per
//                              thread range (LLC/L2 reuse of source rows
//                              across feature tiles).
//   tile(W)                  — feature tiles of width W. W must be a
//                              multiple of the executing ISA's vector width
//                              (AVX2: 8; AVX-512: 16, or 8 below the
//                              narrow-span reroute threshold), so the AVX2
//                              and AVX-512 tuner legs pick different
//                              winners. tile(W) alone is plain feature
//                              tiling — the same plan the flat feat_tile
//                              knob lowers to.
//   unroll(U)                — register-block the tiled feature loop: the
//                              output tile stays in vector registers across
//                              a row's whole edge group (one load + one
//                              store per tile instead of per edge), with U
//                              vectors kept live. Requires tile().
//   split_nnz(balance)       — nnz-position splitting of the row sweep
//                              across threads (subsumes the flat
//                              load_balance knob).
//   partition(P)             — 1D source partitioning (the template half).
//   shard(S)                 — shard-parallel row sweep: destination rows
//                              split into S nnz-balanced shards drained with
//                              cross-shard work stealing (parallel/
//                              shard_exec.hpp) instead of one static range
//                              per lane. S clamps to the row count at
//                              execution, so one shard program serves every
//                              block shape a schedule cache replays it on.
//   steal_grain(G)           — shards claimed G at a time by the stealing
//                              cursors (locality vs balance). Requires
//                              shard().
//
// Loop order is derived, never set: the plan runs feature tiles outermost
// (Fig. 6b — one tile of source rows stays cached across the traversal)
// unless the program asks for chunk() or unroll(), whose per-thread row
// blocking only pays with the tiles nested inside each row chunk
// (LoweredSpmmPlan::tiles_outermost).
//
// Legality is checked by validate_spmm_ir / validate_sddmm_ir, which return
// a human-readable error string ("" = legal) so tuners can filter candidate
// programs and tests can assert on the message; lowering FG_CHECKs the same
// validation (API misuse aborts, as everywhere else in the repo).
//
// Bit-identity contract: every legal SpMM program produces output
// bit-for-bit identical to its flat-knob spelling on every backend, and
// every program WITHOUT a partition transform is additionally bit-identical
// to the default schedule. chunk/tile/unroll/split_nnz and the derived tile
// order never change the per-(row, element) edge accumulation order, and
// the register-blocked unroll path folds the SAME sequential per-element
// combine chain in the SAME edge order — unroll groups vectors across the
// feature axis, never across edges, and no FMA contraction is introduced
// (simd.hpp's accum_rows/waxpy_rows contract). partition(P) regroups each
// destination row's in-edges by source bucket — the same intentional fold
// reorder the flat num_partitions knob has always performed (Sec. IV-A) —
// so a partitioned program matches flat {num_partitions = P, ...}
// bit-for-bit, not the unpartitioned default.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/simd.hpp"

namespace featgraph::core {

enum class IrTransformKind : int {
  kChunkRows = 0,
  kTileFeat = 1,
  kUnroll = 2,
  kSplitNnz = 3,
  kPartition = 4,
  kShardRows = 5,
  kStealGrain = 6,
};

/// Number of transform kinds (validators size their duplicate bitmaps off
/// this so a new kind cannot silently index past them).
inline constexpr int kNumIrTransformKinds = 7;

const char* ir_transform_name(IrTransformKind kind);

struct IrTransform {
  IrTransformKind kind;
  /// chunk size / tile width / unroll factor / partition count / shard
  /// count / steal grain, depending on kind.
  std::int64_t factor = 0;
  /// kSplitNnz only: the row-split policy.
  LoadBalance balance = LoadBalance::kNnzBalanced;
};

/// An ordered list of composable loop-nest transforms. Chainable builder:
///   ScheduleIr().chunk(256).tile(32).unroll(4)
/// Order is kept for describe()/hashing but does not change semantics; each
/// transform kind may appear at most once — duplicates are a legality
/// error, not last-wins.
class ScheduleIr {
 public:
  ScheduleIr& chunk(std::int64_t rows) {
    transforms_.push_back({IrTransformKind::kChunkRows, rows});
    return *this;
  }
  ScheduleIr& tile(std::int64_t width) {
    transforms_.push_back({IrTransformKind::kTileFeat, width});
    return *this;
  }
  ScheduleIr& unroll(std::int64_t factor) {
    transforms_.push_back({IrTransformKind::kUnroll, factor});
    return *this;
  }
  ScheduleIr& split_nnz(LoadBalance balance) {
    transforms_.push_back({IrTransformKind::kSplitNnz, 0, balance});
    return *this;
  }
  ScheduleIr& partition(int parts) {
    transforms_.push_back({IrTransformKind::kPartition, parts});
    return *this;
  }
  ScheduleIr& shard(int num_shards) {
    transforms_.push_back({IrTransformKind::kShardRows, num_shards});
    return *this;
  }
  ScheduleIr& steal_grain(std::int64_t grain) {
    transforms_.push_back({IrTransformKind::kStealGrain, grain});
    return *this;
  }

  const std::vector<IrTransform>& transforms() const { return transforms_; }
  bool empty() const { return transforms_.empty(); }

  /// Compact human-readable program text, e.g.
  /// "chunk(256).tile(32).unroll(4).split_nnz(nnz)".
  std::string describe() const;

 private:
  std::vector<IrTransform> transforms_;
};

/// The vector width (float lanes) of the span-primitive table `isa`
/// resolves to after one-step degradation: 1 / 8 / 16.
int isa_vector_width(simd::Isa isa);

/// Legality check for an SpMM / fused-attention program against a concrete
/// launch shape and backend. Returns "" when legal, else a clear error
/// (duplicate transforms, unaligned tile, chunk > rows, unroll without tile,
/// steal_grain without shard, ...).
std::string validate_spmm_ir(const ScheduleIr& ir, std::int64_t num_rows,
                             std::int64_t d_out, simd::Isa isa);

/// Legality check for an SDDMM program: tile (reduce-axis tiling) and chunk
/// (edge-position chunking) only; everything else has no SDDMM loop to act
/// on and is rejected.
std::string validate_sddmm_ir(const ScheduleIr& ir, std::int64_t num_edges,
                              std::int64_t reduce_len, simd::Isa isa);

/// One launch's hoisted SpMM decisions — what the kernel template's loop
/// nest actually runs (inner loops stay branch-free; the only per-tile reads
/// are plain struct fields).
struct LoweredSpmmPlan {
  std::int64_t feat_tile = 0;  // 0 = whole feature vector
  std::int64_t row_chunk = 0;  // 0 = no chunking
  int unroll = 1;
  bool register_block = false;  // unroll() present: use the row-block path
  LoadBalance load_balance = LoadBalance::kNnzBalanced;
  int num_partitions = 1;
  int num_threads = 1;
  /// shard(S): 0 = unsharded row sweep. Clamped to the row count at
  /// execution (effective_shards), so a shard program is shape-portable.
  int num_shards = 0;
  /// steal_grain(G): shards per stealing claim (only read when sharded).
  std::int64_t steal_grain = 1;

  /// Shards the row sweep over `rows` actually runs: > 1 engages the
  /// work-stealing shard executor, else the static parallel_for split.
  int effective_shards(std::int64_t rows) const {
    if (num_shards <= 1) return num_shards > 0 ? 1 : 0;
    return static_cast<int>(
        std::min<std::int64_t>(num_shards, std::max<std::int64_t>(rows, 1)));
  }

  /// The derived loop order: true runs feature tiles outermost (one whole
  /// traversal per tile, Fig. 6b); false nests the tiles inside each
  /// thread's row chunks, where chunk() and register blocking get their
  /// reuse. Either order folds every (row, element) through the same edge
  /// chain, so the choice moves time, never bytes.
  bool tiles_outermost() const { return row_chunk == 0 && !register_block; }

  /// Effective feature tile width, clamped to [1, d_out].
  std::int64_t tile_for(std::int64_t d_out) const {
    const std::int64_t t = feat_tile <= 0 || feat_tile > d_out ? d_out
                                                               : feat_tile;
    return t > 0 ? t : 1;
  }
};

/// One launch's hoisted SDDMM decisions.
struct LoweredSddmmPlan {
  std::int64_t reduce_tile = 0;  // 0 = untiled
  std::int64_t edge_chunk = 0;   // 0 = no chunking
};

/// Lowers `sched` for a concrete launch. With no IR attached the flat knobs
/// pass through verbatim (feature tiles outermost). With an IR program
/// attached the program is authoritative for every loop-nest decision
/// except num_threads; illegal programs abort via FG_CHECK with the
/// validate_spmm_ir message.
LoweredSpmmPlan lower_spmm_schedule(const CpuSpmmSchedule& sched,
                                    std::int64_t num_rows, std::int64_t d_out,
                                    simd::Isa isa);

/// SDDMM analog of lower_spmm_schedule.
LoweredSddmmPlan lower_sddmm_schedule(const CpuSddmmSchedule& sched,
                                      std::int64_t num_edges,
                                      std::int64_t reduce_len, simd::Isa isa);

/// The flat knobs expressed as an IR program (the "thin view" direction):
/// partition/tile/split_nnz transforms mirroring the struct fields, with
/// defaults omitted — an all-default schedule maps to the EMPTY program, so
/// flat and IR spellings of the same schedule hash identically.
ScheduleIr default_spmm_program(const CpuSpmmSchedule& sched);

/// FNV-1a hash of the schedule's program (the attached IR, or the flat
/// knobs' default program). num_threads is excluded — cache keys that use
/// this hash (sample::BlockScheduleCache) already key on the thread count.
std::uint64_t schedule_program_hash(const CpuSpmmSchedule& sched);

/// Program hash extended with a fused-epilogue signature (EpilogueOps::
/// signature(), 0 = no epilogue). Fused and unfused launches of the same
/// loop nest are DIFFERENT programs — callers keying BlockScheduleCache on
/// this hash never alias the two.
std::uint64_t schedule_program_hash(const CpuSpmmSchedule& sched,
                                    std::uint64_t epilogue_sig);

}  // namespace featgraph::core
