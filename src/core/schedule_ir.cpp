#include "core/schedule_ir.hpp"

#include <cstdio>

#include "support/check.hpp"

namespace featgraph::core {

namespace {

std::string format(const char* fmt, long long a, long long b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// The tile alignment an ISA's executing table demands. AVX-512 spans
/// narrower than 16 reroute to the 8-wide AVX2 twin (simd.hpp's narrow-span
/// rule), so an avx512 program may pick W == 8 — it genuinely executes
/// 8-wide — but a W >= 16 tile must fill whole 512-bit vectors.
std::int64_t required_multiple(simd::Isa isa, std::int64_t width) {
  switch (simd::effective_isa(isa)) {
    case simd::Isa::kScalar:
      return 1;
    case simd::Isa::kAvx2:
      return 8;
    case simd::Isa::kAvx512:
      return width < 16 ? 8 : 16;
  }
  return 1;
}

std::string check_tile_width(std::int64_t w, std::int64_t d_out,
                             simd::Isa isa) {
  if (w < 1)
    return format("tile width must be >= 1, got %lld",
                  static_cast<long long>(w));
  if (w > d_out)
    return format("tile width %lld exceeds feature width %lld",
                  static_cast<long long>(w), static_cast<long long>(d_out));
  const std::int64_t mult = required_multiple(isa, w);
  if (w % mult != 0)
    return format("tile width %lld is not a multiple of the %lld-lane vector "
                  "width of the executing backend",
                  static_cast<long long>(w), static_cast<long long>(mult));
  return "";
}

}  // namespace

const char* ir_transform_name(IrTransformKind kind) {
  switch (kind) {
    case IrTransformKind::kChunkRows:
      return "chunk";
    case IrTransformKind::kTileFeat:
      return "tile";
    case IrTransformKind::kUnroll:
      return "unroll";
    case IrTransformKind::kSplitNnz:
      return "split_nnz";
    case IrTransformKind::kPartition:
      return "partition";
    case IrTransformKind::kShardRows:
      return "shard";
    case IrTransformKind::kStealGrain:
      return "steal_grain";
  }
  return "unknown";
}

std::string ScheduleIr::describe() const {
  std::string s;
  for (const IrTransform& t : transforms_) {
    if (!s.empty()) s += '.';
    s += ir_transform_name(t.kind);
    char buf[64];
    if (t.kind == IrTransformKind::kSplitNnz) {
      std::snprintf(buf, sizeof(buf), "(%s)",
                    t.balance == LoadBalance::kNnzBalanced ? "nnz" : "rows");
    } else {
      std::snprintf(buf, sizeof(buf), "(%lld)",
                    static_cast<long long>(t.factor));
    }
    s += buf;
  }
  return s;
}

int isa_vector_width(simd::Isa isa) {
  switch (simd::effective_isa(isa)) {
    case simd::Isa::kScalar:
      return 1;
    case simd::Isa::kAvx2:
      return 8;
    case simd::Isa::kAvx512:
      return 16;
  }
  return 1;
}

std::string validate_spmm_ir(const ScheduleIr& ir, std::int64_t num_rows,
                             std::int64_t d_out, simd::Isa isa) {
  bool seen[kNumIrTransformKinds] = {};
  bool has_tile = false;
  bool has_shard = false;
  for (const IrTransform& t : ir.transforms()) {
    const int k = static_cast<int>(t.kind);
    if (seen[k])
      return std::string("duplicate transform: ") + ir_transform_name(t.kind);
    seen[k] = true;
    switch (t.kind) {
      case IrTransformKind::kChunkRows:
        if (t.factor < 1)
          return format("chunk factor must be >= 1, got %lld",
                        static_cast<long long>(t.factor));
        if (t.factor > num_rows)
          return format("chunk factor %lld exceeds row count %lld",
                        static_cast<long long>(t.factor),
                        static_cast<long long>(num_rows));
        break;
      case IrTransformKind::kTileFeat: {
        const std::string err = check_tile_width(t.factor, d_out, isa);
        if (!err.empty()) return err;
        has_tile = true;
        break;
      }
      case IrTransformKind::kUnroll:
        if (t.factor < 1 || t.factor > 8)
          return format("unroll factor must be in [1, 8], got %lld",
                        static_cast<long long>(t.factor));
        break;
      case IrTransformKind::kSplitNnz:
        break;
      case IrTransformKind::kPartition:
        if (t.factor < 1)
          return format("partition count must be >= 1, got %lld",
                        static_cast<long long>(t.factor));
        break;
      case IrTransformKind::kShardRows:
        // A shard factor above the row count is legal — execution clamps it
        // (effective_shards) so one program serves every block shape a
        // schedule cache replays it on; chunk() rejects that instead because
        // its factor is a per-thread blocking size, not a decomposition.
        if (t.factor < 1)
          return format("shard count must be >= 1, got %lld",
                        static_cast<long long>(t.factor));
        has_shard = true;
        break;
      case IrTransformKind::kStealGrain:
        if (t.factor < 1)
          return format("steal_grain must be >= 1, got %lld",
                        static_cast<long long>(t.factor));
        break;
    }
  }
  if (seen[static_cast<int>(IrTransformKind::kUnroll)] && !has_tile)
    return "unroll requires a feature tile (add tile(W) first)";
  if (seen[static_cast<int>(IrTransformKind::kStealGrain)] && !has_shard)
    return "steal_grain requires a shard transform (add shard(S) first)";
  return "";
}

std::string validate_sddmm_ir(const ScheduleIr& ir, std::int64_t num_edges,
                              std::int64_t reduce_len, simd::Isa isa) {
  (void)isa;
  bool seen[kNumIrTransformKinds] = {};
  for (const IrTransform& t : ir.transforms()) {
    const int k = static_cast<int>(t.kind);
    if (seen[k])
      return std::string("duplicate transform: ") + ir_transform_name(t.kind);
    seen[k] = true;
    switch (t.kind) {
      case IrTransformKind::kChunkRows:
        if (t.factor < 1)
          return format("chunk factor must be >= 1, got %lld",
                        static_cast<long long>(t.factor));
        if (t.factor > num_edges)
          return format("chunk factor %lld exceeds edge count %lld",
                        static_cast<long long>(t.factor),
                        static_cast<long long>(num_edges));
        break;
      case IrTransformKind::kTileFeat:
        // Reduce-axis tiling: the partials reassociate exactly like the
        // flat reduce_tile knob, so any width in range is legal (the dot
        // primitive is tolerance-class, not bit-compared).
        if (t.factor < 1)
          return format("tile width must be >= 1, got %lld",
                        static_cast<long long>(t.factor));
        if (t.factor > reduce_len)
          return format("tile width %lld exceeds reduce length %lld",
                        static_cast<long long>(t.factor),
                        static_cast<long long>(reduce_len));
        break;
      default:
        return std::string(ir_transform_name(t.kind)) +
               " is not a legal SDDMM transform (SDDMM programs may only "
               "tile the reduce axis or chunk edge positions)";
    }
  }
  return "";
}

LoweredSpmmPlan lower_spmm_schedule(const CpuSpmmSchedule& sched,
                                    std::int64_t num_rows, std::int64_t d_out,
                                    simd::Isa isa) {
  LoweredSpmmPlan plan;
  plan.num_threads = sched.num_threads;
  if (sched.ir == nullptr || sched.ir->empty()) {
    plan.feat_tile = sched.feat_tile;
    plan.load_balance = sched.load_balance;
    plan.num_partitions = sched.num_partitions;
    return plan;
  }
  const std::string err = validate_spmm_ir(*sched.ir, num_rows, d_out, isa);
  FG_CHECK_MSG(err.empty(), err.c_str());
  for (const IrTransform& t : sched.ir->transforms()) {
    switch (t.kind) {
      case IrTransformKind::kChunkRows:
        plan.row_chunk = t.factor;
        break;
      case IrTransformKind::kTileFeat:
        plan.feat_tile = t.factor;
        break;
      case IrTransformKind::kUnroll:
        plan.unroll = static_cast<int>(t.factor);
        plan.register_block = true;
        break;
      case IrTransformKind::kSplitNnz:
        plan.load_balance = t.balance;
        break;
      case IrTransformKind::kPartition:
        plan.num_partitions = static_cast<int>(t.factor);
        break;
      case IrTransformKind::kShardRows:
        plan.num_shards = static_cast<int>(t.factor);
        break;
      case IrTransformKind::kStealGrain:
        plan.steal_grain = t.factor;
        break;
    }
  }
  return plan;
}

LoweredSddmmPlan lower_sddmm_schedule(const CpuSddmmSchedule& sched,
                                      std::int64_t num_edges,
                                      std::int64_t reduce_len,
                                      simd::Isa isa) {
  LoweredSddmmPlan plan;
  if (sched.ir == nullptr || sched.ir->empty()) {
    plan.reduce_tile = sched.reduce_tile;
    return plan;
  }
  const std::string err =
      validate_sddmm_ir(*sched.ir, num_edges, reduce_len, isa);
  FG_CHECK_MSG(err.empty(), err.c_str());
  for (const IrTransform& t : sched.ir->transforms()) {
    switch (t.kind) {
      case IrTransformKind::kChunkRows:
        plan.edge_chunk = t.factor;
        break;
      case IrTransformKind::kTileFeat:
        plan.reduce_tile = t.factor;
        break;
      default:
        break;
    }
  }
  return plan;
}

ScheduleIr default_spmm_program(const CpuSpmmSchedule& sched) {
  ScheduleIr ir;
  if (sched.num_partitions > 1) ir.partition(sched.num_partitions);
  if (sched.feat_tile > 0) ir.tile(sched.feat_tile);
  if (sched.load_balance != LoadBalance::kNnzBalanced)
    ir.split_nnz(sched.load_balance);
  return ir;
}

std::uint64_t schedule_program_hash(const CpuSpmmSchedule& sched) {
  const ScheduleIr view =
      sched.ir != nullptr && !sched.ir->empty() ? *sched.ir
                                                : default_spmm_program(sched);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  for (const IrTransform& t : view.transforms()) {
    mix(static_cast<std::uint64_t>(t.kind) + 1);
    mix(static_cast<std::uint64_t>(t.factor));
    mix(static_cast<std::uint64_t>(t.balance));
  }
  return h;
}

std::uint64_t schedule_program_hash(const CpuSpmmSchedule& sched,
                                    std::uint64_t epilogue_sig) {
  std::uint64_t h = schedule_program_hash(sched);
  if (epilogue_sig == 0) return h;  // unfused: identical to the base hash
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (epilogue_sig >> (byte * 8)) & 0xffu;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace featgraph::core
