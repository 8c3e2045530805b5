#include "core/tuner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/schedule_ir.hpp"
#include "gpusim/attention_gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace featgraph::core {

std::vector<CpuSpmmSchedule> default_spmm_candidates(std::int64_t d_out,
                                                     int num_threads) {
  std::vector<CpuSpmmSchedule> grid;
  const std::vector<LoadBalance> balances = load_balance_axis(num_threads);
  for (int parts : {1, 2, 4, 8, 16, 32}) {
    for (std::int64_t tile : {std::int64_t{0}, std::int64_t{16},
                              std::int64_t{32}, std::int64_t{64},
                              std::int64_t{128}}) {
      if (tile > d_out) continue;
      for (LoadBalance lb : balances) {
        CpuSpmmSchedule s;
        s.num_partitions = parts;
        s.feat_tile = tile;
        s.num_threads = num_threads;
        s.load_balance = lb;
        grid.push_back(s);
      }
    }
  }
  return grid;
}

std::vector<CpuSpmmSchedule> default_spmm_ir_candidates(std::int64_t d_out,
                                                        std::int64_t num_rows,
                                                        int num_threads) {
  std::vector<CpuSpmmSchedule> grid;
  const simd::Isa isa = simd::active_isa();
  auto push = [&](const ScheduleIr& ir) {
    // Illegal programs (tile not a lane multiple on this backend, chunk past
    // the row count, ...) are filtered here, never measured.
    if (!ir.empty() && !validate_spmm_ir(ir, num_rows, d_out, isa).empty())
      return;
    CpuSpmmSchedule s;
    s.num_threads = num_threads;
    if (!ir.empty()) s.ir = std::make_shared<const ScheduleIr>(ir);
    grid.push_back(s);
  };

  // Candidate #0: the empty program. Lowered, it IS the untuned default
  // schedule (same plan, same loop order), so the tuner's first measurement
  // reproduces the default launch bit-for-bit.
  push(ScheduleIr{});

  // Register-blocked feature tiles x row chunks. Tile widths are lane
  // multiples of SOME backend; the validator keeps only the ones legal for
  // the active one, so AVX2 and AVX-512 legs search different grids.
  for (std::int64_t w : {std::int64_t{8}, std::int64_t{16}, std::int64_t{32},
                         std::int64_t{64}}) {
    if (w > d_out) continue;
    for (int u : {1, 2, 4}) {
      for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{1024}}) {
        ScheduleIr ir;
        ir.tile(w);
        if (u > 1) ir.unroll(u);
        if (chunk > 0) ir.chunk(std::min(chunk, num_rows));
        push(ir);
      }
    }
  }

  // The template half: source partitioning, plain and register-blocked.
  std::int64_t w_widest = 0;
  for (std::int64_t w : {std::int64_t{8}, std::int64_t{16}, std::int64_t{32},
                         std::int64_t{64}}) {
    if (w <= d_out &&
        validate_spmm_ir(ScheduleIr().tile(w), num_rows, d_out, isa).empty())
      w_widest = w;
  }
  for (int parts : {2, 4, 8}) {
    push(ScheduleIr().partition(parts));
    if (w_widest > 0)
      push(ScheduleIr().partition(parts).tile(w_widest).unroll(4));
  }

  // The nnz-split policy flip, on the strongest blocked shape.
  for (LoadBalance lb : load_balance_axis(num_threads)) {
    if (lb == LoadBalance::kNnzBalanced) continue;  // the default policy
    ScheduleIr ir;
    ir.split_nnz(lb);
    if (w_widest > 0) ir.tile(w_widest).unroll(4);
    push(ir);
  }

  // Shard-parallel row sweeps (parallel/shard_exec.hpp). Only meaningful
  // with real lanes — at one thread the stealing executor degrades to the
  // serial sweep, so the 1-thread grid (and every recorded 1-core number)
  // is unchanged. 2x threads = minimal stealing headroom, 4x = the classic
  // over-decomposition point; each also tried register-blocked, plus a
  // coarser steal granularity on the bigger decomposition.
  if (num_threads > 1) {
    for (int mult : {2, 4}) {
      const int shards = mult * num_threads;
      push(ScheduleIr().shard(shards));
      if (w_widest > 0)
        push(ScheduleIr().shard(shards).tile(w_widest).unroll(4));
    }
    push(ScheduleIr().shard(4 * num_threads).steal_grain(2));
  }
  return grid;
}

SpmmTuneResult tune_spmm(const graph::Csr& adj, std::string_view msg_op,
                         std::string_view reduce_op,
                         const SpmmOperands& operands,
                         std::vector<CpuSpmmSchedule> candidates,
                         int timing_reps) {
  FG_CHECK(!candidates.empty());
  static obs::Counter& obs_tunes =
      obs::Registry::global().counter("tuner.tune.count");
  static obs::Counter& obs_trials =
      obs::Registry::global().counter("tuner.trial.count");
  obs_tunes.add(1);
  FG_TRACE_SCOPE("tuner.tune", obs::arg("kind", "spmm"),
                 obs::arg("candidates",
                          static_cast<std::int64_t>(candidates.size())));
  SpmmTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();
  for (const auto& cand : candidates) {
    obs_trials.add(1);
    FG_TRACE_SCOPE("tuner.trial");
    const double secs = support::time_mean_seconds(
        [&] { (void)spmm(adj, msg_op, reduce_op, cand, operands); },
        timing_reps);
    result.trials.push_back({cand, secs});
    if (secs < result.best_seconds) {
      result.best_seconds = secs;
      result.best = cand;
    }
  }
  return result;
}

namespace {

struct TuneKey {
  std::uint64_t adj_uid;  // structure uid, not address (addresses recycle)
  std::string msg_op;
  std::string reduce_op;
  std::int64_t d;
  int threads;
  bool operator<(const TuneKey& o) const {
    return std::tie(adj_uid, msg_op, reduce_op, d, threads) <
           std::tie(o.adj_uid, o.msg_op, o.reduce_op, o.d, o.threads);
  }
};

std::mutex g_tune_mutex;
std::map<TuneKey, CpuSpmmSchedule> g_tune_cache;

}  // namespace

CpuSpmmSchedule tuned_spmm_schedule(const graph::Csr& adj,
                                    std::string_view msg_op,
                                    std::string_view reduce_op,
                                    const SpmmOperands& operands,
                                    int num_threads) {
  const std::int64_t d =
      operands.weight != nullptr ? operands.weight->shape(1)
                                 : operands.src_feat->row_size();
  const TuneKey key{adj.uid, std::string(msg_op), std::string(reduce_op), d,
                    num_threads};
  {
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    auto it = g_tune_cache.find(key);
    if (it != g_tune_cache.end()) return it->second;
  }
  SpmmTuneResult tuned =
      tune_spmm(adj, msg_op, reduce_op, operands,
                default_spmm_candidates(d, num_threads));
  std::lock_guard<std::mutex> lock(g_tune_mutex);
  g_tune_cache.emplace(key, tuned.best);
  return tuned.best;
}

SpmmTuneResult tune_attention(const graph::Csr& adj, std::string_view msg_op,
                              const AttentionOperands& operands,
                              std::vector<CpuSpmmSchedule> candidates,
                              int timing_reps) {
  FG_CHECK(!candidates.empty());
  static obs::Counter& obs_tunes =
      obs::Registry::global().counter("tuner.tune.count");
  static obs::Counter& obs_trials =
      obs::Registry::global().counter("tuner.trial.count");
  obs_tunes.add(1);
  FG_TRACE_SCOPE("tuner.tune", obs::arg("kind", "attention"),
                 obs::arg("candidates",
                          static_cast<std::int64_t>(candidates.size())));
  SpmmTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();
  for (const auto& cand : candidates) {
    obs_trials.add(1);
    FG_TRACE_SCOPE("tuner.trial");
    const double secs = support::time_mean_seconds(
        [&] { (void)attention(adj, msg_op, cand, operands); }, timing_reps);
    result.trials.push_back({cand, secs});
    if (secs < result.best_seconds) {
      result.best_seconds = secs;
      result.best = cand;
    }
  }
  return result;
}

CpuSpmmSchedule tuned_attention_schedule(const graph::Csr& adj,
                                         std::string_view msg_op,
                                         const AttentionOperands& operands,
                                         int num_threads) {
  // d_out resolution mirrors attention()'s msg-op dispatch: mlp aggregates
  // to the weight's output width, copy_e to the edge feature width, and the
  // u-op family to the source feature width.
  std::int64_t d = 0;
  if (operands.weight != nullptr && operands.weight->defined()) {
    d = operands.weight->shape(1);
  } else if (msg_op == "copy_e") {
    FG_CHECK_MSG(operands.edge_feat != nullptr && operands.edge_feat->defined() &&
                     adj.nnz() > 0,
                 "copy_e attention tuning requires edge_feat");
    d = operands.edge_feat->numel() / adj.nnz();
  } else {
    FG_CHECK_MSG(operands.src_feat != nullptr && operands.src_feat->defined(),
                 "attention tuning requires src_feat for this msg_op");
    d = operands.src_feat->row_size();
  }
  const TuneKey key{adj.uid, "attn:" + std::string(msg_op), "sum", d,
                    num_threads};
  {
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    auto it = g_tune_cache.find(key);
    if (it != g_tune_cache.end()) return it->second;
  }
  std::vector<CpuSpmmSchedule> candidates =
      default_spmm_candidates(d, num_threads);
  for (auto& c : candidates) c.num_threads = num_threads;
  SpmmTuneResult tuned =
      tune_attention(adj, msg_op, operands, std::move(candidates));
  std::lock_guard<std::mutex> lock(g_tune_mutex);
  g_tune_cache.emplace(key, tuned.best);
  return tuned.best;
}

std::function<double(const CpuSpmmSchedule&)> attention_measure_fn(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, int timing_reps) {
  return [&adj, msg_op = std::string(msg_op), operands,
          timing_reps](const CpuSpmmSchedule& sched) {
    return support::time_mean_seconds(
        [&] { (void)attention(adj, msg_op, sched, operands); }, timing_reps);
  };
}

// --- gpusim fused-attention axis --------------------------------------------

std::vector<GpuSpmmSchedule> default_gpu_attention_candidates() {
  std::vector<GpuSpmmSchedule> grid;
  {
    // The plain kernel: no staging, the whole smem budget is softmax
    // scratch (the best a non-hybrid launch can do).
    GpuSpmmSchedule s;
    s.hybrid_partition = false;
    s.attention_softmax_smem_frac = 1.0;
    grid.push_back(s);
  }
  for (int rpt : {32, 64, 128}) {
    for (double frac : {0.25, 0.5, 0.75}) {
      for (LoadBalance ra : {LoadBalance::kNnzBalanced,
                             LoadBalance::kStaticRows}) {
        GpuSpmmSchedule s;
        s.hybrid_partition = true;
        s.hybrid_rows_per_tile = rpt;
        s.attention_softmax_smem_frac = frac;
        s.row_assignment = ra;
        grid.push_back(s);
      }
    }
  }
  return grid;
}

GpuAttentionTuneResult tune_attention_gpu(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands,
    std::vector<GpuSpmmSchedule> candidates, const gpusim::DeviceSpec& spec) {
  FG_CHECK(!candidates.empty());
  GpuAttentionTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();
  for (const auto& cand : candidates) {
    // The objective is the SIMULATED cost — deterministic, so one
    // evaluation per candidate and no timing reps.
    const double secs =
        gpusim::attention_gpu(adj, msg_op, cand, operands, spec).cost.total_s;
    result.trials.push_back({cand, secs});
    if (secs < result.best_seconds) {
      result.best_seconds = secs;
      result.best = cand;
    }
  }
  return result;
}

namespace {

/// (graph, kernel, width, smem budget): the smem budget is the DeviceSpec
/// field the smem-split search is structurally sensitive to — a schedule
/// tuned for a 96 KB block must not be served to a 48 KB one.
struct GpuTuneKey {
  std::uint64_t adj_uid;
  std::string msg_op;
  std::int64_t d;
  std::int64_t smem_bytes_per_block;
  bool operator<(const GpuTuneKey& o) const {
    return std::tie(adj_uid, msg_op, d, smem_bytes_per_block) <
           std::tie(o.adj_uid, o.msg_op, o.d, o.smem_bytes_per_block);
  }
};

std::map<GpuTuneKey, GpuSpmmSchedule> g_gpu_attn_cache;

}  // namespace

GpuSpmmSchedule tuned_gpu_attention_schedule(const graph::Csr& adj,
                                             std::string_view msg_op,
                                             const AttentionOperands& operands,
                                             const gpusim::DeviceSpec& spec) {
  const std::int64_t d =
      operands.weight != nullptr && operands.weight->defined()
          ? operands.weight->shape(1)
          : (operands.src_feat != nullptr && operands.src_feat->defined()
                 ? operands.src_feat->row_size()
                 : 0);
  const GpuTuneKey key{adj.uid, std::string(msg_op), d,
                       spec.smem_bytes_per_block};
  {
    std::lock_guard<std::mutex> lock(g_tune_mutex);
    auto it = g_gpu_attn_cache.find(key);
    if (it != g_gpu_attn_cache.end()) return it->second;
  }
  GpuAttentionTuneResult tuned = tune_attention_gpu(
      adj, msg_op, operands, default_gpu_attention_candidates(), spec);
  std::lock_guard<std::mutex> lock(g_tune_mutex);
  g_gpu_attn_cache.emplace(key, tuned.best);
  return tuned.best;
}

std::function<double(const GpuSpmmSchedule&)> gpu_attention_measure_fn(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, const gpusim::DeviceSpec& spec) {
  return [&adj, msg_op = std::string(msg_op), operands,
          spec](const GpuSpmmSchedule& sched) {
    return gpusim::attention_gpu(adj, msg_op, sched, operands, spec)
        .cost.total_s;
  };
}

CpuSpmmSchedule heuristic_spmm_schedule(const graph::Csr& adj,
                                        std::int64_t d_feat, int num_threads) {
  CpuSpmmSchedule s;
  s.num_threads = num_threads;
  s.load_balance = LoadBalance::kNnzBalanced;  // never worse on skewed graphs
  s.feat_tile = std::min<std::int64_t>(d_feat, 64);
  const double tile_bytes = static_cast<double>(s.feat_tile) * sizeof(float);
  const double src_bytes = static_cast<double>(adj.num_cols) * tile_bytes;
  const double budget = 12.5 * 1024 * 1024;  // half of the paper's 25 MB LLC
  int parts = 1;
  while (parts < 64 && src_bytes / parts > budget) parts *= 2;
  s.num_partitions = parts;
  return s;
}

}  // namespace featgraph::core
