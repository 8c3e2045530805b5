#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <variant>

#include "core/schedule_ir.hpp"
#include "gpusim/attention_gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace featgraph::core {

namespace {

using Point = std::vector<int>;

/// Every point in row-major order (the last axis varies fastest), so a
/// list space is measured in list order.
template <class MeasureAt>
void grid_walk(const std::vector<int>& sizes, const MeasureAt& measure_at) {
  Point p(sizes.size(), 0);
  for (;;) {
    measure_at(p);
    std::size_t a = p.size();
    for (; a > 0; --a) {
      if (++p[a - 1] < sizes[a - 1]) break;
      p[a - 1] = 0;
    }
    if (a == 0) return;
  }
}

/// Random-restart greedy descent: from each seed point (the first is
/// `origin`, later ones uniform random) step to the best of the 2N
/// axis-aligned +-1 neighbors until none improves. Measurements are
/// memoized per point, and the walk stops once `budget.max_trials` points
/// have been measured.
template <class MeasureAt>
void lattice_climb(const std::vector<int>& sizes, const Point& origin,
                   const SmartTuneOptions& budget,
                   const MeasureAt& measure_at) {
  const std::size_t axes = sizes.size();
  std::map<Point, double> measured;

  auto eval = [&](const Point& p) -> double {
    auto it = measured.find(p);
    if (it != measured.end()) return it->second;
    if (static_cast<int>(measured.size()) >= budget.max_trials)
      return std::numeric_limits<double>::infinity();
    return measured.emplace(p, measure_at(p)).first->second;
  };
  auto spent = [&] {
    return static_cast<int>(measured.size()) >= budget.max_trials;
  };

  support::Rng rng(budget.seed);
  for (int seed_idx = 0; seed_idx < budget.num_seeds && !spent(); ++seed_idx) {
    Point p = origin;
    if (seed_idx > 0) {
      for (std::size_t a = 0; a < axes; ++a)
        p[a] = static_cast<int>(
            rng.uniform(static_cast<std::uint64_t>(sizes[a])));
    }
    double current = eval(p);
    for (;;) {
      Point best_p = p;
      double best = current;
      for (std::size_t a = 0; a < axes; ++a) {
        for (int step : {-1, +1}) {
          Point c = p;
          c[a] += step;
          if (c[a] < 0 || c[a] >= sizes[a]) continue;
          const double secs = eval(c);
          if (secs < best) {
            best = secs;
            best_p = std::move(c);
          }
        }
      }
      if (best_p == p) break;
      p = std::move(best_p);
      current = best;
      if (spent()) break;
    }
  }
}

template <class S>
TuneResult<S> run_search(const Space<S>& space, const MeasureFn<S>& measure,
                         const Search& search) {
  FG_CHECK(space.origin.size() == space.sizes.size());
  for (std::size_t a = 0; a < space.sizes.size(); ++a)
    FG_CHECK(space.sizes[a] >= 1 && space.origin[a] >= 0 &&
             space.origin[a] < space.sizes[a]);
  const bool climb = search.strategy == Search::Strategy::kClimb;
  FG_CHECK(!climb || search.budget.max_trials >= 1);
  static obs::Counter& obs_tunes =
      obs::Registry::global().counter("tuner.tune.count");
  static obs::Counter& obs_trials =
      obs::Registry::global().counter("tuner.trial.count");
  obs_tunes.add(1);
  FG_TRACE_SCOPE("tuner.tune", obs::arg("kind", measure.kind()),
                 obs::arg("strategy", climb ? "climb" : "grid"));

  TuneResult<S> result;
  result.best_seconds = std::numeric_limits<double>::infinity();
  auto measure_at = [&](const Point& p) {
    obs_trials.add(1);
    FG_TRACE_SCOPE("tuner.trial");
    S s = space.decode(p);
    const double secs = measure(s);
    if (secs < result.best_seconds) {
      result.best_seconds = secs;
      result.best = s;
    }
    result.trials.push_back({std::move(s), secs});
    return secs;
  };
  if (climb) {
    lattice_climb(space.sizes, space.origin, search.budget, measure_at);
  } else {
    grid_walk(space.sizes, measure_at);
  }
  FG_CHECK_MSG(std::isfinite(result.best_seconds),
               "tune needs at least one finite measurement");
  return result;
}

}  // namespace

TuneResult<CpuSpmmSchedule> tune(const Space<CpuSpmmSchedule>& space,
                                 const MeasureFn<CpuSpmmSchedule>& measure,
                                 const Search& search) {
  return run_search(space, measure, search);
}

TuneResult<GpuSpmmSchedule> tune(const Space<GpuSpmmSchedule>& space,
                                 const MeasureFn<GpuSpmmSchedule>& measure,
                                 const Search& search) {
  return run_search(space, measure, search);
}

// --- candidate lists --------------------------------------------------------

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

// --- lattices ----------------------------------------------------------------

namespace {

constexpr std::int64_t kMinTile = 8;
constexpr int kMaxPartitions = 64;

std::vector<int> partition_axis() {
  std::vector<int> axis;
  for (int p = 1; p <= kMaxPartitions; p *= 2) axis.push_back(p);
  return axis;
}

int axis_size(std::size_t n) { return static_cast<int>(n); }

template <class T>
const T& at(const std::vector<T>& axis, int i) {
  return axis[static_cast<std::size_t>(i)];
}

}  // namespace

Space<CpuSpmmSchedule> spmm_lattice(std::int64_t d_out, int num_threads) {
  std::vector<std::int64_t> tiles = {0};  // 0 = untiled (full width)
  for (std::int64_t t = kMinTile; t < d_out; t *= 2) tiles.push_back(t);
  const auto parts = partition_axis();
  const auto balances = load_balance_axis(num_threads);
  return {{axis_size(parts.size()), axis_size(tiles.size()),
           axis_size(balances.size())},
          {0, 0, 0},
          [=](const Point& p) {
            CpuSpmmSchedule s;
            s.num_partitions = at(parts, p[0]);
            s.feat_tile = at(tiles, p[1]);
            s.num_threads = num_threads;
            s.load_balance = at(balances, p[2]);
            return s;
          }};
}

Space<CpuSpmmSchedule> spmm_ir_lattice(std::int64_t d_out,
                                       std::int64_t num_rows,
                                       int num_threads) {
  const simd::Isa isa = simd::active_isa();
  // Every lattice point must be a LEGAL, DISTINCT program (illegal or
  // duplicate points would burn budget on wasted or repeated measurements),
  // so tile and unroll fuse into one combo axis: (0, 1) is "untiled" and
  // unroll only appears under a tile. The widths themselves are pre-filtered
  // through the validator, so AVX2 and AVX-512 legs climb different axes.
  std::vector<std::pair<std::int64_t, int>> tile_unroll = {{0, 1}};
  for (std::int64_t w = kMinTile; w <= std::min<std::int64_t>(d_out, 128);
       w *= 2) {
    if (!validate_spmm_ir(ScheduleIr().tile(w), num_rows, d_out, isa).empty())
      continue;
    for (int u : {1, 2, 4}) tile_unroll.push_back({w, u});
  }
  const auto parts = partition_axis();
  std::vector<std::int64_t> chunks = {0};
  for (std::int64_t c : {std::int64_t{256}, std::int64_t{1024},
                         std::int64_t{4096}}) {
    if (c <= num_rows) chunks.push_back(c);
  }
  const auto balances = load_balance_axis(num_threads);
  // Shard axis (0 = unsharded). Only populated with real lanes, so the
  // 1-thread lattice — and the deterministic walk every recorded 1-core
  // tuning took — is unchanged: a size-1 axis admits no moves.
  std::vector<int> shard_counts = {0};
  if (num_threads > 1) {
    for (int mult : {2, 4, 8}) shard_counts.push_back(mult * num_threads);
  }
  return {{axis_size(parts.size()), axis_size(tile_unroll.size()),
           axis_size(chunks.size()), axis_size(balances.size()),
           axis_size(shard_counts.size())},
          {0, 0, 0, 0, 0},
          [=](const Point& p) {
            const int n_parts = at(parts, p[0]);
            const auto [w, u] = at(tile_unroll, p[1]);
            const std::int64_t chunk = at(chunks, p[2]);
            const LoadBalance lb = at(balances, p[3]);
            const int n_shards = at(shard_counts, p[4]);
            ScheduleIr ir;
            if (n_parts > 1) ir.partition(n_parts);
            if (w > 0) {
              ir.tile(w);
              if (u > 1) ir.unroll(u);
            }
            if (chunk > 0) ir.chunk(chunk);
            if (lb != LoadBalance::kNnzBalanced) ir.split_nnz(lb);
            if (n_shards > 0) ir.shard(n_shards);
            CpuSpmmSchedule s;
            s.num_threads = num_threads;
            if (!ir.empty()) s.ir = std::make_shared<const ScheduleIr>(ir);
            return s;
          }};
}

Space<GpuSpmmSchedule> gpu_attention_lattice() {
  const std::vector<int> tiles = {8, 16, 32, 64, 128, 256};
  const std::vector<double> fracs = {0.2, 0.35, 0.5, 0.65, 0.8};
  const std::vector<LoadBalance> assigns = {LoadBalance::kNnzBalanced,
                                            LoadBalance::kStaticRows};
  // Origin: the schedule defaults (32-row tiles, even split, nnz-balanced).
  return {{axis_size(tiles.size()), axis_size(fracs.size()),
           axis_size(assigns.size())},
          {2, 2, 0},
          [=](const Point& p) {
            GpuSpmmSchedule s;
            s.hybrid_partition = true;
            s.hybrid_rows_per_tile = at(tiles, p[0]);
            s.attention_softmax_smem_frac = at(fracs, p[1]);
            s.row_assignment = at(assigns, p[2]);
            return s;
          }};
}

// --- measure functions ------------------------------------------------------

MeasureFn<CpuSpmmSchedule> spmm_measure(const graph::Csr& adj,
                                        std::string_view msg_op,
                                        std::string_view reduce_op,
                                        const SpmmOperands& operands,
                                        int timing_reps) {
  return {[&adj, msg_op = std::string(msg_op),
           reduce_op = std::string(reduce_op), operands,
           timing_reps](const CpuSpmmSchedule& s) {
            return support::time_mean_seconds(
                [&] { (void)spmm(adj, msg_op, reduce_op, s, operands); },
                timing_reps);
          },
          "spmm"};
}

MeasureFn<CpuSpmmSchedule> attention_measure(const graph::Csr& adj,
                                             std::string_view msg_op,
                                             const AttentionOperands& operands,
                                             int timing_reps) {
  return {[&adj, msg_op = std::string(msg_op), operands,
           timing_reps](const CpuSpmmSchedule& s) {
            return support::time_mean_seconds(
                [&] { (void)attention(adj, msg_op, s, operands); },
                timing_reps);
          },
          "attention"};
}

MeasureFn<GpuSpmmSchedule> gpu_attention_measure(
    const graph::Csr& adj, std::string_view msg_op,
    const AttentionOperands& operands, const gpusim::DeviceSpec& spec) {
  return {[&adj, msg_op = std::string(msg_op), operands,
           spec](const GpuSpmmSchedule& s) {
            return gpusim::attention_gpu(adj, msg_op, s, operands, spec)
                .cost.total_s;
          },
          "gpu_attention"};
}

// --- memoized grid winners --------------------------------------------------

namespace {

struct MemoKey {
  std::string kernel;     // the measure's kind
  std::uint64_t adj_uid;  // structure uid, not address (addresses recycle)
  std::string msg_op;
  std::string reduce_op;
  std::int64_t d;
  std::int64_t lanes;  // CPU threads, or the gpusim smem bytes per block
  bool operator<(const MemoKey& o) const {
    return std::tie(kernel, adj_uid, msg_op, reduce_op, d, lanes) <
           std::tie(o.kernel, o.adj_uid, o.msg_op, o.reduce_op, o.d, o.lanes);
  }
};

std::mutex g_memo_mutex;
std::map<MemoKey, std::variant<CpuSpmmSchedule, GpuSpmmSchedule>> g_memo;

/// Looks `key` up; on a miss, runs the grid search OUTSIDE the lock (it
/// times kernel launches) and caches its winner. Racing misses on one key
/// each tune, and all of them return the first winner stored.
template <class S>
S memoized(const MemoKey& key, const Space<S>& space,
           const MeasureFn<S>& measure) {
  {
    std::lock_guard<std::mutex> lock(g_memo_mutex);
    auto it = g_memo.find(key);
    if (it != g_memo.end()) return std::get<S>(it->second);
  }
  S best = tune(space, measure, Search::grid()).best;
  std::lock_guard<std::mutex> lock(g_memo_mutex);
  return std::get<S>(g_memo.emplace(key, std::move(best)).first->second);
}

/// The output width a launch of `msg_op` produces, mirroring the kernels'
/// dispatch: mlp aggregates to the weight's output width, copy_e to the
/// edge feature width, the u-op family to the source feature width.
std::int64_t out_width(const graph::Csr& adj, std::string_view msg_op,
                       const tensor::Tensor* src_feat,
                       const tensor::Tensor* edge_feat,
                       const tensor::Tensor* weight) {
  if (weight != nullptr && weight->defined()) return weight->shape(1);
  if (msg_op == "copy_e") {
    FG_CHECK_MSG(edge_feat != nullptr && edge_feat->defined(),
                 "copy_e tuning requires edge_feat");
    return edge_width(*edge_feat, adj.nnz());
  }
  FG_CHECK_MSG(src_feat != nullptr && src_feat->defined(),
               "tuning requires src_feat for this msg_op");
  return src_feat->row_size();
}

}  // namespace

CpuSpmmSchedule tuned_spmm_schedule(const graph::Csr& adj,
                                    std::string_view msg_op,
                                    std::string_view reduce_op,
                                    const SpmmOperands& operands,
                                    int num_threads) {
  const std::int64_t d = out_width(adj, msg_op, operands.src_feat,
                                   operands.edge_feat, operands.weight);
  const auto measure = spmm_measure(adj, msg_op, reduce_op, operands);
  return memoized(MemoKey{measure.kind(), adj.uid, std::string(msg_op),
                          std::string(reduce_op), d, num_threads},
                  list_space(default_spmm_candidates(d, num_threads)),
                  measure);
}

CpuSpmmSchedule tuned_attention_schedule(const graph::Csr& adj,
                                         std::string_view msg_op,
                                         const AttentionOperands& operands,
                                         int num_threads) {
  const std::int64_t d = out_width(adj, msg_op, operands.src_feat,
                                   operands.edge_feat, operands.weight);
  const auto measure = attention_measure(adj, msg_op, operands);
  return memoized(MemoKey{measure.kind(), adj.uid, std::string(msg_op), "",
                          d, num_threads},
                  list_space(default_spmm_candidates(d, num_threads)),
                  measure);
}

GpuSpmmSchedule tuned_gpu_attention_schedule(const graph::Csr& adj,
                                             std::string_view msg_op,
                                             const AttentionOperands& operands,
                                             const gpusim::DeviceSpec& spec) {
  const std::int64_t d = out_width(adj, msg_op, operands.src_feat,
                                   operands.edge_feat, operands.weight);
  const auto measure = gpu_attention_measure(adj, msg_op, operands, spec);
  return memoized(MemoKey{measure.kind(), adj.uid, std::string(msg_op), "",
                          d, spec.smem_bytes_per_block},
                  list_space(default_gpu_attention_candidates()), measure);
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
