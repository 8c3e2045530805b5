// Layer probes: each layer's public entry point replayed at the workload's
// shapes on the workload's graph, timed from outside.

#include <algorithm>
#include <cmath>

#include "core/attention.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "sample/feature_loader.hpp"
#include "sample/neighbor_sampler.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace pb {

using namespace featgraph;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer set, in the order the README documents it.
constexpr LayerMetric kLayerMetrics[] = {
    {"minidgl.forward_s", "s"},
    {"minidgl.loss_s", "s"},
    {"minidgl.backward_s", "s"},
    {"minidgl.optim_s", "s"},
    {"minidgl.block_forward_s", "s"},
    {"minidgl.peak_bytes", "bytes"},
    {"core.spmm_s", "s"},
    {"core.spmm_gbps", "GB/s"},
    {"core.spmm_pct_peak", "%"},
    {"core.sddmm_s", "s"},
    {"core.attention_s", "s"},
    {"core.attention_gbps", "GB/s"},
    {"tensor.matmul_s", "s"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.matmul_t_s", "s"},
    {"tensor.matmul_t_gflops", "GFLOP/s"},
    {"parallel.spmm_speedup_4t", "x"},
    {"parallel.matmul_speedup_4t", "x"},
    {"parallel.sample_speedup_4t", "x"},
    {"sample.sample_s", "s"},
    {"sample.edges_per_s", "1/s"},
    {"sample.gather_s", "s"},
    {"sample.gather_gbps", "GB/s"},
    {"sample.pipeline_speedup", "x"},
    {"sample.schedule_cache_hit_rate", "ratio"},
    {"serve.requests_per_batch", "count"},
    {"serve.dedup_frac", "ratio"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.compute_ms", "ms"},
    {"serve.lane_busy_frac", "ratio"},
    {"serve.generator_lag_ms", "ms"},
    {"graph.build_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"host.triad_gbps", "GB/s"},
    {"trace.coverage", "ratio"},
    {"graph.self_s", "s"},
    {"core.self_s", "s"},
    {"tensor.self_s", "s"},
    {"minidgl.self_s", "s"},
    {"parallel.self_s", "s"},
    {"sample.self_s", "s"},
    {"serve.self_s", "s"},
};

constexpr const char* kLayers[] = {"graph",    "core",   "tensor", "minidgl",
                                   "parallel", "sample", "serve"};

/// Runs `fn` `reps` times, each inside a span named `name`; returns the
/// median call time.
template <class Fn>
double timed(Spans& spans, const char* name, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    {
      Spans::Scope s(spans, name);
      fn();
    }
    t.push_back(now_s() - t0);
  }
  return median(t);
}

constexpr int kScaleThreads = 4;

}  // namespace

void declare_layer_metrics(Report& r) {
  for (const LayerMetric& m : kLayerMetrics) r.result(m.name, 0.0, m.unit, 0);
}

void report_span_summary(Report& r, const Spans& spans, double traced_wall_s,
                         double untraced_op_s, double traced_op_s) {
  const auto by_layer = spans.self_by_layer();
  for (const char* layer : kLayers) {
    const auto it = by_layer.find(layer);
    r.result(std::string(layer) + ".self_s",
             it == by_layer.end() ? 0.0 : it->second, "s", 1);
  }
  for (const auto& [name, s] : spans.self_by_name())
    r.detail("self_s." + name, s, "s", 1);
  r.result("trace.coverage",
           traced_wall_s > 0 ? spans.total_self() / traced_wall_s : 0.0,
           "ratio", 1);
  r.detail("trace.traced_wall_s", traced_wall_s, "s", 1);
  r.result("obs.trace_overhead_pct",
           untraced_op_s > 0 ? (traced_op_s - untraced_op_s) / untraced_op_s *
                                   100.0
                             : 0.0,
           "%", 1);
  r.detail("obs.untraced_op_s", untraced_op_s, "s", 1);
  r.detail("obs.traced_op_s", traced_op_s, "s", 1);
}

double run_layer_probes(const ProbeSpec& spec, Spans& spans, Report& r,
                        double triad) {
  const graph::Graph& g = *spec.graph;
  const graph::Csr& adj = g.in_csr();
  const std::int64_t n = g.num_vertices();
  const std::int64_t nnz = g.num_edges();
  const int reps = spec.tiny ? 1 : 3;
  const int T = spec.threads;

  // Inputs are built before the probe wall starts: they are benchmark data,
  // not layer work.
  const std::int64_t d = spec.agg_width;
  const tensor::Tensor h = tensor::Tensor::randn({n, d}, spec.seed + 11);
  const std::int64_t gemm_rows = std::min<std::int64_t>(n, 1 << 17);
  const tensor::Tensor x =
      tensor::Tensor::randn({gemm_rows, spec.in_dim}, spec.seed + 12);
  const tensor::Tensor w =
      tensor::Tensor::randn({spec.in_dim, spec.out_dim}, spec.seed + 13, 0.1f);
  const tensor::Tensor dy =
      tensor::Tensor::randn({gemm_rows, spec.out_dim}, spec.seed + 14);
  support::Rng rng(spec.seed, 0x5eed);
  std::vector<graph::vid_t> seeds;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(spec.batch, n); ++i)
    seeds.push_back(static_cast<graph::vid_t>(rng.uniform(n)));
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  sample::NeighborSampler sampler(adj, {spec.fanouts, false, spec.seed});
  graph::Coo coo_copy;

  const double wall0 = now_s();

  // graph: CSR build from the workload's COO (the copy is its own span so
  // graph.build_s times the Graph constructor alone).
  std::vector<double> build_t;
  for (int i = 0; i < (spec.tiny ? 1 : 2); ++i) {
    {
      Spans::Scope s(spans, "graph.coo_copy");
      coo_copy = g.coo();
    }
    build_t.push_back(timed(spans, "graph.build", 1, [&] {
      graph::Graph rebuilt(std::move(coo_copy));
      r.check(rebuilt.num_edges() == nnz, "graph rebuild keeps every edge");
    }));
  }
  r.result("graph.build_s", median(build_t), "s",
           static_cast<std::int64_t>(build_t.size()));

  // core: SpMM (copy_u / mean, the models' aggregation) at the workload's
  // thread count, plus the other thread count for the scaling ratio.
  auto spmm_at = [&](int threads) {
    const core::CpuSpmmSchedule sched =
        core::heuristic_spmm_schedule(adj, d, threads);
    core::SpmmOperands ops;
    ops.src_feat = &h;
    return [&adj, sched, ops] {
      return core::spmm(adj, "copy_u", "mean", sched, ops);
    };
  };
  auto spmm_w = spmm_at(T);
  const double spmm_s = timed(spans, "core.spmm", reps, [&] {
    r.check(spmm_w().rows() == n, "spmm output rows");
  });
  auto spmm_other = spmm_at(T == 1 ? kScaleThreads : 1);
  const double spmm_other_s =
      timed(spans, T == 1 ? "parallel.spmm_4t" : "parallel.spmm_1t",
            T == 1 ? reps : 1, [&] { spmm_other(); });
  const double t1 = T == 1 ? spmm_s : spmm_other_s;
  const double t4 = T == 1 ? spmm_other_s : spmm_s;
  // Computed bytes: gathered source rows, output rows, column ids, indptr.
  const double spmm_bytes =
      static_cast<double>(nnz) * d * 4 + static_cast<double>(n) * d * 4 +
      static_cast<double>(nnz) * sizeof(graph::vid_t) +
      static_cast<double>(n + 1) * 8;
  r.result("core.spmm_s", spmm_s, "s", reps);
  r.result("core.spmm_gbps", spmm_bytes / spmm_s / 1e9, "GB/s", reps);
  r.result("core.spmm_pct_peak", spmm_bytes / spmm_s / 1e9 / triad * 100.0,
           "%", reps);
  r.detail("core.spmm_bytes_computed", spmm_bytes, "bytes", 1);
  r.result("parallel.spmm_speedup_4t", t1 / t4, "x", 1);

  // core: SDDMM dot over every edge, and the fused attention kernel
  // (dot-product logits, edge softmax, copy_u messages) as GAT runs it.
  core::CpuSddmmSchedule ssched;
  ssched.num_threads = T;
  const double sddmm_s = timed(spans, "core.sddmm", reps, [&] {
    core::SddmmOperands ops{&h, &h};
    r.check(core::sddmm(g.coo(), "dot", ssched, ops).numel() == nnz,
            "sddmm output per edge");
  });
  r.result("core.sddmm_s", sddmm_s, "s", reps);
  const core::CpuSpmmSchedule asched =
      core::heuristic_spmm_schedule(adj, d, T);
  const double attn_s = timed(spans, "core.attention", reps, [&] {
    core::AttentionOperands ops;
    ops.src_feat = &h;
    ops.query = &h;
    ops.logit_scale = 1.0f / std::sqrt(static_cast<float>(d));
    r.check(core::attention(adj, "copy_u", asched, ops).out.rows() == n,
            "attention output rows");
  });
  // Computed bytes: source rows read for logits and messages, destination
  // key rows and output rows, alpha and column ids per edge, indptr.
  const double attn_bytes =
      2.0 * nnz * d * 4 + 2.0 * n * d * 4 +
      static_cast<double>(nnz) * (4 + sizeof(graph::vid_t)) +
      static_cast<double>(n + 1) * 8;
  r.result("core.attention_s", attn_s, "s", reps);
  r.result("core.attention_gbps", attn_bytes / attn_s / 1e9, "GB/s", reps);
  r.detail("core.attention_bytes_computed", attn_bytes, "bytes", 1);

  // tensor: the first layer's dense transform and its input-gradient
  // product, on the first gemm_rows rows.
  const double flops = 2.0 * gemm_rows * spec.in_dim * spec.out_dim;
  const double mm_s = timed(spans, "tensor.matmul", reps, [&] {
    r.check(tensor::matmul(x, w, T).rows() == gemm_rows, "matmul rows");
  });
  const double mm_other_s =
      timed(spans, T == 1 ? "parallel.matmul_4t" : "parallel.matmul_1t",
            T == 1 ? reps : 1,
            [&] { tensor::matmul(x, w, T == 1 ? kScaleThreads : 1); });
  const double mmt_s = timed(spans, "tensor.matmul_t", reps, [&] {
    r.check(tensor::matmul_transposed(dy, w, T).rows() == gemm_rows,
            "matmul_transposed rows");
  });
  r.result("tensor.matmul_s", mm_s, "s", reps);
  r.result("tensor.matmul_gflops", flops / mm_s / 1e9, "GFLOP/s", reps);
  r.result("tensor.matmul_t_s", mmt_s, "s", reps);
  r.result("tensor.matmul_t_gflops", flops / mmt_s / 1e9, "GFLOP/s", reps);
  r.result("parallel.matmul_speedup_4t",
           T == 1 ? mm_s / mm_other_s : mm_other_s / mm_s, "x", 1);
  r.detail("tensor.gemm_rows", static_cast<double>(gemm_rows), "count", 1);

  // sample: one batch of seeds through the neighbor sampler, then the
  // input-row gather its blocks ask for.
  sample::MinibatchBlocks blocks;
  std::int64_t batch_idx = 0;
  const double samp_s = timed(spans, "sample.sample", reps, [&] {
    blocks = sampler.sample(seeds, static_cast<std::uint64_t>(batch_idx++), T);
  });
  const double samp_other_s =
      timed(spans, T == 1 ? "parallel.sample_4t" : "parallel.sample_1t",
            T == 1 ? reps : 1, [&] {
              sampler.sample(seeds, static_cast<std::uint64_t>(batch_idx++),
                             T == 1 ? kScaleThreads : 1);
            });
  std::int64_t sampled_edges = 0;
  for (const auto& b : blocks.blocks) sampled_edges += b.adj.nnz();
  const auto rows = static_cast<double>(blocks.input_nodes().size());
  const double gather_s = timed(spans, "sample.gather", reps, [&] {
    r.check(sample::gather_rows(*spec.features, blocks.input_nodes(), T)
                    .rows() == static_cast<std::int64_t>(rows),
            "gather rows");
  });
  const double fw = static_cast<double>(spec.features->row_size());
  r.result("sample.sample_s", samp_s, "s", reps);
  r.result("sample.edges_per_s", sampled_edges / samp_s, "1/s", reps);
  r.result("sample.gather_s", gather_s, "s", reps);
  // Computed bytes: each input row read and written once, plus its index.
  r.result("sample.gather_gbps", (rows * fw * 8 + rows * 4) / gather_s / 1e9,
           "GB/s", reps);
  r.result("parallel.sample_speedup_4t",
           T == 1 ? samp_s / samp_other_s : samp_other_s / samp_s, "x", 1);

  return now_s() - wall0;
}

}  // namespace pb
