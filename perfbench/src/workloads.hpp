// The four workloads and the layer probes they share.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "graph/csr.hpp"
#include "tensor/tensor.hpp"

namespace pb {

/// Fills every per-layer metric with 0 so each traced run reports the full
/// set; a 0 that survives means the workload never calls that layer.
void declare_layer_metrics(Report& r);

/// Per-layer results every traced run derives from its spans: layer self
/// times, trace.coverage (share of the traced wall covered by layer self
/// time), and the overhead of tracing the same work.
void report_span_summary(Report& r, const Spans& spans, double traced_wall_s,
                         double untraced_op_s, double traced_op_s);

/// Shapes at which the probes replay each layer's public calls on the
/// workload's own graph and features.
struct ProbeSpec {
  const featgraph::graph::Graph* graph = nullptr;
  const featgraph::tensor::Tensor* features = nullptr;
  std::int64_t agg_width = 0;  // width of the model's first aggregation
  std::int64_t in_dim = 0;     // first dense transform: in_dim -> out_dim
  std::int64_t out_dim = 0;
  int threads = 1;
  std::vector<std::int64_t> fanouts;
  std::int64_t batch = 1024;
  std::uint64_t seed = 1;
  bool tiny = false;
};

/// Replays graph build, SpMM, SDDMM, fused attention, dense GEMM (both
/// orientations), neighbor sampling and row gather at the workload's
/// shapes, each inside a span, plus 1-thread vs 4-thread scaling. Derives
/// GB/s from computed byte counts against the triad peak. Returns the wall
/// time spent (for coverage).
double run_layer_probes(const ProbeSpec& spec, Spans& spans, Report& r,
                        double triad_gbps);

void run_gcn_train(const RunConfig& cfg, Report& r);
void run_gat_train(const RunConfig& cfg, Report& r);
void run_sage_minibatch(const RunConfig& cfg, Report& r);
void run_serve_openloop(const RunConfig& cfg, Report& r);

}  // namespace pb
