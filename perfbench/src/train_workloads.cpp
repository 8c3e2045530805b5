// gcn-train and gat-train: full-graph training epochs followed by
// forward-only inference passes, at 4 threads.

#include <algorithm>
#include <cmath>
#include <memory>

#include "minidgl/data.hpp"
#include "minidgl/modules.hpp"
#include "minidgl/optim.hpp"
#include "obs/trace.hpp"
#include "sample/feature_loader.hpp"
#include "sample/neighbor_sampler.hpp"
#include "workloads.hpp"

namespace pb {

using namespace featgraph;

namespace {

struct TrainSpec {
  const char* kind;
  graph::vid_t n;
  double avg_degree;
  std::int64_t in_dim;
  std::int64_t hidden;
  std::int64_t classes;
  int threads;
  bool block_forward;  // the model has a sampled-block forward (not GAT)
};

constexpr double kPIn = 0.8;       // SBM in-community edge probability
constexpr float kSignal = 2.0f;    // class signal in the features
constexpr float kLr = 0.01f;       // Adam, the Trainer default
constexpr double kAccFloor = 0.25; // test accuracy floor (chance is 1/16)
constexpr int kMinOps = 3;         // measured epochs and passes, at least

struct TrainState {
  minidgl::ClassificationData data;
  minidgl::Model model;
  minidgl::Adam opt;
  minidgl::ExecContext ctx;

  TrainState(const TrainSpec& s, std::uint64_t seed)
      : data(minidgl::make_sbm_classification(
            s.n, s.avg_degree, s.classes,
            kPIn, s.in_dim, kSignal, seed)),
        model(s.kind, s.in_dim, s.hidden, s.classes, seed * 31 + 7),
        opt(model.parameters(), kLr) {
    ctx.num_threads = s.threads;
  }
};

TrainSpec scaled(TrainSpec s, bool tiny) {
  if (tiny) {
    s.n = 2048;
    s.avg_degree = 8;
    s.in_dim = 16;
    s.hidden = 16;
  }
  return s;
}

struct OpResult {
  double seconds = 0.0;
  double cpu_s = 0.0;  // all threads, steal excluded
  float loss = 0.0f;
  bool ok = true;
};

/// One training epoch: forward, loss, backward, Adam, each in its span.
OpResult epoch(TrainState& st, Spans& spans) {
  OpResult res;
  st.ctx.reset_accounting();
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  minidgl::Var x = minidgl::make_leaf(st.data.features, false, "features");
  minidgl::Var lp, loss;
  {
    Spans::Scope s(spans, "minidgl.forward");
    lp = st.model.forward(st.ctx, st.data.graph, x);
  }
  {
    Spans::Scope s(spans, "minidgl.loss");
    loss = minidgl::nll_loss(st.ctx, lp, st.data.labels, st.data.train_rows);
  }
  {
    Spans::Scope s(spans, "minidgl.optim");
    st.opt.zero_grad();
  }
  {
    Spans::Scope s(spans, "minidgl.backward");
    minidgl::backward(loss);
  }
  {
    Spans::Scope s(spans, "minidgl.optim");
    st.opt.step();
  }
  res.seconds = now_s() - t0;
  res.cpu_s = process_cpu_s() - cpu0;
  res.loss = loss->value().at(0);
  res.ok = std::isfinite(res.loss) &&
           all_finite(lp->value().data(), lp->value().numel());
  return res;
}

/// One forward-only inference pass; reports test accuracy.
OpResult infer(TrainState& st, Spans& spans, double* test_acc) {
  OpResult res;
  st.ctx.reset_accounting();
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  minidgl::Var x = minidgl::make_leaf(st.data.features, false, "features");
  minidgl::Var lp;
  {
    Spans::Scope s(spans, "minidgl.infer");
    lp = st.model.forward(st.ctx, st.data.graph, x);
  }
  res.seconds = now_s() - t0;
  res.cpu_s = process_cpu_s() - cpu0;
  res.ok = all_finite(lp->value().data(), lp->value().numel());
  *test_acc =
      minidgl::accuracy(lp->value(), st.data.labels, st.data.test_rows);
  return res;
}

void stamp_train(const TrainSpec& s, const TrainState& st, Report& r) {
  const double n = st.data.graph.num_vertices();
  const double nnz = st.data.graph.num_edges();
  r.stamp("workload.threads", s.threads);
  r.stamp("workload.vertices", n);
  r.stamp("workload.edges", nnz);
  r.stamp("workload.in_dim", static_cast<double>(s.in_dim));
  r.stamp("workload.hidden", static_cast<double>(s.hidden));
  // Computed working set of the hidden-width aggregation: its n x hidden
  // operand plus its n x hidden output, and the in-CSR it streams.
  const double ws = 2.0 * n * s.hidden * 4 + nnz * sizeof(graph::vid_t) +
                    (n + 1) * 8;
  r.stamp("workload.working_set_bytes_computed", ws);
  r.stamp("workload.working_set_exceeds_llc",
          std::string(ws > static_cast<double>(llc_bytes()) ? "true"
                                                            : "false"));
}

void run_train(const TrainSpec& spec_in, const RunConfig& cfg, Report& r) {
  const TrainSpec spec = scaled(spec_in, cfg.tiny);
  Spans spans;  // disabled: untraced timing only
  std::unique_ptr<TrainState> st;

  if (!cfg.trace) {
    // Built first, so its tables sit apart from the workload's allocations.
    HostRef ref(cfg.tiny);
    // Set-up, three times: graph generation + CSR build + model init.
    std::vector<double> setup;
    for (int i = 0; i < 3; ++i) {
      st.reset();
      const double t0 = now_s();
      st = std::make_unique<TrainState>(spec, cfg.seed);
      setup.push_back(now_s() - t0);
    }
    stamp_train(spec, *st, r);
    double acc = 0.0;
    epoch(*st, spans);  // warm-up, not timed
    infer(*st, spans, &acc);
    ref.cpu_s(spec.threads);

    // Each measured epoch is followed by the reference job.
    const double t_start = now_s();
    std::vector<double> epochs, epoch_cpu, losses, infers, infer_cpu;
    std::vector<double> ref_ms, cpu_vs_ref;
    while (epochs.size() < static_cast<std::size_t>(kMinOps) ||
           now_s() - t_start < 0.6 * cfg.seconds) {
      const OpResult e = epoch(*st, spans);
      const double ref_s = ref.cpu_s(spec.threads);
      r.op(e.ok, "epoch with non-finite loss or outputs");
      epochs.push_back(e.seconds);
      epoch_cpu.push_back(e.cpu_s);
      losses.push_back(e.loss);
      ref_ms.push_back(ref_s * 1e3);
      cpu_vs_ref.push_back(e.cpu_s / ref_s);
    }
    while (infers.size() < static_cast<std::size_t>(kMinOps) ||
           now_s() - t_start < cfg.seconds) {
      const OpResult e = infer(*st, spans, &acc);
      r.op(e.ok, "inference pass with non-finite outputs");
      infers.push_back(e.seconds);
      infer_cpu.push_back(e.cpu_s);
    }
    r.check(losses.back() < losses.front(),
            "training loss falls across the measured epochs");
    r.check(acc >= kAccFloor, "test accuracy above the floor");

    const auto ne = static_cast<std::int64_t>(epochs.size());
    const auto ni = static_cast<std::int64_t>(infers.size());
    const double n = st->data.graph.num_vertices();
    r.result("setup_s", median(setup), "s", 3);
    r.result("cpu_per_op_ref", median(cpu_vs_ref), "x", ne);
    r.detail("cpu_ms_per_op", median(epoch_cpu) * 1e3, "ms", ne);
    r.detail("ref_cpu_ms", median(ref_ms), "ms", ne);
    // The reference job's tables are resident from the start of the run;
    // what is left is the workload's own peak.
    r.result("peak_rss_mb", peak_rss_mib() - ref.resident_mib(), "MiB", 1);
    r.detail("epoch_s", median(epochs), "s", ne);
    r.detail("epoch_s.max", quantile(epochs, 1.0), "s", ne);
    r.detail("vertices_per_s", n / median(epochs), "1/s", ne);
    r.detail("infer_s", median(infers), "s", ni);
    r.detail("infer_s.max", quantile(infers, 1.0), "s", ni);
    r.detail("infer_cpu_s", median(infer_cpu), "s", ni);
    r.detail("loss.first", losses.front(), "nats", 1);
    r.detail("loss.last", losses.back(), "nats", 1);
    r.detail("test_accuracy", acc, "ratio", 1);
    r.detail("test_accuracy.floor", kAccFloor, "ratio", 1);
    r.detail("peak_bytes_planned", st->ctx.peak_bytes, "bytes", 1);
    return;
  }

  // Traced run: per-layer metrics.
  declare_layer_metrics(r);
  const double triad = triad_gbps(r, 4, 5, cfg.tiny);
  r.result("host.triad_gbps", triad, "GB/s", 5);
  st = std::make_unique<TrainState>(spec, cfg.seed);
  stamp_train(spec, *st, r);
  double acc = 0.0;
  epoch(*st, spans);  // warm-up
  infer(*st, spans, &acc);

  // Epochs untraced then traced, in equal number, for the tracing overhead;
  // a second warm-up epoch sizes that number to the time budget.
  const double t_est = now_s();
  r.op(epoch(*st, spans).ok, "warm-up epoch");
  const int k = std::clamp(
      static_cast<int>(cfg.seconds / 3 / (now_s() - t_est)), 2, 8);
  std::vector<double> untraced, traced;
  for (int i = 0; i < k; ++i) {
    const OpResult e = epoch(*st, spans);
    r.op(e.ok, "untraced epoch");
    untraced.push_back(e.seconds);
  }

  double wall = 0.0;
  {
    obs::TraceSession session;
    spans.enabled = true;
    const double t0 = now_s();
    for (int i = 0; i < k; ++i) {
      const OpResult e = epoch(*st, spans);
      r.op(e.ok, "traced epoch");
      traced.push_back(e.seconds);
    }
    r.result("minidgl.peak_bytes", st->ctx.peak_bytes, "bytes", 1);
    for (int i = 0; i < k; ++i)
      r.op(infer(*st, spans, &acc).ok, "traced inference pass");
    if (spec.block_forward) {
      // One sampled block batch through the same model (fanouts {10, 10}).
      sample::NeighborSampler sampler(st->data.graph.in_csr(),
                                      {{10, 10}, false, cfg.seed});
      std::vector<graph::vid_t> seeds(
          st->data.test_rows.begin(),
          st->data.test_rows.begin() +
              std::min<std::size_t>(1024, st->data.test_rows.size()));
      for (int i = 0; i < 3; ++i) {
        sample::MinibatchBlocks mfg;
        tensor::Tensor feats;
        {
          Spans::Scope s(spans, "sample.sample");
          mfg = sampler.sample(seeds, static_cast<std::uint64_t>(i),
                               spec.threads);
        }
        {
          Spans::Scope s(spans, "sample.gather");
          feats = sample::gather_rows(st->data.features, mfg.input_nodes(),
                                      spec.threads);
        }
        minidgl::Var out;
        {
          Spans::Scope s(spans, "minidgl.block_forward");
          out = st->model.forward(
              st->ctx, mfg, minidgl::make_leaf(std::move(feats), false));
        }
        r.op(all_finite(out->value().data(), out->value().numel()),
             "block forward with non-finite outputs");
      }
    }
    wall += now_s() - t0;
    ProbeSpec ps;
    ps.graph = &st->data.graph;
    ps.features = &st->data.features;
    // GCN transforms before it aggregates and GAT aggregates the
    // transformed rows, so both aggregate at the hidden width.
    ps.agg_width = spec.hidden;
    ps.in_dim = spec.in_dim;
    ps.out_dim = spec.hidden;
    ps.threads = spec.threads;
    ps.fanouts = {10, 10};
    ps.seed = cfg.seed;
    ps.tiny = cfg.tiny;
    wall += run_layer_probes(ps, spans, r, triad);
    spans.enabled = false;
    r.stamp("obs.dropped_spans",
            static_cast<double>(obs::trace_dropped_spans()));
  }
  r.check(acc >= kAccFloor, "test accuracy above the floor");

  auto med_self = [&](const char* name) { return median(spans.self_times(name)); };
  // A span name appears twice per epoch for the optimiser (zero_grad and
  // step); the per-epoch figure is their sum.
  const auto optim = spans.self_times("minidgl.optim");
  std::vector<double> optim_epoch;
  for (std::size_t i = 0; i + 1 < optim.size(); i += 2)
    optim_epoch.push_back(optim[i] + optim[i + 1]);
  r.result("minidgl.forward_s", med_self("minidgl.forward"), "s", k);
  r.result("minidgl.loss_s", med_self("minidgl.loss"), "s", k);
  r.result("minidgl.backward_s", med_self("minidgl.backward"), "s", k);
  r.result("minidgl.optim_s", median(optim_epoch), "s", k);
  r.detail("minidgl.infer_s", med_self("minidgl.infer"), "s", k);
  if (spec.block_forward)
    r.result("minidgl.block_forward_s", med_self("minidgl.block_forward"), "s",
             3);
  report_span_summary(r, spans, wall, median(untraced), median(traced));
}

}  // namespace

void run_gcn_train(const RunConfig& cfg, Report& r) {
  run_train({"gcn", 327680, 8, 32, 128, 16, 4, true}, cfg, r);
}

void run_gat_train(const RunConfig& cfg, Report& r) {
  run_train({"gat", 65536, 32, 128, 128, 16, 4, false}, cfg, r);
}

}  // namespace pb
