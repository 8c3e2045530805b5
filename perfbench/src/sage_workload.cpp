// sage-minibatch: sampled GraphSAGE-mean inference through
// Trainer::infer_minibatch (default options: pipelined) over a fixed seed
// set, at 4 threads.

#include <algorithm>
#include <cmath>
#include <memory>

#include "minidgl/train.hpp"
#include "obs/trace.hpp"
#include "sample/feature_loader.hpp"
#include "sample/neighbor_sampler.hpp"
#include "workloads.hpp"

namespace pb {

using namespace featgraph;

namespace {

struct SageSpec {
  int log2_n = 18;
  double avg_degree = 16;
  std::int64_t feat = 32;
  std::int64_t hidden = 32;
  std::int64_t classes = 16;
  std::vector<std::int64_t> fanouts{25, 10};
  std::int64_t batch = 1024;
  std::int64_t num_seeds = 16384;  // the fixed seed set, from the test split
  int threads = 4;
  int fit_log2_n = 14;  // model init: fit on a small graph of the same kind
  int fit_epochs = 8;
};

constexpr double kPIn = 0.8;
constexpr float kSignal = 2.0f;
constexpr float kFitLr = 0.03f;
constexpr double kAccFloor = 0.4;  // chance is 1/16

SageSpec scaled(bool tiny) {
  SageSpec s;
  if (tiny) {
    s.log2_n = 12;
    s.avg_degree = 8;
    s.num_seeds = 512;
    s.batch = 128;
    s.fit_log2_n = 10;
  }
  return s;
}

struct SageState {
  minidgl::ClassificationData data;
  minidgl::Model model;
  std::unique_ptr<minidgl::Trainer> trainer;
  std::vector<std::int64_t> rows;

  SageState(const SageSpec& s, std::uint64_t seed)
      : data(minidgl::make_sbm_classification(
            static_cast<graph::vid_t>(1) << s.log2_n, s.avg_degree, s.classes,
            kPIn, s.feat, kSignal, seed)),
        model("sage-mean", s.feat, s.hidden, s.classes, seed * 31 + 7) {
    minidgl::ExecContext ctx;
    ctx.num_threads = s.threads;
    {
      // Model init: a few full-graph epochs on a small graph drawn from the
      // same generator. Model copies share parameters, so the inference
      // trainer below serves the fitted weights.
      const minidgl::ClassificationData fit = minidgl::make_sbm_classification(
          static_cast<graph::vid_t>(1) << s.fit_log2_n, s.avg_degree,
          s.classes, kPIn, s.feat, kSignal, seed ^ 0xf17);
      minidgl::Trainer fitter(fit, model, ctx, kFitLr);
      minidgl::train(fitter, s.fit_epochs);
    }
    trainer = std::make_unique<minidgl::Trainer>(data, model, ctx);
    const auto m = std::min<std::size_t>(
        static_cast<std::size_t>(s.num_seeds), data.test_rows.size());
    rows.assign(data.test_rows.begin(), data.test_rows.begin() + m);
  }
};

/// Every row is a finite log-probability vector (its exp sums to 1).
bool valid_log_probs(const tensor::Tensor& lp) {
  for (std::int64_t i = 0; i < lp.rows(); ++i) {
    const float* row = lp.row(i);
    if (!all_finite(row, lp.row_size())) return false;
    double sum = 0.0;
    for (std::int64_t j = 0; j < lp.row_size(); ++j) sum += std::exp(row[j]);
    if (std::abs(sum - 1.0) > 1e-3) return false;
  }
  return true;
}

minidgl::MinibatchInferOptions infer_options(const SageSpec& s) {
  minidgl::MinibatchInferOptions o;
  o.sampler.fanouts = s.fanouts;
  o.batch_size = s.batch;
  return o;
}

void stamp_sage(const SageSpec& s, const SageState& st, Report& r) {
  const double n = st.data.graph.num_vertices();
  const double nnz = st.data.graph.num_edges();
  r.stamp("workload.threads", s.threads);
  r.stamp("workload.vertices", n);
  r.stamp("workload.edges", nnz);
  r.stamp("workload.seed_set", static_cast<double>(st.rows.size()));
  r.stamp("workload.batch", static_cast<double>(s.batch));
  // Computed working set: the feature matrix the gathers index plus the
  // in-CSR the sampler walks.
  const double ws = n * s.feat * 4 + nnz * sizeof(graph::vid_t) + (n + 1) * 8;
  r.stamp("workload.working_set_bytes_computed", ws);
  r.stamp("workload.working_set_exceeds_llc",
          std::string(ws > static_cast<double>(llc_bytes()) ? "true"
                                                            : "false"));
}

}  // namespace

void run_sage_minibatch(const RunConfig& cfg, Report& r) {
  const SageSpec spec = scaled(cfg.tiny);
  const minidgl::MinibatchInferOptions opts = infer_options(spec);
  std::unique_ptr<SageState> st;

  auto check_pass = [&](const minidgl::MinibatchInferResult& res,
                        std::size_t expect_rows) {
    const bool ok = res.log_probs.rows() ==
                        static_cast<std::int64_t>(expect_rows) &&
                    valid_log_probs(res.log_probs);
    r.op(ok, "minibatch inference with invalid log-probabilities");
    return ok;
  };

  if (!cfg.trace) {
    // Built first, so its tables sit apart from the workload's allocations.
    HostRef ref(cfg.tiny);
    std::vector<double> setup;
    for (int i = 0; i < 3; ++i) {
      st.reset();
      const double t0 = now_s();
      st = std::make_unique<SageState>(spec, cfg.seed);
      setup.push_back(now_s() - t0);
    }
    stamp_sage(spec, *st, r);
    minidgl::Trainer& tr = *st->trainer;
    tr.infer_minibatch(opts, st->rows);  // warm-up
    ref.cpu_s(spec.threads);

    // Passes over the whole seed set, each followed by the reference job.
    // A batch's latency is the time it spends being sampled and gathered
    // plus the time its block forward takes (queue waits excluded),
    // averaged over the pass.
    const double t_start = now_s();
    std::vector<double> rate, batch_ms, batch_cpu_ms, ref_ms, cpu_vs_ref;
    double min_acc = 1.0;
    while (rate.size() < 3 || now_s() - t_start < cfg.seconds) {
      const double cpu0 = process_cpu_s();
      const auto res = tr.infer_minibatch(opts, st->rows);
      const double cpu_s = process_cpu_s() - cpu0;
      const double ref_s = ref.cpu_s(spec.threads);
      check_pass(res, st->rows.size());
      const auto batches = static_cast<double>(res.pipeline.batches);
      rate.push_back(static_cast<double>(st->rows.size()) / res.seconds);
      batch_ms.push_back((res.pipeline.produce_seconds +
                          res.pipeline.consume_seconds) /
                         batches * 1e3);
      batch_cpu_ms.push_back(cpu_s / batches * 1e3);
      ref_ms.push_back(ref_s * 1e3);
      cpu_vs_ref.push_back(cpu_s / batches / ref_s);
      min_acc = std::min(min_acc, res.accuracy);
    }
    r.check(min_acc >= kAccFloor, "minibatch accuracy above the floor");

    const auto np = static_cast<std::int64_t>(rate.size());
    r.result("setup_s", median(setup), "s", 3);
    r.result("cpu_per_op_ref", median(cpu_vs_ref), "x", np);
    r.detail("cpu_ms_per_op", median(batch_cpu_ms), "ms", np);
    r.detail("ref_cpu_ms", median(ref_ms), "ms", np);
    // The reference job's tables are resident from the start of the run;
    // what is left is the workload's own peak.
    r.result("peak_rss_mb", peak_rss_mib() - ref.resident_mib(), "MiB", 1);
    r.detail("seeds_per_s", median(rate), "1/s", np);
    r.detail("seeds_per_s.min", quantile(rate, 0.0), "1/s", np);
    r.detail("batch_ms", median(batch_ms), "ms", np);
    r.detail("batch_ms.max", quantile(batch_ms, 1.0), "ms", np);
    r.detail("accuracy.min", min_acc, "ratio", np);
    r.detail("accuracy.floor", kAccFloor, "ratio", 1);
    return;
  }

  // Traced run.
  declare_layer_metrics(r);
  const double triad = triad_gbps(r, 4, 5, cfg.tiny);
  r.result("host.triad_gbps", triad, "GB/s", 5);
  st = std::make_unique<SageState>(spec, cfg.seed);
  stamp_sage(spec, *st, r);
  minidgl::Trainer& tr = *st->trainer;
  tr.infer_minibatch(opts, st->rows);  // warm-up

  const int k = cfg.tiny ? 2 : 4;
  std::vector<double> untraced, traced, serial;
  double hit_rate = 0.0;
  for (int i = 0; i < k; ++i) {
    const auto res = tr.infer_minibatch(opts, st->rows);
    check_pass(res, st->rows.size());
    untraced.push_back(res.seconds);
  }

  Spans spans;
  double wall = 0.0;
  {
    obs::TraceSession session;
    spans.enabled = true;
    const double t0 = now_s();
    minidgl::MinibatchInferOptions serial_opts = opts;
    serial_opts.pipelined = false;
    for (int i = 0; i < k; ++i) {
      minidgl::MinibatchInferResult res;
      // Whole passes run sampling, gather and block forward inside one
      // minidgl entry point, so their time is credited to minidgl.
      {
        Spans::Scope s(spans, "minidgl.infer_minibatch");
        res = tr.infer_minibatch(opts, st->rows);
      }
      check_pass(res, st->rows.size());
      traced.push_back(res.seconds);
      const double calls =
          static_cast<double>(res.schedule_cache_hits + res.schedule_cache_misses);
      hit_rate = calls > 0 ? res.schedule_cache_hits / calls : 0.0;
      {
        Spans::Scope s(spans, "minidgl.infer_minibatch_serial");
        res = tr.infer_minibatch(serial_opts, st->rows);
      }
      check_pass(res, st->rows.size());
      serial.push_back(res.seconds);
    }

    // The same batches taken apart: sample, gather and block forward, each
    // timed from outside (serially, so each stage's self time is its own).
    sample::NeighborSampler sampler(st->data.graph.in_csr(), opts.sampler);
    sample::BlockScheduleCache cache;
    minidgl::ExecContext& ctx = tr.context();
    ctx.schedule_cache = &cache;
    const auto nb = static_cast<std::size_t>(spec.batch);
    for (std::size_t lo = 0, b = 0; lo < st->rows.size(); lo += nb, ++b) {
      std::vector<graph::vid_t> seeds(
          st->rows.begin() + lo,
          st->rows.begin() + std::min(lo + nb, st->rows.size()));
      sample::MinibatchBlocks mfg;
      tensor::Tensor feats;
      {
        Spans::Scope s(spans, "sample.sample");
        mfg = sampler.sample(seeds, b, spec.threads);
      }
      {
        Spans::Scope s(spans, "sample.gather");
        feats = sample::gather_rows(st->data.features, mfg.input_nodes(),
                                    spec.threads);
      }
      minidgl::Var out;
      {
        Spans::Scope s(spans, "minidgl.block_forward");
        out = tr.model().forward(ctx, mfg,
                                 minidgl::make_leaf(std::move(feats), false));
      }
      r.op(valid_log_probs(out->value()), "block forward log-probabilities");
    }
    ctx.schedule_cache = nullptr;
    const auto bf = spans.self_times("minidgl.block_forward");
    r.result("minidgl.block_forward_s", median(bf), "s",
             static_cast<std::int64_t>(bf.size()));
    wall += now_s() - t0;

    ProbeSpec ps;
    ps.graph = &st->data.graph;
    ps.features = &st->data.features;
    ps.agg_width = spec.feat;  // SAGE aggregates before its transform
    ps.in_dim = spec.feat;
    ps.out_dim = spec.hidden;
    ps.threads = spec.threads;
    ps.fanouts = spec.fanouts;
    ps.batch = spec.batch;
    ps.seed = cfg.seed;
    ps.tiny = cfg.tiny;
    wall += run_layer_probes(ps, spans, r, triad);
    spans.enabled = false;
    r.stamp("obs.dropped_spans",
            static_cast<double>(obs::trace_dropped_spans()));
  }
  r.result("sample.pipeline_speedup", median(serial) / median(traced), "x", k);
  r.result("sample.schedule_cache_hit_rate", hit_rate, "ratio", 1);
  report_span_summary(r, spans, wall, median(untraced), median(traced));
}

}  // namespace pb
