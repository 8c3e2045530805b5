// serve-openloop: requests of 1-4 seeds (half from a 1% hot set, half
// uniform) on an open-loop schedule of exponential inter-arrival times,
// stepping through a fixed ladder of rates. Each request is timed from when
// it was DUE. The untraced run replays each rung through serve::replay_trace
// (the live Server's batching, real service times, a simulated arrival
// clock); the traced run also drives a live Server for one rung to measure
// how late the generator sends.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

#include "minidgl/train.hpp"
#include "obs/trace.hpp"
#include "serve/coalescer.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace pb {

using namespace featgraph;

namespace {

struct ServeSpec {
  int log2_n = 16;
  double avg_degree = 32;
  std::int64_t feat = 64;
  std::int64_t hidden = 64;
  std::int64_t classes = 16;
  std::vector<std::int64_t> fanouts{10, 10};
  double hot_frac = 0.01;
  int max_request_seeds = 4;
};

// The rate ladder: rung k offers kLadderBase * kLadderStep^k requests/s.
// lo and hi sit near 30% and 70% of the knee (about 3000 requests/s on a
// 4-vCPU AVX-512 host when the ladder was fixed); they stay fixed so later
// runs compare like for like.
constexpr double kLadderBase = 350.0;
constexpr double kLadderStep = 1.05;  // rungs 5% apart
constexpr int kLoRung = 20;
constexpr int kHiRung = 37;
constexpr double kLimitMs = 25.0;     // p99 latency limit for max_qps
constexpr std::int64_t kCacheRows = 4096;  // Trainer::serve_requests default
constexpr int kCompared = 64;         // requests checked against solo serving
constexpr int kHiSegments = 5;        // the hi rung, replayed in segments
constexpr int kLanes = 4;             // concurrent lanes of the CPU figure
constexpr int kLaneSegments = 12;     // hi-rung replays per lane, 1 warm-up

double rung_rate(int k) { return kLadderBase * std::pow(kLadderStep, k); }

struct ServeState {
  std::shared_ptr<const minidgl::ClassificationData> shared;
  const minidgl::ClassificationData& data;
  std::unique_ptr<minidgl::Trainer> trainer;
  std::unique_ptr<sample::NeighborSampler> sampler;
  sample::BlockScheduleCache schedule_cache;
  std::unique_ptr<serve::FeatureCache> cache;
  std::unique_ptr<serve::ServingEngine> engine;
  std::vector<graph::vid_t> hot;

  ServeState(const ServeSpec& s, std::uint64_t seed)
      : ServeState(s, seed,
                   std::make_shared<const minidgl::ClassificationData>(
                       minidgl::make_sbm_classification(
                           static_cast<graph::vid_t>(1) << s.log2_n,
                           s.avg_degree, s.classes, 0.8, s.feat, 2.0f,
                           seed))) {}

  /// Another serving lane over the same graph and features (read only):
  /// the same model, sampler and hot set as the state built from `seed`,
  /// and its own trainer context, feature cache and engine.
  ServeState(const ServeSpec& s, std::uint64_t seed,
             std::shared_ptr<const minidgl::ClassificationData> d)
      : shared(std::move(d)), data(*shared) {
    minidgl::ExecContext ctx;
    ctx.num_threads = 1;  // the serving lane's default
    trainer = std::make_unique<minidgl::Trainer>(
        data,
        minidgl::Model("sage-mean", s.feat, s.hidden, s.classes,
                       seed * 31 + 7),
        ctx);
    sampler = std::make_unique<sample::NeighborSampler>(
        data.graph.in_csr(), sample::SamplerConfig{s.fanouts, false, seed});
    cache = std::make_unique<serve::FeatureCache>(kCacheRows, s.feat);
    engine = std::make_unique<serve::ServingEngine>(
        *sampler, data.features,
        trainer->make_serve_compute(&schedule_cache, false),
        serve::ServeOptions{}, cache.get());
    support::Rng rng(seed, 0x407);
    const auto n = static_cast<std::uint64_t>(data.graph.num_vertices());
    const auto num_hot = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(s.hot_frac * static_cast<double>(n)));
    for (std::uint64_t i = 0; i < num_hot; ++i)
      hot.push_back(static_cast<graph::vid_t>(rng.uniform(n)));
  }
};

/// An open-loop arrival schedule: due times (seconds from the rung start)
/// and each request's duplicate-free seeds.
struct Schedule {
  std::vector<double> due;
  std::vector<std::vector<graph::vid_t>> seeds;
};

Schedule make_schedule(const ServeSpec& s, const ServeState& st, double rate,
                       double duration, std::uint64_t seed,
                       std::uint64_t stream) {
  support::Rng rng(seed, stream);
  const auto n = static_cast<std::uint64_t>(st.data.graph.num_vertices());
  Schedule sch;
  double t = -std::log(1.0 - rng.uniform_real()) / rate;
  while (t < duration) {
    std::vector<graph::vid_t> req;
    const int k = 1 + static_cast<int>(rng.uniform(
                          static_cast<std::uint64_t>(s.max_request_seeds)));
    while (static_cast<int>(req.size()) < k) {
      const graph::vid_t v =
          rng.uniform_real() < 0.5
              ? st.hot[rng.uniform(st.hot.size())]
              : static_cast<graph::vid_t>(rng.uniform(n));
      if (std::find(req.begin(), req.end(), v) == req.end()) req.push_back(v);
    }
    sch.due.push_back(t);
    sch.seeds.push_back(std::move(req));
    t += -std::log(1.0 - rng.uniform_real()) / rate;
  }
  return sch;
}

struct Rung {
  double rate = 0.0;
  std::size_t requests = 0;
  std::int64_t failed = 0;
  std::vector<double> lat_ms;  // per request, from its due time
  double p50_ms = 0.0, p99_ms = 0.0, tail_p50_ms = 0.0;
  double lag_p99_ms = 0.0;
  double achieved_qps = 0.0;
  // Requests per second of serving-lane time (replayed rungs only).
  double served_per_busy_s = 0.0;
  bool pass = false;
  std::vector<tensor::Tensor> kept;  // outputs of the requests in `keep`
};

/// Latency summary of one rung. `lat_ms[i]` is request i's latency from
/// its due time; a failed request misses the limit whatever its latency.
Rung summarize(double rate, std::vector<double> lat_ms,
               const std::vector<char>& ok, double elapsed_s, Report& r) {
  Rung rung;
  rung.rate = rate;
  rung.requests = lat_ms.size();
  const std::size_t n = lat_ms.size();
  std::vector<double> tail;
  for (std::size_t i = 0; i < n; ++i) {
    r.op(ok[i] != 0, "request failed or returned invalid rows");
    if (!ok[i]) {
      ++rung.failed;
      lat_ms[i] = std::max(lat_ms[i], 1e9);
    }
    if (i >= n - n / 10) tail.push_back(lat_ms[i]);
  }
  rung.p50_ms = serve::percentile(lat_ms, 50);
  rung.p99_ms = serve::percentile(lat_ms, 99);
  rung.tail_p50_ms = serve::percentile(tail, 50);
  rung.achieved_qps = static_cast<double>(n) / elapsed_s;
  // Meets the limit with no growing backlog: the last tenth of the rung
  // still completes in time at the median.
  rung.pass = rung.failed == 0 && rung.p99_ms <= kLimitMs &&
              rung.tail_p50_ms <= kLimitMs;
  rung.lat_ms = std::move(lat_ms);
  return rung;
}

/// The segments of one rung taken as a whole: pooled percentiles, and a
/// pass only when the pool meets the limit and no segment backs up.
Rung pooled(const std::vector<Rung>& segs) {
  Rung m;
  m.rate = segs.front().rate;
  m.pass = true;
  double elapsed = 0.0;
  for (const Rung& g : segs) {
    m.requests += g.requests;
    m.failed += g.failed;
    m.lat_ms.insert(m.lat_ms.end(), g.lat_ms.begin(), g.lat_ms.end());
    elapsed += static_cast<double>(g.requests) / g.achieved_qps;
    m.pass = m.pass && g.tail_p50_ms <= kLimitMs;
  }
  m.p50_ms = serve::percentile(m.lat_ms, 50);
  m.p99_ms = serve::percentile(m.lat_ms, 99);
  m.achieved_qps = static_cast<double>(m.requests) / elapsed;
  m.pass = m.pass && m.failed == 0 && m.p99_ms <= kLimitMs;
  return m;
}

bool valid_rows(const tensor::Tensor& out, std::size_t seeds) {
  return out.rows() == static_cast<std::int64_t>(seeds) &&
         all_finite(out.data(), out.numel());
}

/// The schedule as a replay_trace input; request ids are schedule indices.
std::vector<serve::TraceRequest> as_trace(const Schedule& sch) {
  std::vector<serve::TraceRequest> trace(sch.due.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].request = {static_cast<std::int64_t>(i), sch.seeds[i]};
    trace[i].arrival_s = sch.due[i];
  }
  return trace;
}

/// Replays one rung's schedule through serve::replay_trace on the shared
/// engine: batches form exactly as the live Server forms them, service times
/// are real serve_batch wall times, the arrival clock is simulated.
Rung replay_rung(ServeState& st, const Schedule& sch, double rate,
                 const std::vector<std::size_t>& keep, Report& r) {
  const std::vector<serve::TraceRequest> trace = as_trace(sch);
  const double t0 = now_s();
  serve::TraceResult res = serve::replay_trace(*st.engine, trace);
  const double busy_s = now_s() - t0;  // the replay never idles
  std::vector<double> lat(trace.size());
  std::vector<char> ok(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    lat[i] = res.latency_s[i] * 1e3;
    ok[i] = valid_rows(res.outputs[i], sch.seeds[i].size());
  }
  Rung rung = summarize(rate, std::move(lat), ok, res.makespan_s, r);
  rung.served_per_busy_s = static_cast<double>(trace.size()) / busy_s;
  for (const std::size_t i : keep) rung.kept.push_back(std::move(res.outputs[i]));
  return rung;
}

/// One batch as the admission window forms it: the window opens at the
/// oldest pending arrival, request i, and closes latency_bound later or
/// when the lane frees up, whichever is later; a filled cap cuts it early.
struct Admitted {
  std::vector<serve::Request> requests;  // requests [i, end) of the schedule
  std::size_t end = 0;
  double start = 0.0;  // when the batch starts on the lane
};

Admitted admit(const Schedule& sch, std::size_t i, double lane_free,
               const serve::ServeOptions& opt) {
  Admitted a;
  a.start = std::max(lane_free, sch.due[i] + opt.latency_bound_s);
  std::int64_t seeds_taken = 0;
  double capped_at = -1.0;
  std::size_t j = i;
  while (j < sch.due.size() && sch.due[j] <= a.start) {
    const auto sz = static_cast<std::int64_t>(sch.seeds[j].size());
    if (!a.requests.empty() && seeds_taken + sz > opt.max_seeds_per_batch) {
      capped_at = sch.due[j];
      break;
    }
    seeds_taken += sz;
    a.requests.push_back({static_cast<std::int64_t>(j), sch.seeds[j]});
    ++j;
    if (static_cast<int>(a.requests.size()) >= opt.max_requests_per_batch) {
      capped_at = sch.due[j - 1];
      break;
    }
  }
  if (capped_at >= 0.0) a.start = std::max(lane_free, capped_at);
  a.end = j;
  return a;
}

/// CPU figures of the concurrent lanes, one value per (lane, schedule).
struct LaneCpu {
  std::vector<double> cpu_ms;      // CPU milliseconds per request
  std::vector<double> ref_ms;      // the reference job, run right after
  std::vector<double> cpu_vs_ref;  // CPU per request over the job's CPU
};

/// kLanes serving lanes at once, each a 1-thread lane with its own engine
/// over the shared graph and features, serving its own hi-rung schedules
/// and running the reference job after each. A schedule's batches are the
/// admission windows alone (a lane that always keeps up), formed before
/// the clock starts: with replay_trace's measured service times a slow
/// host grew the backlog, and so the batches, and moved CPU per request
/// with it. Times come from the lane thread's CPU clock; the first
/// schedule of each lane is not counted (it warms the lane's cache). Lanes
/// on every core sample every core's state at once.
LaneCpu concurrent_cpu(const ServeSpec& s, const ServeState& st,
                       std::uint64_t seed,
                       const std::vector<std::vector<Schedule>>& lane_schedules,
                       HostRef& ref, Report& r) {
  const std::size_t lanes = lane_schedules.size();
  std::vector<std::unique_ptr<ServeState>> replicas(lanes);
  for (auto& rep : replicas)
    rep = std::make_unique<ServeState>(s, seed, st.shared);
  std::vector<LaneCpu> per_lane(lanes);
  std::vector<std::int64_t> served(lanes, 0), bad(lanes, 0);
  auto lane = [&](std::size_t l) {
    ServeState& rep = *replicas[l];
    for (std::size_t k = 0; k < lane_schedules[l].size(); ++k) {
      const Schedule& sch = lane_schedules[l][k];
      std::vector<std::vector<serve::Request>> batches;
      for (std::size_t i = 0; i < sch.due.size();) {
        Admitted a = admit(sch, i, 0.0, rep.engine->options());
        i = a.end;
        batches.push_back(std::move(a.requests));
      }
      const std::vector<std::vector<serve::Request>> kept = batches;
      std::vector<std::vector<tensor::Tensor>> outs;
      outs.reserve(batches.size());
      const double c0 = thread_cpu_s();
      for (auto& b : batches) outs.push_back(rep.engine->serve_batch(std::move(b)));
      const double per_request =
          (thread_cpu_s() - c0) / static_cast<double>(sch.due.size());
      const double ref_s = ref.cpu_s(1);
      served[l] += static_cast<std::int64_t>(sch.due.size());
      for (std::size_t b = 0; b < kept.size(); ++b)
        for (std::size_t q = 0; q < kept[b].size(); ++q)
          if (q >= outs[b].size() ||
              !valid_rows(outs[b][q], kept[b][q].seeds.size()))
            ++bad[l];
      if (k == 0) continue;  // warm-up: the lane's cache and memos fill
      per_lane[l].cpu_ms.push_back(per_request * 1e3);
      per_lane[l].ref_ms.push_back(ref_s * 1e3);
      per_lane[l].cpu_vs_ref.push_back(per_request / ref_s);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t l = 1; l < lanes; ++l) threads.emplace_back(lane, l);
  lane(0);
  for (auto& t : threads) t.join();
  LaneCpu all;
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::int64_t i = bad[l]; i < served[l]; ++i) r.op(true);
    for (std::int64_t i = 0; i < bad[l]; ++i)
      r.op(false, "concurrent lane returned invalid rows");
    const LaneCpu& p = per_lane[l];
    all.cpu_ms.insert(all.cpu_ms.end(), p.cpu_ms.begin(), p.cpu_ms.end());
    all.ref_ms.insert(all.ref_ms.end(), p.ref_ms.begin(), p.ref_ms.end());
    all.cpu_vs_ref.insert(all.cpu_vs_ref.end(), p.cpu_vs_ref.begin(),
                          p.cpu_vs_ref.end());
  }
  return all;
}

/// Drives one rung against a live Server: this thread is the generator; a
/// collector thread waits on the futures in order and stamps completions.
/// Both spin rather than sleep: on hosts where waking an idle CPU takes
/// milliseconds, a sleeping generator would send late and a sleeping
/// collector would stamp completions late.
Rung live_rung(ServeState& st, const Schedule& sch, double rate, Report& r) {
  const std::size_t n = sch.due.size();
  std::vector<std::future<tensor::Tensor>> futs(n);
  std::vector<double> done(n, 0.0), lag_ms(n, 0.0);
  std::vector<char> ok(n, 1);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> abandoned{false};

  serve::Server server(*st.engine);
  const double start = now_s() + 0.002;
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        if (abandoned.load(std::memory_order_acquire)) return;
      }
      while (futs[i].wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
      }
      try {
        const tensor::Tensor out = futs[i].get();
        done[i] = now_s();
        ok[i] = valid_rows(out, sch.seeds[i].size());
      } catch (...) {
        done[i] = now_s();
        ok[i] = 0;
      }
    }
  });
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const double due = start + sch.due[i];
      while (now_s() < due) {
      }
      futs[i] = server.submit(sch.seeds[i]);
      lag_ms[i] = (now_s() - due) * 1e3;
      submitted.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    // The collector must not outlive the futures it waits on.
    abandoned.store(true, std::memory_order_release);
    collector.join();
    throw;
  }
  collector.join();
  server.close();

  std::vector<double> lat(n);
  double last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    lat[i] = (done[i] - (start + sch.due[i])) * 1e3;
    last_done = std::max(last_done, done[i]);
  }
  Rung rung = summarize(rate, std::move(lat), ok, last_done - start, r);
  rung.lag_p99_ms = serve::percentile(lag_ms, 99);
  return rung;
}

void report_rung(Report& r, const std::string& tag, const Rung& g) {
  const auto n = static_cast<std::int64_t>(g.requests);
  r.detail("p50_ms." + tag, g.p50_ms, "ms", n);
  r.detail("p99_ms." + tag, g.p99_ms, "ms", n);
  r.detail("offered_qps." + tag, g.rate, "1/s", n);
  r.detail("achieved_qps." + tag, g.achieved_qps, "1/s", n);
}

struct ReplayResult {
  double wall_s = 0.0;
  double makespan_s = 0.0;
  double busy_s = 0.0;
  std::int64_t batches = 0, requests = 0, seed_rows = 0, shared_rows = 0;
  serve::FeatureCache::Stats cache;
};

/// Replays `sch` through the serving stages called one by one (coalesce ->
/// sample -> cached gather -> compute -> scatter_back), each in its span.
/// Batches form as replay_trace forms them: the window opens at the oldest
/// pending arrival, closes latency_bound later or when a cap fills, and
/// backlog joins the next batch; service times are real, the clock is
/// simulated. A fresh feature cache and schedule memo per replay.
ReplayResult replay(ServeState& st, const ServeSpec& s, const Schedule& sch,
                    Spans& spans, Report& r) {
  serve::FeatureCache cache(kCacheRows, s.feat);
  sample::BlockScheduleCache schedule_cache;
  const serve::BatchComputeFn compute =
      st.trainer->make_serve_compute(&schedule_cache, false);
  const serve::ServeOptions opt;
  ReplayResult res;
  const std::size_t n = sch.due.size();
  double lane_free = 0.0;
  const double w0 = now_s();
  for (std::size_t i = 0; i < n;) {
    Admitted a = admit(sch, i, lane_free, opt);
    const double s0 = now_s();
    serve::CoalescedBatch batch;
    sample::MinibatchBlocks mfg;
    tensor::Tensor feats, merged;
    std::vector<tensor::Tensor> outs;
    {
      Spans::Scope sc(spans, "serve.coalesce");
      batch = serve::coalesce(std::move(a.requests));
    }
    {
      Spans::Scope sc(spans, "sample.sample");
      mfg = st.sampler->sample(batch.seeds, opt.rng_stream, opt.num_threads);
    }
    {
      Spans::Scope sc(spans, "serve.gather");
      feats = cache.gather(st.data.features, mfg.input_nodes(),
                           opt.num_threads);
    }
    {
      Spans::Scope sc(spans, "minidgl.block_forward");
      merged = compute(mfg, std::move(feats));
    }
    {
      Spans::Scope sc(spans, "serve.scatter");
      outs = serve::scatter_back(batch, merged);
    }
    const double service = now_s() - s0;
    for (std::size_t k = 0; k < outs.size(); ++k)
      r.op(all_finite(outs[k].data(), outs[k].numel()),
           "replayed request with non-finite rows");
    res.busy_s += service;
    lane_free = a.start + service;
    ++res.batches;
    res.requests += static_cast<std::int64_t>(batch.requests.size());
    res.seed_rows += batch.total_request_seeds();
    res.shared_rows += batch.shared_seed_rows;
    i = a.end;
  }
  res.wall_s = now_s() - w0;
  res.makespan_s = lane_free;
  res.cache = cache.stats();
  return res;
}

void stamp_serve(const ServeSpec& s, const ServeState& st, Report& r) {
  const double n = st.data.graph.num_vertices();
  const double nnz = st.data.graph.num_edges();
  r.stamp("workload.threads", 1);  // serving lane; plus generator, collector
  r.stamp("workload.vertices", n);
  r.stamp("workload.edges", nnz);
  r.stamp("workload.feat", static_cast<double>(s.feat));
  r.stamp("workload.latency_limit_ms", kLimitMs);
  r.stamp("workload.lo_qps", rung_rate(kLoRung));
  r.stamp("workload.hi_qps", rung_rate(kHiRung));
  const double ws = n * s.feat * 4 + nnz * sizeof(graph::vid_t) + (n + 1) * 8;
  r.stamp("workload.working_set_bytes_computed", ws);
  r.stamp("workload.working_set_exceeds_llc",
          std::string(ws > static_cast<double>(llc_bytes()) ? "true"
                                                            : "false"));
}

}  // namespace

void run_serve_openloop(const RunConfig& cfg, Report& r) {
  ServeSpec spec;
  if (cfg.tiny) spec.log2_n = 11;
  std::unique_ptr<ServeState> st;
  // Rung lengths, in simulated seconds of arrivals, scale with the run:
  // lo a quarter of it, each hi segment a tenth, ladder rungs a sixteenth.
  const double long_rung = cfg.seconds / 4;
  const double short_rung = cfg.seconds / 16;
  const double hi_segment = cfg.seconds / 10;
  std::uint64_t stream = 1;
  auto schedule = [&](int k, double duration) {
    return make_schedule(spec, *st, rung_rate(k), duration, cfg.seed,
                         stream++);
  };

  if (!cfg.trace) {
    // Built first, so its tables sit apart from the workload's allocations.
    HostRef ref(cfg.tiny);
    std::vector<double> setup;
    for (int i = 0; i < 3; ++i) {
      st.reset();
      const double t0 = now_s();
      st = std::make_unique<ServeState>(spec, cfg.seed);
      setup.push_back(now_s() - t0);
    }
    stamp_serve(spec, *st, r);
    // Warm-up rung, not reported.
    replay_rung(*st, schedule(kLoRung, short_rung), rung_rate(kLoRung), {}, r);

    const double t_start = now_s();
    const Rung lo = replay_rung(*st, schedule(kLoRung, long_rung),
                                rung_rate(kLoRung), {}, r);
    // The hi rung runs as kHiSegments replays; the per-request figures are
    // medians over segments, so one stalled stretch moves them little.
    const Schedule hi_sch = schedule(kHiRung, hi_segment);
    std::vector<std::size_t> keep;
    support::Rng pick(cfg.seed, 0xc0);
    for (int i = 0; i < kCompared && !hi_sch.due.empty(); ++i)
      keep.push_back(pick.uniform(hi_sch.due.size()));
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    std::vector<Rung> segs;
    segs.push_back(replay_rung(*st, hi_sch, rung_rate(kHiRung), keep, r));
    while (segs.size() < static_cast<std::size_t>(kHiSegments))
      segs.push_back(replay_rung(*st, schedule(kHiRung, hi_segment),
                                 rung_rate(kHiRung), {}, r));
    const Rung hi = pooled(segs);
    std::vector<double> seg_p50, seg_capacity;
    for (const Rung& g : segs) {
      seg_p50.push_back(g.p50_ms);
      seg_capacity.push_back(g.served_per_busy_s);
    }

    // Ladder walk from hi. Upward while rungs pass, stopping at the second
    // failing rung in a row (one host stall can sink a single rung near the
    // knee) or when the time budget runs out; downward while they fail.
    // max_qps is the achieved rate of the highest passing rung.
    double max_qps = hi.pass ? hi.achieved_qps : 0.0;
    int top = hi.pass ? kHiRung : -1;
    const int dir = hi.pass ? 1 : -1;
    int rungs = 1, fails_in_row = 0;
    for (int k = kHiRung + dir; k >= 0 && now_s() - t_start < cfg.seconds;
         k += dir) {
      const Rung g =
          replay_rung(*st, schedule(k, short_rung), rung_rate(k), {}, r);
      ++rungs;
      r.detail("ladder.p99_ms.rung" + std::to_string(k), g.p99_ms, "ms",
               static_cast<std::int64_t>(g.requests));
      fails_in_row = g.pass ? 0 : fails_in_row + 1;
      if (g.pass) {
        max_qps = g.achieved_qps;
        top = k;
        if (dir < 0) break;
      } else if (dir > 0 && fails_in_row == 2) {
        break;
      }
    }

    // Coalescing contract: the compared requests, served solo
    // (max_requests_per_batch = 1, no cache), are bit-identical.
    serve::ServeOptions solo_opt;
    solo_opt.max_requests_per_batch = 1;
    sample::BlockScheduleCache solo_cache;
    serve::ServingEngine solo(*st->sampler, st->data.features,
                              st->trainer->make_serve_compute(&solo_cache, false),
                              solo_opt);
    std::int64_t mismatched = 0;
    for (std::size_t c = 0; c < keep.size(); ++c) {
      serve::Request req{static_cast<std::int64_t>(c), hi_sch.seeds[keep[c]]};
      const auto out = solo.serve_batch({std::move(req)});
      const tensor::Tensor& live = segs.front().kept[c];
      const bool same =
          live.defined() && out[0].numel() == live.numel() &&
          std::memcmp(out[0].data(), live.data(),
                      static_cast<std::size_t>(live.numel()) * sizeof(float)) == 0;
      r.op(same, "coalesced output differs from solo serving");
      if (!same) ++mismatched;
    }
    r.check(mismatched == 0, "coalesced outputs bit-identical to solo");

    // The serving footprint is the single lane's: the concurrent lanes
    // below are a measuring device, and their allocator arenas would make
    // the peak depend on thread timing.
    const double peak_rss = peak_rss_mib() - ref.resident_mib();
    // The bounded CPU figure: kLanes lanes replaying hi-rung schedules at
    // once, each schedule a twentieth of the run in simulated seconds.
    const auto lanes = static_cast<std::size_t>(std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, kLanes));
    std::vector<std::vector<Schedule>> lane_schedules(lanes);
    for (auto& scheds : lane_schedules)
      for (int k = 0; k < kLaneSegments; ++k)
        scheds.push_back(schedule(kHiRung, cfg.seconds / 20));
    const LaneCpu cpu = concurrent_cpu(spec, *st, cfg.seed, lane_schedules,
                                       ref, r);

    // The result: CPU time per request at the hi rung over the reference
    // job's, the median over the lanes' schedules. Latency and capacity,
    // from the single lane, are reported beside it.
    const auto nhi = static_cast<std::int64_t>(hi.requests);
    const auto ncpu = static_cast<std::int64_t>(cpu.cpu_vs_ref.size());
    r.result("setup_s", median(setup), "s", 3);
    r.result("cpu_per_op_ref", median(cpu.cpu_vs_ref), "x", ncpu);
    r.detail("cpu_ms_per_op", median(cpu.cpu_ms), "ms", ncpu);
    r.detail("ref_cpu_ms", median(cpu.ref_ms), "ms", ncpu);
    r.stamp("workload.cpu_lanes", static_cast<double>(lanes));
    r.result("peak_rss_mb", peak_rss, "MiB", 1);
    r.detail("served_per_busy_s.hi", median(seg_capacity), "1/s", nhi);
    r.detail("p50_ms.hi.segment_median", median(seg_p50), "ms", kHiSegments);
    report_rung(r, "lo", lo);
    report_rung(r, "hi", hi);
    r.detail("max_qps", max_qps, "1/s", rungs);
    r.detail("max_qps.rung", top, "index", rungs);
    r.detail("compared_with_solo", static_cast<double>(keep.size()), "count",
             1);
    return;
  }

  // Traced run.
  declare_layer_metrics(r);
  const double triad = triad_gbps(r, 4, 5, cfg.tiny);
  r.result("host.triad_gbps", triad, "GB/s", 5);
  st = std::make_unique<ServeState>(spec, cfg.seed);
  stamp_serve(spec, *st, r);
  // A live rung at the hi rate: the generator's lateness (its p99 delay
  // past each due time) as the live Server sees it.
  live_rung(*st, schedule(kLoRung, 0.5), rung_rate(kLoRung), r);
  const Rung hi = live_rung(*st, schedule(kHiRung, std::min(2.0, long_rung)),
                            rung_rate(kHiRung), r);
  r.result("serve.generator_lag_ms", hi.lag_p99_ms, "ms",
           static_cast<std::int64_t>(hi.requests));

  // The hi-rung schedule replayed stage by stage: untraced and traced in
  // turn, for the tracing overhead.
  const Schedule sch = schedule(kHiRung, long_rung);
  Spans spans, off;
  std::vector<double> untraced, traced;
  double wall = 0.0;
  ReplayResult last;
  for (int rep = 0; rep < 2; ++rep) {
    untraced.push_back(replay(*st, spec, sch, off, r).wall_s);
    obs::TraceSession session;
    spans.enabled = true;
    last = replay(*st, spec, sch, spans, r);
    spans.enabled = false;
    traced.push_back(last.wall_s);
    wall += last.wall_s;
  }
  {
    obs::TraceSession session;
    spans.enabled = true;
    ProbeSpec ps;
    ps.graph = &st->data.graph;
    ps.features = &st->data.features;
    ps.agg_width = spec.feat;
    ps.in_dim = spec.feat;
    ps.out_dim = spec.hidden;
    ps.threads = 1;
    ps.fanouts = spec.fanouts;
    ps.batch = 256;
    ps.seed = cfg.seed;
    ps.tiny = cfg.tiny;
    wall += run_layer_probes(ps, spans, r, triad);
    spans.enabled = false;
    r.stamp("obs.dropped_spans",
            static_cast<double>(obs::trace_dropped_spans()));
  }
  const auto compute = spans.self_times("minidgl.block_forward");
  r.result("minidgl.block_forward_s", median(compute), "s",
           static_cast<std::int64_t>(compute.size()));
  r.result("serve.compute_ms", median(compute) * 1e3, "ms",
           static_cast<std::int64_t>(compute.size()));
  r.result("serve.requests_per_batch",
           static_cast<double>(last.requests) / last.batches, "count",
           last.batches);
  r.result("serve.dedup_frac",
           static_cast<double>(last.shared_rows) / last.seed_rows, "ratio",
           last.batches);
  const double lookups = static_cast<double>(last.cache.hits + last.cache.misses);
  r.result("serve.cache_hit_rate", lookups > 0 ? last.cache.hits / lookups : 0.0,
           "ratio", last.batches);
  r.result("serve.lane_busy_frac", last.busy_s / last.makespan_s, "ratio",
           last.batches);
  report_rung(r, "hi", hi);
  report_span_summary(r, spans, wall, median(untraced), median(traced));
}

}  // namespace pb
