#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sample/feature_loader.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace featgraph::serve {

namespace {

/// Seconds a request sat in admission before its batch started serving
/// (live drain_loop: wall clock; replay_trace: the simulated clock — both
/// feed the same histogram, so bench and live runs render comparably).
obs::Histogram& queue_latency_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.queue_latency.seconds");
  return h;
}

}  // namespace

ServingEngine::ServingEngine(const sample::NeighborSampler& sampler,
                             const tensor::Tensor& features,
                             BatchComputeFn compute, ServeOptions options,
                             FeatureCache* cache)
    : sampler_(&sampler),
      features_(&features),
      compute_(std::move(compute)),
      options_(options),
      cache_(cache) {
  FG_CHECK(options_.latency_bound_s >= 0.0);
  FG_CHECK(options_.max_requests_per_batch >= 1);
  FG_CHECK(options_.max_seeds_per_batch >= 1);
}

std::vector<tensor::Tensor> ServingEngine::serve_batch(
    std::vector<Request> requests) {
  if (requests.empty()) return {};
  obs::TraceScope batch_span("serve.batch");

  CoalescedBatch batch = [&] {
    FG_TRACE_SCOPE("serve.coalesce",
                   obs::arg("requests",
                            static_cast<std::int64_t>(requests.size())));
    return coalesce(std::move(requests));
  }();
  if (batch_span.active()) {
    batch_span
        .arg("requests", static_cast<std::int64_t>(batch.requests.size()))
        .arg("seed_rows", batch.total_request_seeds())
        .arg("merged_rows", static_cast<std::int64_t>(batch.seeds.size()))
        .arg("shared_rows", batch.shared_seed_rows);
  }

  support::Timer t;
  const sample::MinibatchBlocks blocks = [&] {
    FG_TRACE_SCOPE("serve.sample");
    return sampler_->sample(batch.seeds, options_.rng_stream,
                            options_.num_threads);
  }();
  const std::int64_t sample_ns = t.elapsed_ns();

  t.reset();
  tensor::Tensor input_feats = [&] {
    FG_TRACE_SCOPE("serve.gather");
    return cache_ != nullptr
               ? cache_->gather(*features_, blocks.input_nodes(),
                                options_.num_threads)
               : sample::gather_rows(*features_, blocks.input_nodes(),
                                     options_.num_threads);
  }();
  const std::int64_t gather_ns = t.elapsed_ns();

  t.reset();
  const tensor::Tensor merged_out = [&] {
    FG_TRACE_SCOPE("serve.compute");
    return compute_(blocks, std::move(input_feats));
  }();
  const std::int64_t compute_ns = t.elapsed_ns();
  FG_CHECK_MSG(merged_out.rows() ==
                   static_cast<std::int64_t>(batch.seeds.size()),
               "batch compute must return one row per merged seed");

  std::vector<tensor::Tensor> outs = [&] {
    FG_TRACE_SCOPE("serve.scatter");
    return scatter_back(batch, merged_out);
  }();

  // Per-instance atomics (no lock): the detached lane bumps these while a
  // monitor thread reads stats() — every field is torn-free on its own.
  requests_.add(static_cast<std::int64_t>(batch.requests.size()));
  batches_.add(1);
  seed_rows_.add(batch.total_request_seeds());
  merged_rows_.add(static_cast<std::int64_t>(batch.seeds.size()));
  shared_seed_rows_.add(batch.shared_seed_rows);
  max_batch_requests_.set_max(static_cast<std::int64_t>(batch.requests.size()));
  sample_ns_.add(sample_ns);
  gather_ns_.add(gather_ns);
  compute_ns_.add(compute_ns);

  // Process-wide mirror for profile reports.
  static obs::Counter& g_requests =
      obs::Registry::global().counter("serve.request.count");
  static obs::Counter& g_batches =
      obs::Registry::global().counter("serve.batch.count");
  static obs::Counter& g_dedup =
      obs::Registry::global().counter("serve.rows.deduped");
  g_requests.add(static_cast<std::int64_t>(batch.requests.size()));
  g_batches.add(1);
  g_dedup.add(batch.total_request_seeds() -
              static_cast<std::int64_t>(batch.seeds.size()));
  return outs;
}

void ServingEngine::validate_seeds(
    const std::vector<graph::vid_t>& seeds) const {
  const std::int64_t num_vertices = sampler_->graph().num_rows;
  std::vector<graph::vid_t> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  for (const graph::vid_t s : sorted) {
    if (s < 0 || s >= num_vertices)
      throw std::invalid_argument("seed " + std::to_string(s) +
                                  " is not a vertex in [0, " +
                                  std::to_string(num_vertices) + ")");
  }
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end())
    throw std::invalid_argument("seed " + std::to_string(*dup) +
                                " appears more than once in one request");
}

ServeStats ServingEngine::stats() const {
  ServeStats s;
  s.requests = requests_.value();
  s.batches = batches_.value();
  s.seed_rows = seed_rows_.value();
  s.merged_rows = merged_rows_.value();
  s.shared_seed_rows = shared_seed_rows_.value();
  s.max_batch_requests = max_batch_requests_.value();
  s.sample_seconds = static_cast<double>(sample_ns_.value()) * 1e-9;
  s.gather_seconds = static_cast<double>(gather_ns_.value()) * 1e-9;
  s.compute_seconds = static_cast<double>(compute_ns_.value()) * 1e-9;
  return s;
}

void ServingEngine::reset_stats() {
  requests_.reset();
  batches_.reset();
  seed_rows_.reset();
  merged_rows_.reset();
  shared_seed_rows_.reset();
  max_batch_requests_.reset();
  sample_ns_.reset();
  gather_ns_.reset();
  compute_ns_.reset();
}

Server::Server(ServingEngine& engine) : engine_(engine) {
  // The serving lane prefers a pool worker — launch_detached_if_idle claims
  // the job slot atomically, exactly like the pipeline's 2-lane overlap.
  // Declined (slot held, worker-less pool) falls back to a dedicated
  // thread: admission is about latency, not CPU parallelism, so a plain
  // thread serves fine. Either way the lane's kernels may run parallel_for
  // freely (a held slot degrades nested launches to inline execution).
  lane_on_pool_ = parallel::ThreadPool::global().launch_detached_if_idle(
      1, [this](int, int) { drain_loop(); });
  if (!lane_on_pool_) fallback_thread_ = std::thread([this] { drain_loop(); });
}

Server::~Server() { close(); }

std::future<tensor::Tensor> Server::submit(std::vector<graph::vid_t> seeds) {
  Pending p;
  std::future<tensor::Tensor> fut = p.promise.get_future();
  try {
    engine_.validate_seeds(seeds);
  } catch (const std::invalid_argument&) {
    // Fail this request alone: an invalid seed reaching the serving lane
    // would trip a sampler/coalescer check and abort every tenant.
    p.promise.set_exception(std::current_exception());
    return fut;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FG_CHECK_MSG(!closed_, "submit after Server::close");
    p.request.id = next_id_++;
    p.request.seeds = std::move(seeds);
    p.arrival = std::chrono::steady_clock::now();
    pending_.push_back(std::move(p));
  }
  admission_cv_.notify_all();
  return fut;
}

void Server::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  admission_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    lane_exited_cv_.wait(lock, [this] { return lane_exited_; });
  }
  if (fallback_thread_.joinable()) fallback_thread_.join();
  // lane_exited_ is signalled from INSIDE drain_loop; the pool's job slot
  // is only released once the lane returns to worker_loop. Wait that out so
  // the slot is reclaimable (e.g. by the next Server) when close() returns.
  // Reset the flag so an idempotent re-close doesn't wait on some LATER
  // claimant's detached job.
  if (lane_on_pool_) {
    parallel::ThreadPool::global().wait_detached_drained();
    lane_on_pool_ = false;
  }
}

void Server::drain_loop() {
  const ServeOptions& opts = engine_.options();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    admission_cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
    if (pending_.empty()) break;  // closed and drained

    // Admission window: anchored at the oldest pending arrival, cut early
    // when a cap fills or the server closes (drain what's there).
    const auto window_end =
        pending_.front().arrival +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.latency_bound_s));
    auto caps_filled = [&] {
      if (static_cast<int>(pending_.size()) >= opts.max_requests_per_batch)
        return true;
      std::int64_t seeds = 0;
      for (const Pending& p : pending_) {
        seeds += static_cast<std::int64_t>(p.request.seeds.size());
        if (seeds >= opts.max_seeds_per_batch) return true;
      }
      return false;
    };
    while (!closed_ && !caps_filled() &&
           std::chrono::steady_clock::now() < window_end)
      admission_cv_.wait_until(lock, window_end);

    // Cut the batch: take pending requests in arrival order up to the caps.
    const auto cut_time = std::chrono::steady_clock::now();
    std::vector<Request> requests;
    std::vector<std::promise<tensor::Tensor>> promises;
    std::int64_t seeds_taken = 0;
    while (!pending_.empty() &&
           static_cast<int>(requests.size()) < opts.max_requests_per_batch &&
           (requests.empty() ||
            seeds_taken + static_cast<std::int64_t>(
                              pending_.front().request.seeds.size()) <=
                opts.max_seeds_per_batch)) {
      Pending p = std::move(pending_.front());
      pending_.pop_front();
      queue_latency_hist().observe(
          std::chrono::duration<double>(cut_time - p.arrival).count());
      seeds_taken += static_cast<std::int64_t>(p.request.seeds.size());
      requests.push_back(std::move(p.request));
      promises.push_back(std::move(p.promise));
    }

    lock.unlock();
    std::vector<tensor::Tensor> outs = engine_.serve_batch(std::move(requests));
    for (std::size_t r = 0; r < promises.size(); ++r)
      promises[r].set_value(std::move(outs[r]));
    lock.lock();
  }
  // Signal exit while still holding the lock: notifying after unlock would
  // let close() observe the flag and the destructor reclaim the condition
  // variable while this lane is still inside notify_all (TSan-caught).
  lane_exited_ = true;
  lane_exited_cv_.notify_all();
}

TraceResult replay_trace(ServingEngine& engine,
                         const std::vector<TraceRequest>& trace) {
  const ServeOptions& opts = engine.options();
  TraceResult result;
  const std::size_t n = trace.size();
  result.outputs.resize(n);
  result.latency_s.resize(n, 0.0);
  if (n == 0) return result;
  for (std::size_t i = 1; i < n; ++i)
    FG_CHECK_MSG(trace[i].arrival_s >= trace[i - 1].arrival_s,
                 "trace arrivals must be sorted");

  double lane_free_at = 0.0;  // simulated clock the serving lane frees up
  std::size_t i = 0;
  while (i < n) {
    // The lane picks up the oldest pending request no earlier than its
    // arrival; the admission window then holds the batch open until
    // oldest-arrival + bound (or until a cap fills — handled by the
    // admission scan below, which also sweeps in the backlog that piled up
    // while the lane was busy).
    const double window_close = trace[i].arrival_s + opts.latency_bound_s;
    double start = std::max(lane_free_at, window_close);

    std::vector<Request> requests;
    std::int64_t seeds_taken = 0;
    std::size_t j = i;
    double capped_at = -1.0;  // arrival that filled a cap, if any
    while (j < n && trace[j].arrival_s <= start) {
      const auto sz = static_cast<std::int64_t>(trace[j].request.seeds.size());
      if (!requests.empty() && seeds_taken + sz > opts.max_seeds_per_batch) {
        // Seed cap: the overflowing arrival triggers the cut and stays
        // pending for the next batch.
        capped_at = trace[j].arrival_s;
        break;
      }
      seeds_taken += sz;
      requests.push_back(trace[j].request);
      ++j;
      if (static_cast<int>(requests.size()) >= opts.max_requests_per_batch) {
        // Request cap: the last ADMITTED arrival triggers the cut.
        capped_at = trace[j - 1].arrival_s;
        break;
      }
    }
    // A cap filled before the window closed: the live server cuts the batch
    // at the triggering arrival instead of idling out the window.
    if (capped_at >= 0.0) start = std::max(lane_free_at, capped_at);

    support::Timer t;
    std::vector<tensor::Tensor> outs = engine.serve_batch(std::move(requests));
    const double service_s = t.seconds();

    const double completion = start + service_s;
    for (std::size_t k = i; k < j; ++k) {
      result.outputs[k] = std::move(outs[k - i]);
      result.latency_s[k] = completion - trace[k].arrival_s;
      // Simulated admission wait — same histogram the live lane feeds.
      queue_latency_hist().observe(start - trace[k].arrival_s);
    }
    lane_free_at = completion;
    result.makespan_s = completion;
    ++result.batches;
    i = j;
  }
  result.queries_per_second =
      result.makespan_s > 0.0 ? static_cast<double>(n) / result.makespan_s
                              : 0.0;
  return result;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  auto idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;  // nearest-rank: ceil(p/100 * n)-th value, 1-indexed
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

}  // namespace featgraph::serve
