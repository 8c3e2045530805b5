// Multi-tenant request admission: concurrent queries -> coalesced batches.
//
//   tenants                    admission queue              serving lane
//   submit(seeds) ──┐   ┌──────────────────────────┐   ┌────────────────────┐
//   submit(seeds) ──┼──▶│ pending requests; window │──▶│ coalesce -> sample │
//   submit(seeds) ──┘   │ closes at oldest arrival │   │ -> gather (feature │
//        ...            │ + latency_bound, or when │   │ cache) -> compute  │
//     future<Tensor>◀───│ request/seed caps fill   │   │ -> scatter_back    │
//                       └──────────────────────────┘   └────────────────────┘
//
// Latency-bound semantics: the admission window is anchored at the OLDEST
// pending request's arrival — a request waits at most latency_bound_s for
// co-travellers before its batch is cut, and the window closes early when
// the request or seed cap fills. Under backlog (the serving lane busy past
// the window) everything that arrived meanwhile joins the next batch, which
// is what makes coalescing self-reinforcing exactly when load is highest.
//
// The serving lane runs on the ThreadPool via launch_detached_if_idle —
// the same atomic claim discipline as the sampling pipeline's 2-lane
// overlap; a declined claim (slot busy, or a worker-less pool) falls back
// to a dedicated thread, so a Server always starts. ServingEngine is the
// synchronous core (one coalesced group in, per-request tensors out) shared
// by the async Server, the deterministic Trainer::serve_requests entry
// point, and replay_trace — the open-loop arrival replay bench_serving uses
// to measure p50/p99 latency with REAL per-batch service times on any host,
// single-core included.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sample/neighbor_sampler.hpp"
#include "serve/coalescer.hpp"
#include "serve/feature_cache.hpp"
#include "tensor/tensor.hpp"

namespace featgraph::serve {

struct ServeOptions {
  /// Seconds a pending request may wait for co-travellers (window anchored
  /// at the oldest pending arrival). 0 = cut a batch as soon as the lane is
  /// free (still coalesces whatever queued up behind a busy lane).
  double latency_bound_s = 1e-3;
  /// Admission caps: a batch is cut early once either fills.
  int max_requests_per_batch = 64;
  std::int64_t max_seeds_per_batch = 8192;
  /// Threads for the shard-parallel sampling plus the shared gather +
  /// scatter inside the serving lane. Sampling stays bit-identical at any
  /// value (per-vertex RNG streams, see neighbor_sampler.hpp), and because
  /// the lane runs DETACHED these nested launches recruit real pool
  /// workers — unlike the pipeline's attached 2-lane overlap.
  int num_threads = 1;
  /// Sampler stream (batch_index) EVERY request is served under — solo and
  /// coalesced serving share it, which (with per-vertex RNG streams) is
  /// what pins their outputs bit-identical.
  std::uint64_t rng_stream = 0;
};

struct ServeStats {
  std::int64_t requests = 0;
  std::int64_t batches = 0;
  /// Total seed rows requested / actually sampled+computed after dedup.
  std::int64_t seed_rows = 0;
  std::int64_t merged_rows = 0;
  std::int64_t shared_seed_rows = 0;
  std::int64_t max_batch_requests = 0;
  double sample_seconds = 0.0;
  double gather_seconds = 0.0;
  double compute_seconds = 0.0;
};

/// Block compute of one coalesced batch: gets the shared blocks and the
/// gathered input features (one row per blocks.input_nodes() entry), returns
/// one output row per merged seed (blocks.output_nodes()), in order.
using BatchComputeFn = std::function<tensor::Tensor(
    const sample::MinibatchBlocks& blocks, tensor::Tensor input_feats)>;

/// The synchronous serving core: coalesce -> sample -> gather -> compute ->
/// scatter_back, with stats. Thread-safe: stats are per-instance lock-free
/// atomics (obs::Counter/Gauge), so a caller polling stats() while the
/// DETACHED serving lane is mid-batch reads torn-free values without a lock
/// — the old single-mutex scheme serialized the lane's stats update against
/// monitoring reads, and a reader between two phase-field writes could see
/// a half-updated batch. Phase times accumulate as integer nanoseconds
/// (Timer::elapsed_ns); stats() converts to the same seconds fields as
/// before, so the ServeStats API is unchanged.
class ServingEngine {
 public:
  /// `sampler` and `features` must outlive the engine; `cache` may be null
  /// (no feature cache — every gather goes to the global matrix).
  ServingEngine(const sample::NeighborSampler& sampler,
                const tensor::Tensor& features, BatchComputeFn compute,
                ServeOptions options, FeatureCache* cache = nullptr);

  /// Serves one coalesced group; outs[r] holds requests[r]'s rows, bitwise
  /// what serving that request alone would produce.
  std::vector<tensor::Tensor> serve_batch(std::vector<Request> requests);

  /// Throws std::invalid_argument unless every seed is a vertex of the
  /// sampler's graph and no seed repeats: the preconditions serve_batch
  /// asserts, checked where requests enter from outside the process.
  void validate_seeds(const std::vector<graph::vid_t>& seeds) const;

  const ServeOptions& options() const { return options_; }
  FeatureCache* feature_cache() const { return cache_; }
  ServeStats stats() const;
  void reset_stats();

 private:
  const sample::NeighborSampler* sampler_;
  const tensor::Tensor* features_;
  BatchComputeFn compute_;
  ServeOptions options_;
  FeatureCache* cache_;
  obs::Counter requests_;
  obs::Counter batches_;
  obs::Counter seed_rows_;
  obs::Counter merged_rows_;
  obs::Counter shared_seed_rows_;
  obs::Gauge max_batch_requests_;  // set_max: monotone high-water
  obs::Counter sample_ns_;
  obs::Counter gather_ns_;
  obs::Counter compute_ns_;
};

/// The concurrent admission front-end: tenants submit seed sets from any
/// thread and get a future for their output rows; one serving lane drains
/// the queue in coalesced batches under the latency bound.
class Server {
 public:
  explicit Server(ServingEngine& engine);
  ~Server();  // close() + join

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one request; the future resolves to its (seeds.size() x d)
  /// output rows once its batch is served. A request that fails
  /// validate_seeds is never enqueued: its future holds the
  /// std::invalid_argument, and every other request is unaffected. Must not
  /// be called after close().
  std::future<tensor::Tensor> submit(std::vector<graph::vid_t> seeds);

  /// Stops admission, drains every pending request, joins the lane.
  /// Idempotent.
  void close();

  /// Whether the serving lane claimed a pool worker (vs the dedicated
  /// fallback thread).
  bool lane_on_pool() const { return lane_on_pool_; }

 private:
  void drain_loop();

  ServingEngine& engine_;
  bool lane_on_pool_ = false;
  std::thread fallback_thread_;

  struct Pending {
    Request request;
    std::promise<tensor::Tensor> promise;
    std::chrono::steady_clock::time_point arrival;
  };
  mutable std::mutex mutex_;
  std::condition_variable admission_cv_;
  std::condition_variable lane_exited_cv_;
  std::deque<Pending> pending_;
  std::int64_t next_id_ = 0;
  bool closed_ = false;
  bool lane_exited_ = false;
};

/// One request of an open-loop arrival trace (arrival measured from t = 0).
struct TraceRequest {
  Request request;
  double arrival_s = 0.0;
};

struct TraceResult {
  /// Per trace entry, in trace order.
  std::vector<tensor::Tensor> outputs;
  std::vector<double> latency_s;
  std::int64_t batches = 0;
  /// Simulated completion time of the last request.
  double makespan_s = 0.0;
  double queries_per_second = 0.0;
};

/// Replays `trace` against the engine under its admission options, FIFO,
/// single serving lane: batches are formed exactly as the live Server would
/// (window anchored at the oldest pending arrival, early cut on caps,
/// backlog joins the next batch), service times are REAL measured
/// serve_batch wall times, and per-request latency = completion - arrival
/// on the simulated clock. Deterministic outputs; honest latency on any
/// host, including single-core ones where a live open-loop driver and the
/// serving lane would fight over the same CPU.
TraceResult replay_trace(ServingEngine& engine,
                         const std::vector<TraceRequest>& trace);

/// p-th percentile (0 <= p <= 100, nearest-rank) of `values`; 0 on empty.
double percentile(std::vector<double> values, double p);

}  // namespace featgraph::serve
