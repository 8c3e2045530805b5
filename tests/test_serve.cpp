// Multi-tenant serving front-end (ISSUE 7): request coalescing / scatter-back
// structure, the coalesced-vs-solo BIT-FOR-BIT oracle per ISA (feature cache
// on and off, sampled and full fanouts), the frequency/LRU feature cache's
// bit-identity + replacement/admission/stats contracts, the live admission
// Server under concurrent tenants, and the trace replay's admission
// semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "graph/generators.hpp"
#include "minidgl/train.hpp"
#include "parallel/thread_pool.hpp"
#include "sample/feature_loader.hpp"
#include "serve/coalescer.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"

namespace fg = featgraph;
using fg::graph::vid_t;
using fg::serve::CoalescedBatch;
using fg::serve::FeatureCache;
using fg::serve::Request;
using fg::serve::ServeOptions;
using fg::serve::ServingEngine;
using fg::tensor::Tensor;

namespace {

bool tensors_bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::vector<Request> three_requests() {
  return {{0, {5, 9}}, {1, {9, 2, 7}}, {2, {5}}};
}

}  // namespace

// --- coalescer -------------------------------------------------------------

TEST(Serve, CoalesceDedupsSeedsFirstAppearance) {
  const CoalescedBatch b = fg::serve::coalesce(three_requests());
  EXPECT_EQ(b.seeds, (std::vector<vid_t>{5, 9, 2, 7}));
  ASSERT_EQ(b.row_of.size(), 3u);
  EXPECT_EQ(b.row_of[0], (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(b.row_of[1], (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(b.row_of[2], (std::vector<std::int64_t>{0}));
  EXPECT_EQ(b.shared_seed_rows, 2);  // 9 and 5 reused
  EXPECT_EQ(b.total_request_seeds(), 6);
}

TEST(ServeDeathTest, CoalesceRejectsDuplicateSeedsWithinOneRequest) {
  // Same precondition solo serving has (duplicate-free block destinations).
  EXPECT_DEATH(fg::serve::coalesce({{0, {3, 3}}}), "duplicate-free");
}

TEST(Serve, ScatterBackCopiesRowsBitwise) {
  const CoalescedBatch b = fg::serve::coalesce(three_requests());
  const Tensor merged = Tensor::randn({4, 6}, 3);
  const auto outs = fg::serve::scatter_back(b, merged);
  ASSERT_EQ(outs.size(), 3u);
  for (std::size_t r = 0; r < outs.size(); ++r) {
    ASSERT_EQ(outs[r].rows(),
              static_cast<std::int64_t>(b.requests[r].seeds.size()));
    for (std::size_t k = 0; k < b.row_of[r].size(); ++k)
      EXPECT_EQ(std::memcmp(outs[r].row(static_cast<std::int64_t>(k)),
                            merged.row(b.row_of[r][k]), 6 * sizeof(float)),
                0);
  }
}

// --- feature cache ---------------------------------------------------------

TEST(FeatureCache, GatherBitIdenticalToUncachedAcrossIsas) {
  // Cache-on output must be byte-for-byte the uncached gather, per ISA,
  // whatever mix of hits and misses each call sees.
  const Tensor x = Tensor::randn({200, 24}, 5);
  fg::support::Rng rng(77);
  for (const auto isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    FeatureCache cache(16, 24);
    for (int round = 0; round < 8; ++round) {
      std::vector<vid_t> rows;
      for (int k = 0; k < 40; ++k)
        rows.push_back(static_cast<vid_t>(rng.uniform(200)));
      for (const int threads : {1, 3}) {
        const Tensor cached = cache.gather(x, rows, threads);
        const Tensor plain = fg::sample::gather_rows(x, rows, threads);
        EXPECT_TRUE(tensors_bit_equal(cached, plain))
            << "round " << round << " threads " << threads << " under "
            << fg::simd::isa_name(isa);
      }
    }
    EXPECT_LE(cache.size(), 16);
  }
}

TEST(FeatureCache, CountsHitsMissesAndBytesSaved) {
  const Tensor x = Tensor::randn({64, 8}, 1);
  FeatureCache cache(8, 8);
  cache.gather(x, {1, 2, 3});  // all cold
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.insertions, 3);
  EXPECT_EQ(s.bytes_saved, 0);

  cache.gather(x, {3, 2, 1, 9});  // three hot, one cold
  s = cache.stats();
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 4);
  EXPECT_EQ(s.bytes_saved, 3 * 8 * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(cache.size(), 4);

  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 4);  // stats reset keeps residents
}

TEST(FeatureCache, EvictsLeastRecentlyUsedWhenFull) {
  const Tensor x = Tensor::randn({64, 4}, 2);
  FeatureCache cache(3, 4);
  cache.gather(x, {10, 11, 12});  // fill: LRU order 10 < 11 < 12
  cache.gather(x, {10});          // refresh 10; 11 is now LRU
  // Equal frequency (all seen once... 10 twice): a fresh vertex with count 1
  // ties vertex 11's count 1, and ties admit — 11 is evicted, 10 stays.
  cache.gather(x, {13});
  cache.gather(x, {10, 12, 13});
  const auto s = cache.stats();
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(s.evictions, 1);
  // The refreshed and fresh rows all hit; evicted 11 would miss.
  EXPECT_EQ(s.hits, 1 + 3);  // the {10} refresh + the final triple
  cache.gather(x, {11});
  EXPECT_EQ(cache.stats().misses, 3 + 1 + 1);
}

TEST(FeatureCache, FrequencyGuardKeepsHotRowsAgainstColdScan) {
  // A hot vertex accessed many times must survive a one-shot scan of cold
  // vertices — the LRU failure mode the frequency admission guard removes.
  const Tensor x = Tensor::randn({512, 4}, 3);
  FeatureCache cache(4, 4);
  for (int round = 0; round < 5; ++round) cache.gather(x, {7, 8, 9, 10});
  const auto warm = cache.stats();
  EXPECT_EQ(warm.hits, 4 * 4);

  std::vector<vid_t> scan;
  for (vid_t v = 100; v < 200; ++v) scan.push_back(v);
  cache.gather(x, scan);  // 100 cold one-shot rows

  cache.reset_stats();
  cache.gather(x, {7, 8, 9, 10});
  EXPECT_EQ(cache.stats().hits, 4) << "hot set was flushed by the cold scan";
}

TEST(FeatureCache, CapacityZeroIsPassThrough) {
  const Tensor x = Tensor::randn({32, 5}, 4);
  FeatureCache cache(0, 5);
  const std::vector<vid_t> rows = {3, 3, 0, 31};
  EXPECT_TRUE(
      tensors_bit_equal(cache.gather(x, rows), fg::sample::gather_rows(x, rows)));
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(FeatureCacheDeathTest, OutOfRangeRowKeepsGatherMessage) {
  // The folded-into-lanes bounds check (feature_loader.cpp) must still fail
  // with the original message — through the cache path too.
  const Tensor x = Tensor::randn({8, 4}, 5);
  FeatureCache cache(4, 4);
  EXPECT_DEATH(cache.gather(x, {9}), "gather row out of range");
  EXPECT_DEATH(fg::sample::gather_rows(x, {-1}, 3), "gather row out of range");
}

// --- the serving oracle: coalesced == solo, bit for bit --------------------

namespace {

/// Requests with heavy cross-request seed overlap over [0, n).
std::vector<std::vector<std::int64_t>> overlapping_requests(std::int64_t n,
                                                            int count) {
  fg::support::Rng rng(99);
  std::vector<std::vector<std::int64_t>> reqs;
  for (int r = 0; r < count; ++r) {
    const int size = 1 + static_cast<int>(rng.uniform(4));
    std::vector<std::int64_t> seeds;
    for (int k = 0; k < size; ++k) {
      // Zipf-flavored: half the draws from a small hot set.
      const std::int64_t v =
          rng.uniform(2) == 0
              ? static_cast<std::int64_t>(rng.uniform(8))
              : static_cast<std::int64_t>(rng.uniform(
                    static_cast<std::uint64_t>(n)));
      if (std::find(seeds.begin(), seeds.end(), v) == seeds.end())
        seeds.push_back(v);
    }
    reqs.push_back(std::move(seeds));
  }
  return reqs;
}

}  // namespace

TEST(Serve, CoalescedMatchesSoloBitForBitPerIsa) {
  // THE tentpole property (satellite 4): a coalesced multi-request batch,
  // after scatter-back, equals each request served alone BIT-FOR-BIT — per
  // ISA, with the feature cache on and off, for sampled AND full fanouts,
  // for GCN and GraphSage. Rests on per-vertex sampler streams, the shared
  // rng_stream, and num_partitions == 1 on the serving path.
  const auto data = fg::minidgl::make_sbm_classification(
      /*n=*/400, /*avg_degree=*/9.0, /*num_classes=*/4, /*p_in=*/0.9,
      /*feat_dim=*/16, /*signal=*/2.0f, /*seed=*/21);
  const auto requests = overlapping_requests(data.graph.num_vertices(), 24);

  for (const char* kind : {"gcn", "sage-mean"}) {
    for (const std::vector<std::int64_t>& fanouts :
         {std::vector<std::int64_t>{3, 5}, std::vector<std::int64_t>{-1, -1}}) {
      for (const auto isa : fg::simd::supported_isas()) {
        fg::simd::ScopedIsa pin(isa);
        fg::minidgl::ExecContext ctx;
        ctx.num_threads = 2;
        fg::minidgl::Trainer trainer(
            data, fg::minidgl::Model(kind, 16, 24, 4, /*seed=*/8), ctx, 0.05f);
        trainer.train_epoch();  // non-initialization weights

        fg::minidgl::ServeRequestsOptions solo;
        solo.sampler.fanouts = fanouts;
        solo.sampler.seed = 5;
        // Small request cap: coalesced serving forms several batches, so
        // the feature cache sees cross-batch reuse (hot rows hitting).
        solo.admission.max_requests_per_batch = 6;
        solo.coalesce = false;
        solo.feature_cache_rows = 0;
        const auto ref = trainer.serve_requests(solo, requests);
        ASSERT_EQ(ref.outputs.size(), requests.size());
        EXPECT_EQ(ref.stats.batches,
                  static_cast<std::int64_t>(requests.size()));

        for (const std::int64_t cache_rows : {std::int64_t{0}, std::int64_t{64}}) {
          fg::minidgl::ServeRequestsOptions co = solo;
          co.coalesce = true;
          co.feature_cache_rows = cache_rows;
          const auto got = trainer.serve_requests(co, requests);
          ASSERT_EQ(got.outputs.size(), requests.size());
          EXPECT_LT(got.stats.batches, ref.stats.batches);  // really merged
          EXPECT_GT(got.stats.shared_seed_rows, 0);         // really deduped
          for (std::size_t r = 0; r < requests.size(); ++r)
            EXPECT_TRUE(tensors_bit_equal(got.outputs[r], ref.outputs[r]))
                << kind << " request " << r << " fanout " << fanouts[0]
                << " cache " << cache_rows << " under "
                << fg::simd::isa_name(isa);
          if (cache_rows > 0 && fanouts[0] > 0) {
            EXPECT_GT(got.cache.hits, 0);  // hot seeds overlap frontiers
          }
        }
      }
    }
  }
}

TEST(Serve, SamplerStreamsAreSeedPositionInvariant) {
  // The serving-path bugfix this PR's coalescer rests on: a vertex's
  // sampled neighborhood depends on (seed, stream, hop, VERTEX), not on
  // where in the seed list it sits.
  const auto csr = fg::graph::coo_to_in_csr(fg::graph::gen_rmat(512, 8.0, 3));
  fg::sample::NeighborSampler sampler(csr, {{4, 4}, false, 17});
  const auto solo = sampler.sample({42}, 0);
  const auto merged = sampler.sample({7, 99, 42, 3}, 0);
  // Vertex 42 is dst 2 of the merged last-layer block; its sampled edge
  // lists must match solo's dst 0, layer by layer, in original edge ids.
  const auto& ms = merged.blocks.back();
  const auto& ss = solo.blocks.back();
  const auto m_lo = ms.adj.indptr[2], m_hi = ms.adj.indptr[3];
  const auto s_lo = ss.adj.indptr[0], s_hi = ss.adj.indptr[1];
  ASSERT_EQ(m_hi - m_lo, s_hi - s_lo);
  for (std::int64_t k = 0; k < m_hi - m_lo; ++k) {
    EXPECT_EQ(ms.adj.edge_ids[static_cast<std::size_t>(m_lo + k)],
              ss.adj.edge_ids[static_cast<std::size_t>(s_lo + k)]);
    // Same original neighbor vertex behind the local relabeling.
    EXPECT_EQ(
        ms.src_nodes[static_cast<std::size_t>(
            ms.adj.indices[static_cast<std::size_t>(m_lo + k)])],
        ss.src_nodes[static_cast<std::size_t>(
            ss.adj.indices[static_cast<std::size_t>(s_lo + k)])]);
  }
}

// --- the live admission server ---------------------------------------------

TEST(Serve, ServerServesConcurrentTenantsCorrectly) {
  // Several tenant threads submit overlapping requests; every future must
  // resolve to the solo-serving reference bit-for-bit, whatever batching
  // the admission window produced.
  const auto data = fg::minidgl::make_sbm_classification(
      300, 8.0, 4, 0.9, 12, 2.0f, 31);
  fg::minidgl::ExecContext ctx;
  ctx.num_threads = 1;
  fg::minidgl::Trainer trainer(
      data, fg::minidgl::Model("sage-mean", 12, 16, 4, 2), ctx, 0.05f);

  const auto requests = overlapping_requests(data.graph.num_vertices(), 32);
  fg::minidgl::ServeRequestsOptions solo;
  solo.sampler.fanouts = {3, 3};
  solo.coalesce = false;
  solo.feature_cache_rows = 0;
  const auto ref = trainer.serve_requests(solo, requests);

  fg::sample::NeighborSampler sampler(data.graph.in_csr(), solo.sampler);
  fg::serve::FeatureCache cache(128, 12);
  fg::sample::BlockScheduleCache sched_cache;
  ServeOptions opts;
  opts.latency_bound_s = 2e-3;
  opts.max_requests_per_batch = 8;
  ServingEngine engine(sampler, data.features,
                       trainer.make_serve_compute(&sched_cache, false), opts,
                       &cache);
  fg::serve::Server server(engine);

  std::vector<std::future<Tensor>> futures(requests.size());
  std::vector<std::thread> tenants;
  const int kTenants = 4;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      for (std::size_t r = static_cast<std::size_t>(t); r < requests.size();
           r += kTenants) {
        std::vector<vid_t> seeds;
        for (const std::int64_t s : requests[r])
          seeds.push_back(static_cast<vid_t>(s));
        futures[r] = server.submit(std::move(seeds));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (auto& t : tenants) t.join();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const Tensor out = futures[r].get();
    EXPECT_TRUE(tensors_bit_equal(out, ref.outputs[r])) << "request " << r;
  }
  server.close();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(requests.size()));
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, stats.requests);
}

TEST(Serve, ServerFailsOnlyTheInvalidRequest) {
  // Requests with an out-of-range or duplicate seed, interleaved with valid
  // ones: each invalid request's future holds std::invalid_argument, and
  // every valid request is still served bit-identically to solo serving.
  const auto data = fg::minidgl::make_sbm_classification(
      200, 8.0, 4, 0.9, 12, 2.0f, 37);
  fg::minidgl::ExecContext ctx;
  ctx.num_threads = 1;
  fg::minidgl::Trainer trainer(
      data, fg::minidgl::Model("sage-mean", 12, 16, 4, 2), ctx, 0.05f);

  const auto requests = overlapping_requests(data.graph.num_vertices(), 12);
  fg::minidgl::ServeRequestsOptions solo;
  solo.sampler.fanouts = {3, 3};
  solo.coalesce = false;
  solo.feature_cache_rows = 0;
  const auto ref = trainer.serve_requests(solo, requests);

  fg::sample::NeighborSampler sampler(data.graph.in_csr(), solo.sampler);
  fg::sample::BlockScheduleCache sched_cache;
  ServeOptions opts;
  opts.latency_bound_s = 5e-3;
  ServingEngine engine(sampler, data.features,
                       trainer.make_serve_compute(&sched_cache, false), opts);
  fg::serve::Server server(engine);

  const auto n = static_cast<vid_t>(data.graph.num_vertices());
  const std::vector<std::vector<vid_t>> invalid = {
      {1, n}, {-1}, {4, 7, 4}, {n + 100, 2, 2}};
  std::vector<std::future<Tensor>> good, bad;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    good.push_back(server.submit(
        std::vector<vid_t>(requests[r].begin(), requests[r].end())));
    if (r % 3 == 1) bad.push_back(server.submit(invalid[r / 3]));
  }
  ASSERT_EQ(bad.size(), invalid.size());
  for (auto& f : bad) EXPECT_THROW(f.get(), std::invalid_argument);
  for (std::size_t r = 0; r < requests.size(); ++r)
    EXPECT_TRUE(tensors_bit_equal(good[r].get(), ref.outputs[r]))
        << "request " << r;
  server.close();
  EXPECT_EQ(engine.stats().requests,
            static_cast<std::int64_t>(requests.size()));
}

TEST(Serve, ServerDrainsPendingOnClose) {
  const auto csr = fg::graph::coo_to_in_csr(fg::graph::gen_rmat(128, 6.0, 9));
  const Tensor x = Tensor::randn({csr.num_cols, 4}, 8);
  fg::sample::NeighborSampler sampler(csr, {{2}, false, 3});
  ServeOptions opts;
  opts.latency_bound_s = 0.5;  // window far longer than the test
  ServingEngine engine(
      sampler, x,
      [](const fg::sample::MinibatchBlocks& blocks, Tensor feats) {
        // Identity head: output = the seeds' own gathered features (the
        // first num_dst input rows, by the dst-then-src invariant).
        Tensor out({static_cast<std::int64_t>(blocks.output_nodes().size()),
                    feats.row_size()});
        std::memcpy(out.data(), feats.data(),
                    static_cast<std::size_t>(out.numel()) * sizeof(float));
        return out;
      },
      opts);
  fg::serve::Server server(engine);
  auto f1 = server.submit({1, 2});
  auto f2 = server.submit({3});
  server.close();  // must cut the batch early and resolve both futures
  EXPECT_EQ(f1.get().rows(), 2);
  EXPECT_EQ(f2.get().rows(), 1);
  EXPECT_EQ(engine.stats().requests, 2);
}

TEST(Serve, DetachedLaneClaimFollowsPoolDiscipline) {
  // While one Server holds the pool's detached slot, a second Server's
  // claim is declined and it falls back to a dedicated thread; both still
  // serve. With no claim possible at all (slot held), launch degrades to
  // inline — exercised implicitly by the engines' parallel_for gathers.
  const auto csr = fg::graph::coo_to_in_csr(fg::graph::gen_rmat(64, 4.0, 2));
  const Tensor x = Tensor::randn({csr.num_cols, 4}, 1);
  fg::sample::NeighborSampler sampler(csr, {{2}, false, 3});
  ServeOptions opts;
  opts.latency_bound_s = 0.0;
  auto identity = [](const fg::sample::MinibatchBlocks& blocks, Tensor feats) {
    Tensor out({static_cast<std::int64_t>(blocks.output_nodes().size()),
                feats.row_size()});
    std::memcpy(out.data(), feats.data(),
                static_cast<std::size_t>(out.numel()) * sizeof(float));
    return out;
  };
  ServingEngine e1(sampler, x, identity, opts);
  ServingEngine e2(sampler, x, identity, opts);
  fg::serve::Server s1(e1);
  fg::serve::Server s2(e2);
  if (fg::parallel::ThreadPool::global().num_workers() >= 1) {
    EXPECT_TRUE(s1.lane_on_pool());
  }
  EXPECT_FALSE(s2.lane_on_pool());  // slot already held by s1's lane
  EXPECT_EQ(s1.submit({5}).get().rows(), 1);
  EXPECT_EQ(s2.submit({6}).get().rows(), 1);
  s2.close();
  s1.close();
}

// --- trace replay ----------------------------------------------------------

TEST(Serve, ReplayTraceCoalescesWithinWindowAndRespectsCaps) {
  const auto csr = fg::graph::coo_to_in_csr(fg::graph::gen_rmat(128, 6.0, 4));
  const Tensor x = Tensor::randn({csr.num_cols, 4}, 6);
  fg::sample::NeighborSampler sampler(csr, {{2}, false, 3});
  auto identity = [](const fg::sample::MinibatchBlocks& blocks, Tensor feats) {
    Tensor out({static_cast<std::int64_t>(blocks.output_nodes().size()),
                feats.row_size()});
    std::memcpy(out.data(), feats.data(),
                static_cast<std::size_t>(out.numel()) * sizeof(float));
    return out;
  };

  // Six requests in two arrival clusters; window 10 ms merges each cluster.
  std::vector<fg::serve::TraceRequest> trace;
  for (int k = 0; k < 3; ++k)
    trace.push_back({{k, {static_cast<vid_t>(k)}}, 0.001 * k});
  for (int k = 3; k < 6; ++k)
    trace.push_back({{k, {static_cast<vid_t>(k)}}, 1.0 + 0.001 * k});

  ServeOptions opts;
  opts.latency_bound_s = 0.010;
  ServingEngine engine(sampler, x, identity, opts);
  const auto res = fg::serve::replay_trace(engine, trace);
  EXPECT_EQ(res.batches, 2);
  ASSERT_EQ(res.outputs.size(), 6u);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_EQ(res.outputs[k].rows(), 1);
    // Every request waits out (part of) the window: latency >= time from
    // its arrival to its window close, and is positive.
    EXPECT_GT(res.latency_s[k], 0.0);
  }
  // First cluster's window anchored at t=0: completion >= 10 ms, so the
  // first request's latency is at least the bound.
  EXPECT_GE(res.latency_s[0], opts.latency_bound_s);

  // max_requests_per_batch = 1 serves solo: 6 batches.
  ServeOptions solo_opts = opts;
  solo_opts.latency_bound_s = 0.0;
  solo_opts.max_requests_per_batch = 1;
  ServingEngine solo_engine(sampler, x, identity, solo_opts);
  const auto solo = fg::serve::replay_trace(solo_engine, trace);
  EXPECT_EQ(solo.batches, 6);
  for (std::size_t k = 0; k < 6; ++k)
    EXPECT_TRUE(tensors_bit_equal(solo.outputs[k], res.outputs[k]));
}

TEST(Serve, PercentileNearestRank) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(fg::serve::percentile(v, 50), 2.0);
  EXPECT_DOUBLE_EQ(fg::serve::percentile(v, 99), 4.0);
  EXPECT_DOUBLE_EQ(fg::serve::percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(fg::serve::percentile({}, 50), 0.0);
}
