// ISA-parity matrix for the SIMD span engine (core/simd.hpp).
//
// Every backend pair must be bit-for-bit identical on every accumulation
// primitive, for every span length (including the masked/peeled tails), per
// the header's rounding contract; `dot` reassociates and is only
// tolerance-checked. The matrix is parameterized over ALL ISA levels
// (0..kNumIsa), filtered by isa_supported(), so a fourth backend joins the
// test matrix by extending the enum — no test edits needed.
#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/simd.hpp"
#include "core/spmm.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace fg = featgraph;
using fg::simd::Accum;
using fg::simd::BinOp;
using fg::simd::Isa;
using fg::simd::SpanOps;

namespace {

// Spans straddling every tail case of the 64/32/16/8/1 loop structures: the
// AVX2 peel points (8/16/32) and the AVX-512 masked-tail points (16/32/64),
// plus 0/1 degenerates and a long non-multiple length. 23, 47, 79 and 129
// follow each unroll shape of both widths with a maximal tail: 8-lane x2 +
// 7, 16-lane x2 + 15, 16-lane x4 + 15, and 16-lane x4 twice + 1.
const std::int64_t kLens[] = {0,  1,  7,  8,  9,  15, 16,  17,
                              23, 31, 47, 63, 64, 79, 100, 129};

std::vector<float> random_span(std::int64_t n, std::uint64_t seed) {
  fg::support::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// All unordered ISA pairs (lo < hi as enum values) — each pair is one
/// parity matrix entry; pairs with an unsupported side skip at runtime.
std::vector<std::pair<Isa, Isa>> all_isa_pairs() {
  std::vector<std::pair<Isa, Isa>> pairs;
  for (int a = 0; a < fg::simd::kNumIsa; ++a) {
    for (int b = a + 1; b < fg::simd::kNumIsa; ++b) {
      pairs.emplace_back(static_cast<Isa>(a), static_cast<Isa>(b));
    }
  }
  return pairs;
}

std::string pair_name(const ::testing::TestParamInfo<std::pair<Isa, Isa>>& p) {
  return std::string(fg::simd::isa_name(p.param.first)) + "_vs_" +
         fg::simd::isa_name(p.param.second);
}

class IsaParity : public ::testing::TestWithParam<std::pair<Isa, Isa>> {
 protected:
  void SetUp() override {
    const auto [a, b] = GetParam();
    if (!fg::simd::isa_supported(a) || !fg::simd::isa_supported(b)) {
      GTEST_SKIP() << "hardware lacks " << fg::simd::isa_name(a) << " or "
                   << fg::simd::isa_name(b);
    }
    lhs_ = &fg::simd::span_ops(a);
    rhs_ = &fg::simd::span_ops(b);
    // A pair whose tables alias would test nothing — supported levels must
    // have distinct backends.
    ASSERT_NE(lhs_->fill, rhs_->fill);
  }
  const SpanOps* lhs_ = nullptr;
  const SpanOps* rhs_ = nullptr;
};

}  // namespace

TEST_P(IsaParity, FillScaleReluAxpyBitEqual) {
  for (std::int64_t n : kLens) {
    auto base = random_span(n, 7 + static_cast<std::uint64_t>(n));
    auto x = random_span(n, 11 + static_cast<std::uint64_t>(n));

    auto a = base, b = base;
    lhs_->fill(a.data(), 0.25f, n);
    rhs_->fill(b.data(), 0.25f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "fill n=" << n;

    a = base, b = base;
    lhs_->scale(a.data(), -1.75f, n);
    rhs_->scale(b.data(), -1.75f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "scale n=" << n;

    a = base, b = base;
    lhs_->relu(a.data(), n);
    rhs_->relu(b.data(), n);
    EXPECT_TRUE(bit_equal(a, b)) << "relu n=" << n;

    a = base, b = base;
    lhs_->axpy(a.data(), x.data(), 0.6f, n);
    rhs_->axpy(b.data(), x.data(), 0.6f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "axpy n=" << n;
  }
}

TEST_P(IsaParity, EpiloguePrimitivesLeakyReluBiasReluBitEqual) {
  // The fused-epilogue primitives (core/epilogue.hpp): exact-class select /
  // add+select, so the parity contract is bitwise like relu/axpy.
  for (std::int64_t n : kLens) {
    auto base = random_span(n, 2100 + static_cast<std::uint64_t>(n));
    auto bias = random_span(n, 2200 + static_cast<std::uint64_t>(n));

    for (const float slope : {0.0f, 0.01f, 0.2f}) {
      auto a = base, b = base;
      lhs_->leaky_relu(a.data(), slope, n);
      rhs_->leaky_relu(b.data(), slope, n);
      EXPECT_TRUE(bit_equal(a, b)) << "leaky_relu slope=" << slope
                                   << " n=" << n;
    }

    auto a = base, b = base;
    lhs_->bias_relu(a.data(), bias.data(), n);
    rhs_->bias_relu(b.data(), bias.data(), n);
    EXPECT_TRUE(bit_equal(a, b)) << "bias_relu n=" << n;
  }
}

TEST_P(IsaParity, AccumBitEqualAllReducers) {
  for (int r = 0; r < fg::simd::kNumAccum; ++r) {
    for (std::int64_t n : kLens) {
      auto base = random_span(n, 100 + static_cast<std::uint64_t>(n));
      auto x = random_span(n, 200 + static_cast<std::uint64_t>(n));
      auto a = base, b = base;
      lhs_->accum[r](a.data(), x.data(), n);
      rhs_->accum[r](b.data(), x.data(), n);
      EXPECT_TRUE(bit_equal(a, b)) << "accum r=" << r << " n=" << n;
    }
  }
}

TEST_P(IsaParity, AccumBinOpBitEqualAllCombos) {
  for (int r = 0; r < fg::simd::kNumAccum; ++r) {
    for (int o = 0; o < fg::simd::kNumBinOp; ++o) {
      for (std::int64_t n : kLens) {
        auto base = random_span(n, 300 + static_cast<std::uint64_t>(n));
        auto x = random_span(n, 400 + static_cast<std::uint64_t>(n));
        auto y = random_span(n, 500 + static_cast<std::uint64_t>(n));
        auto a = base, b = base;
        lhs_->accum_binop[r][o](a.data(), x.data(), y.data(), n);
        rhs_->accum_binop[r][o](b.data(), x.data(), y.data(), n);
        EXPECT_TRUE(bit_equal(a, b))
            << "binop r=" << r << " o=" << o << " n=" << n;

        a = base, b = base;
        lhs_->accum_binop_scalar[r][o](a.data(), x.data(), 1.3f, n);
        rhs_->accum_binop_scalar[r][o](b.data(), x.data(), 1.3f, n);
        EXPECT_TRUE(bit_equal(a, b))
            << "binop_s r=" << r << " o=" << o << " n=" << n;
      }
    }
  }
}

TEST_P(IsaParity, MaxMinMatchOnTiesAndNaN) {
  // ±0 ties and NaN propagation must match the scalar `a > b ? a : b` form
  // (the vector max/min operand-order contract every backend relies on) —
  // including in a masked tail, hence the length-9 spans.
  const std::int64_t n = 9;
  const float nan = std::nanf("");
  std::vector<float> base = {0.0f, -0.0f, 1.0f, nan, -1.0f, 2.0f, nan, 0.0f,
                             -0.0f};
  std::vector<float> x = {-0.0f, 0.0f, nan, 1.0f, nan, -2.0f, nan, 0.5f,
                          -0.5f};
  for (int r = 1; r <= 2; ++r) {  // kMax, kMin
    auto a = base, b = base;
    lhs_->accum[r](a.data(), x.data(), n);
    rhs_->accum[r](b.data(), x.data(), n);
    EXPECT_TRUE(bit_equal(a, b)) << "r=" << r;
  }
}

TEST_P(IsaParity, WaxpyBinOpBitEqualAllOps) {
  // The attention-weighted accumulates share axpy's exact contract: three
  // IEEE ops per element (op, mul, add), no FMA — bit-for-bit everywhere,
  // masked tails included.
  for (int o = 0; o < fg::simd::kNumBinOp; ++o) {
    for (std::int64_t n : kLens) {
      auto base = random_span(n, 800 + static_cast<std::uint64_t>(n));
      auto x = random_span(n, 900 + static_cast<std::uint64_t>(n));
      auto y = random_span(n, 1000 + static_cast<std::uint64_t>(n));
      auto a = base, b = base;
      lhs_->waxpy_binop[o](a.data(), x.data(), y.data(), 0.7f, n);
      rhs_->waxpy_binop[o](b.data(), x.data(), y.data(), 0.7f, n);
      EXPECT_TRUE(bit_equal(a, b)) << "waxpy o=" << o << " n=" << n;

      a = base, b = base;
      lhs_->waxpy_binop_scalar[o](a.data(), x.data(), 1.3f, 0.7f, n);
      rhs_->waxpy_binop_scalar[o](b.data(), x.data(), 1.3f, 0.7f, n);
      EXPECT_TRUE(bit_equal(a, b)) << "waxpy_s o=" << o << " n=" << n;
    }
  }
}

TEST_P(IsaParity, AccumRowsBitEqualAllUnrollsAndMatchPerRowChain) {
  // The Schedule-IR register-blocked fold (accum_rows): every backend pair
  // AND every unroll hint must be bit-identical — unroll regroups vectors
  // across the feature axis only, never across rows — and the whole group
  // fold must equal the per-row accum chain it replaces (the protocol the
  // unroll() transform's bit-identity contract rests on).
  fg::support::Rng rng(2500);
  const std::int64_t n_src = 29;
  const std::int64_t cnt = 13;
  for (std::int64_t n : kLens) {
    const std::int64_t stride = n + 3;  // source rows wider than the span
    auto src = random_span(n_src * stride, 2600 + static_cast<std::uint64_t>(n));
    std::vector<std::int32_t> idx(static_cast<std::size_t>(cnt));
    for (auto& i : idx)
      i = static_cast<std::int32_t>(
          rng.uniform(static_cast<std::uint64_t>(n_src)));
    for (int r = 0; r < fg::simd::kNumAccum; ++r) {
      auto base = random_span(n, 2700 + static_cast<std::uint64_t>(n));
      auto want = base;  // the per-row chain cnt accum() calls would run
      for (std::int64_t i = 0; i < cnt; ++i) {
        lhs_->accum[r](want.data(),
                       src.data() +
                           static_cast<std::int64_t>(
                               idx[static_cast<std::size_t>(i)]) *
                               stride,
                       n);
      }
      for (int unroll : {1, 2, 4, 8}) {
        auto a = base, b = base;
        lhs_->accum_rows[r](a.data(), src.data(), stride, idx.data(), cnt, n,
                            unroll);
        rhs_->accum_rows[r](b.data(), src.data(), stride, idx.data(), cnt, n,
                            unroll);
        EXPECT_TRUE(bit_equal(a, b))
            << "accum_rows r=" << r << " n=" << n << " u=" << unroll;
        EXPECT_TRUE(bit_equal(a, want))
            << "accum_rows vs chain r=" << r << " n=" << n << " u=" << unroll;
      }
    }
  }
}

TEST_P(IsaParity, WaxpyRowsBitEqualAllUnrollsAndMatchPerRowChain) {
  // Weighted row-group fold (the fused attention blocked path): mul then
  // add per element, no FMA — bit-identical to the per-row axpy chain at
  // every unroll on every backend.
  fg::support::Rng rng(3500);
  const std::int64_t n_src = 29;
  const std::int64_t cnt = 13;
  for (std::int64_t n : kLens) {
    const std::int64_t stride = n + 5;
    auto src = random_span(n_src * stride, 3600 + static_cast<std::uint64_t>(n));
    auto w = random_span(cnt, 3700 + static_cast<std::uint64_t>(n));
    std::vector<std::int32_t> idx(static_cast<std::size_t>(cnt));
    for (auto& i : idx)
      i = static_cast<std::int32_t>(
          rng.uniform(static_cast<std::uint64_t>(n_src)));
    auto base = random_span(n, 3800 + static_cast<std::uint64_t>(n));
    auto want = base;
    for (std::int64_t i = 0; i < cnt; ++i) {
      lhs_->axpy(want.data(),
                 src.data() + static_cast<std::int64_t>(
                                  idx[static_cast<std::size_t>(i)]) *
                                  stride,
                 w[static_cast<std::size_t>(i)], n);
    }
    for (int unroll : {1, 2, 4, 8}) {
      auto a = base, b = base;
      lhs_->waxpy_rows(a.data(), src.data(), stride, idx.data(), w.data(), cnt,
                       n, unroll);
      rhs_->waxpy_rows(b.data(), src.data(), stride, idx.data(), w.data(), cnt,
                       n, unroll);
      EXPECT_TRUE(bit_equal(a, b)) << "waxpy_rows n=" << n << " u=" << unroll;
      EXPECT_TRUE(bit_equal(a, want))
          << "waxpy_rows vs chain n=" << n << " u=" << unroll;
    }
  }
}

TEST_P(IsaParity, GatherRowsBitEqual) {
  // The sampling subsystem's row gather is a pure copy — exact class, so
  // every backend pair must agree bit-for-bit at every row width (kLens
  // doubles as the width axis, covering the 16-lane tails and the AVX-512
  // d < 16 reroute).
  fg::support::Rng rng(1600);
  for (std::int64_t d : kLens) {
    const std::int64_t n_src = 37;
    const std::int64_t m = 23;
    auto src = random_span(n_src * d, 1700 + static_cast<std::uint64_t>(d));
    std::vector<std::int32_t> idx(static_cast<std::size_t>(m));
    for (auto& i : idx)
      i = static_cast<std::int32_t>(rng.uniform(static_cast<std::uint64_t>(n_src)));
    std::vector<float> a(static_cast<std::size_t>(m * d), -1.0f);
    std::vector<float> b(static_cast<std::size_t>(m * d), -2.0f);
    lhs_->gather_rows(a.data(), src.data(), idx.data(), m, d);
    rhs_->gather_rows(b.data(), src.data(), idx.data(), m, d);
    EXPECT_TRUE(bit_equal(a, b)) << "gather_rows d=" << d;
    if (d == 0) continue;
    // And a copy must be bitwise the source rows it names.
    for (std::int64_t i = 0; i < m; ++i) {
      EXPECT_EQ(std::memcmp(a.data() + i * d,
                            src.data() + static_cast<std::int64_t>(idx[
                                static_cast<std::size_t>(i)]) * d,
                            static_cast<std::size_t>(d) * sizeof(float)),
                0)
          << "gather_rows row " << i << " d=" << d;
    }
  }
}

TEST_P(IsaParity, HmaxMatchesExactly) {
  // Max reassociates exactly for NaN-free inputs (the softmax contract), so
  // lane-tree and sequential folds agree on the value, n = 0 (-inf identity)
  // included.
  for (std::int64_t n : kLens) {
    auto x = random_span(n, 1100 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(lhs_->hmax(x.data(), n), rhs_->hmax(x.data(), n))
        << "hmax n=" << n;
  }
}

TEST_P(IsaParity, ExpScaleMatchesWithinTolerance) {
  // Like dot, exp_scale is the documented approximate primitive: the vector
  // backends run a ~2 ulp polynomial exp and reassociate the denominator
  // sum, so cross-backend agreement is relative-tolerance, not bitwise.
  for (std::int64_t n : kLens) {
    auto base = random_span(n, 1200 + static_cast<std::uint64_t>(n));
    auto a = base, b = base;
    const float sa = lhs_->exp_scale(a.data(), -0.3f, n);
    const float sb = rhs_->exp_scale(b.data(), -0.3f, n);
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(a[static_cast<std::size_t>(j)],
                  b[static_cast<std::size_t>(j)],
                  1e-6f + 1e-6f * std::fabs(b[static_cast<std::size_t>(j)]))
          << "exp_scale n=" << n << " j=" << j;
    }
    EXPECT_NEAR(sa, sb, 1e-6f + 1e-5f * std::fabs(sb)) << "sum n=" << n;
  }
}

TEST_P(IsaParity, DotMatchesWithinTolerance) {
  // dot reassociates and uses FMA — approximate equality only.
  for (std::int64_t n : kLens) {
    auto a = random_span(n, 600 + static_cast<std::uint64_t>(n));
    auto b = random_span(n, 700 + static_cast<std::uint64_t>(n));
    const float want = lhs_->dot(a.data(), b.data(), n);
    const float got = rhs_->dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-4f + 1e-5f * static_cast<float>(n))
        << "dot n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, IsaParity,
                         ::testing::ValuesIn(all_isa_pairs()), pair_name);

TEST(Simd, NarrowSpansRouteAvx512ToAvx2BitIdentically) {
  // The narrow-span dispatch fix (BENCH_kernels.json's d=8 regression): a
  // span with n < 16 never fills a 512-bit vector, so the AVX-512 table
  // reroutes it to the AVX2 backend. That makes EVERY primitive —
  // including the tolerance-class dot / exp_scale / hmax, which the parity
  // matrix only bounds — literally the AVX2 code on narrow spans, so the
  // two tables must agree BIT-FOR-BIT for every n in [0, 16).
  if (!fg::simd::isa_supported(Isa::kAvx512)) {
    GTEST_SKIP() << "hardware lacks AVX-512";
  }
  const SpanOps& a512 = fg::simd::span_ops(Isa::kAvx512);
  const SpanOps& a2 = fg::simd::span_ops(Isa::kAvx2);
  for (std::int64_t n = 0; n < 16; ++n) {
    auto base = random_span(n, 1300 + static_cast<std::uint64_t>(n));
    auto x = random_span(n, 1400 + static_cast<std::uint64_t>(n));
    auto y = random_span(n, 1500 + static_cast<std::uint64_t>(n));

    auto a = base, b = base;
    a512.fill(a.data(), 0.5f, n);
    a2.fill(b.data(), 0.5f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "fill n=" << n;

    a = base, b = base;
    a512.scale(a.data(), -2.5f, n);
    a2.scale(b.data(), -2.5f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "scale n=" << n;

    a = base, b = base;
    a512.relu(a.data(), n);
    a2.relu(b.data(), n);
    EXPECT_TRUE(bit_equal(a, b)) << "relu n=" << n;

    a = base, b = base;
    a512.axpy(a.data(), x.data(), 0.7f, n);
    a2.axpy(b.data(), x.data(), 0.7f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "axpy n=" << n;

    a = base, b = base;
    a512.leaky_relu(a.data(), 0.01f, n);
    a2.leaky_relu(b.data(), 0.01f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "leaky_relu n=" << n;

    a = base, b = base;
    a512.bias_relu(a.data(), x.data(), n);
    a2.bias_relu(b.data(), x.data(), n);
    EXPECT_TRUE(bit_equal(a, b)) << "bias_relu n=" << n;

    // The tolerance-class primitives: bitwise on narrow spans post-reroute.
    const float d512 = a512.dot(x.data(), y.data(), n);
    const float d2 = a2.dot(x.data(), y.data(), n);
    EXPECT_EQ(std::memcmp(&d512, &d2, sizeof(float)), 0) << "dot n=" << n;
    EXPECT_EQ(a512.hmax(x.data(), n), a2.hmax(x.data(), n)) << "hmax n=" << n;
    a = base, b = base;
    const float s512 = a512.exp_scale(a.data(), -0.3f, n);
    const float s2 = a2.exp_scale(b.data(), -0.3f, n);
    EXPECT_TRUE(bit_equal(a, b)) << "exp_scale n=" << n;
    EXPECT_EQ(std::memcmp(&s512, &s2, sizeof(float)), 0)
        << "exp_scale sum n=" << n;

    for (int r = 0; r < fg::simd::kNumAccum; ++r) {
      a = base, b = base;
      a512.accum[r](a.data(), x.data(), n);
      a2.accum[r](b.data(), x.data(), n);
      EXPECT_TRUE(bit_equal(a, b)) << "accum r=" << r << " n=" << n;
      for (int o = 0; o < fg::simd::kNumBinOp; ++o) {
        a = base, b = base;
        a512.accum_binop[r][o](a.data(), x.data(), y.data(), n);
        a2.accum_binop[r][o](b.data(), x.data(), y.data(), n);
        EXPECT_TRUE(bit_equal(a, b)) << "binop r=" << r << " o=" << o;
        a = base, b = base;
        a512.accum_binop_scalar[r][o](a.data(), x.data(), 1.3f, n);
        a2.accum_binop_scalar[r][o](b.data(), x.data(), 1.3f, n);
        EXPECT_TRUE(bit_equal(a, b)) << "binop_s r=" << r << " o=" << o;
      }
    }
    for (int o = 0; o < fg::simd::kNumBinOp; ++o) {
      a = base, b = base;
      a512.waxpy_binop[o](a.data(), x.data(), y.data(), 0.7f, n);
      a2.waxpy_binop[o](b.data(), x.data(), y.data(), 0.7f, n);
      EXPECT_TRUE(bit_equal(a, b)) << "waxpy o=" << o << " n=" << n;
      a = base, b = base;
      a512.waxpy_binop_scalar[o](a.data(), x.data(), 1.3f, 0.7f, n);
      a2.waxpy_binop_scalar[o](b.data(), x.data(), 1.3f, 0.7f, n);
      EXPECT_TRUE(bit_equal(a, b)) << "waxpy_s o=" << o << " n=" << n;
    }
  }
}

TEST(Simd, NarrowFeatureSpmmIsBitIdenticalAcrossReroutedBackends) {
  // Kernel-level lockdown of the reroute: the d=8 SpMM that exposed the
  // regression (spmm_copy_u_sum_d8_narrow) must produce bit-identical
  // results on the AVX-512 table before and after routing — i.e. equal to
  // the AVX2 backend, which equals scalar by the accumulation contract.
  if (!fg::simd::isa_supported(Isa::kAvx512)) {
    GTEST_SKIP() << "hardware lacks AVX-512";
  }
  const auto coo = fg::graph::gen_rmat(512, 9.0, 77);
  const auto in_csr = fg::graph::coo_to_in_csr(coo);
  const auto x = fg::tensor::Tensor::randn({in_csr.num_cols, 8}, 78);
  const fg::core::SpmmOperands ops{&x, nullptr, nullptr};
  fg::tensor::Tensor results[2];
  int i = 0;
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    fg::simd::ScopedIsa pin(isa);
    results[i++] = fg::core::spmm(in_csr, "copy_u", "sum", {}, ops);
  }
  ASSERT_EQ(results[0].numel(), results[1].numel());
  EXPECT_EQ(std::memcmp(results[0].data(), results[1].data(),
                        static_cast<std::size_t>(results[0].numel()) *
                            sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Dispatcher / fallback-chain behavior
// ---------------------------------------------------------------------------

TEST(Simd, ActiveIsaRespectsForce) {
  fg::simd::force_isa(Isa::kScalar);
  EXPECT_EQ(fg::simd::active_isa(), Isa::kScalar);
  fg::simd::clear_forced_isa();
  for (const Isa isa : fg::simd::supported_isas()) {
    fg::simd::ScopedIsa pin(isa);
    EXPECT_EQ(fg::simd::active_isa(), isa) << fg::simd::isa_name(isa);
  }
}

TEST(Simd, ScopedIsaRestoresOuterPinWhenNested) {
  if (!fg::simd::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2";
  fg::simd::ScopedIsa outer(Isa::kScalar);
  {
    fg::simd::ScopedIsa inner(Isa::kAvx2);
    EXPECT_EQ(fg::simd::active_isa(), Isa::kAvx2);
  }
  // The inner pin's destruction must restore the OUTER pin, not drop to
  // env/auto detection (which would silently be a vector backend here).
  EXPECT_EQ(fg::simd::active_isa(), Isa::kScalar);
}

TEST(Simd, FallbackDegradesOneStepNotToScalar) {
  // The chain avx512 -> avx2 -> scalar, pinned for every hardware
  // combination this can run on:
  //  * no AVX2:          everything lands on scalar.
  //  * AVX2, no AVX-512: an avx512 request lands on avx2 — NOT scalar.
  //  * AVX-512:          every level resolves to itself.
  const Isa eff512 = fg::simd::effective_isa(Isa::kAvx512);
  const Isa eff2 = fg::simd::effective_isa(Isa::kAvx2);
  EXPECT_EQ(fg::simd::effective_isa(Isa::kScalar), Isa::kScalar);
  if (fg::simd::cpu_supports_avx512()) {
    EXPECT_EQ(eff512, Isa::kAvx512);
  } else if (fg::simd::cpu_supports_avx2()) {
    EXPECT_EQ(eff512, Isa::kAvx2) << "avx512 must degrade one step to avx2";
  } else {
    EXPECT_EQ(eff512, Isa::kScalar);
  }
  EXPECT_EQ(eff2, fg::simd::cpu_supports_avx2() ? Isa::kAvx2 : Isa::kScalar);

  // span_ops(Isa) must hand back the table of the degraded level, and
  // active_isa() under a force must agree with effective_isa.
  EXPECT_EQ(fg::simd::span_ops(Isa::kAvx512).fill,
            fg::simd::span_ops(eff512).fill);
  EXPECT_EQ(fg::simd::span_ops(Isa::kAvx2).fill,
            fg::simd::span_ops(eff2).fill);
  {
    fg::simd::ScopedIsa pin(Isa::kAvx512);
    EXPECT_EQ(fg::simd::active_isa(), eff512);
  }
}

TEST(Simd, SupportedLevelsHaveDistinctTables) {
  // Each genuinely supported level must resolve to its own backend; an
  // unsupported level must alias its fallback's table.
  const SpanOps& scalar = fg::simd::span_ops(Isa::kScalar);
  const SpanOps& avx2 = fg::simd::span_ops(Isa::kAvx2);
  const SpanOps& avx512 = fg::simd::span_ops(Isa::kAvx512);
  if (fg::simd::cpu_supports_avx2()) {
    EXPECT_NE(avx2.fill, scalar.fill);
  } else {
    EXPECT_EQ(avx2.fill, scalar.fill);
  }
  if (fg::simd::cpu_supports_avx512()) {
    EXPECT_NE(avx512.fill, scalar.fill);
    EXPECT_NE(avx512.fill, avx2.fill);
  } else {
    EXPECT_EQ(avx512.fill, avx2.fill);  // one-step fallback, whatever avx2 is
  }
}

TEST(Simd, TailLanesRaiseNoSpuriousFpFlags) {
  // Masked-off tail lanes must be computation-free, FP status flags
  // included: a full-width div on zero-filled dead lanes would raise
  // FE_INVALID (0/0) on one backend only, breaking observable parity for
  // callers that poll fetestexcept. All inputs here are finite and nonzero,
  // so a clean run must leave INVALID/DIVBYZERO clear on every backend.
  // n = 9 leaves a tail on every width but is narrow for AVX-512 (it runs
  // the AVX2 code); n = 25 runs the AVX-512 masked tail itself.
  for (const std::int64_t n : {std::int64_t{9}, std::int64_t{25}}) {
    std::vector<float> base(n, 2.0f), x(n, 4.0f), y(n, 8.0f);
    const std::vector<std::int32_t> idx = {0, 0, 0};
    const std::vector<float> w = {0.5f, 0.25f, 2.0f};
    for (const Isa isa : fg::simd::supported_isas()) {
      const SpanOps& ops = fg::simd::span_ops(isa);
      std::feclearexcept(FE_ALL_EXCEPT);
      auto out = base;
      for (int r = 0; r < fg::simd::kNumAccum; ++r) {
        ops.accum[r](out.data(), x.data(), n);
        for (int o = 0; o < fg::simd::kNumBinOp; ++o) {
          ops.accum_binop[r][o](out.data(), x.data(), y.data(), n);
          ops.accum_binop_scalar[r][o](out.data(), x.data(), 2.0f, n);
        }
        for (const int unroll : {1, 2, 4})
          ops.accum_rows[r](out.data(), x.data(), 0, idx.data(), 3, n,
                            unroll);
      }
      ops.scale(out.data(), 0.5f, n);
      ops.relu(out.data(), n);
      ops.leaky_relu(out.data(), 0.01f, n);
      ops.bias_relu(out.data(), y.data(), n);
      ops.axpy(out.data(), x.data(), 1.5f, n);
      (void)ops.dot(x.data(), y.data(), n);
      for (int o = 0; o < fg::simd::kNumBinOp; ++o) {
        ops.waxpy_binop[o](out.data(), x.data(), y.data(), 0.5f, n);
        ops.waxpy_binop_scalar[o](out.data(), x.data(), 2.0f, 0.5f, n);
      }
      for (const int unroll : {1, 2})
        ops.waxpy_rows(out.data(), x.data(), 0, idx.data(), w.data(), 3, n,
                       unroll);
      std::vector<float> gathered(static_cast<std::size_t>(3 * n));
      ops.gather_rows(gathered.data(), x.data(), idx.data(), 3, n);
      (void)ops.hmax(x.data(), n);
      auto ex = x;
      (void)ops.exp_scale(ex.data(), -1.0f, n);
      EXPECT_EQ(std::fetestexcept(FE_INVALID | FE_DIVBYZERO), 0)
          << fg::simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(Simd, IsaNamesRoundTrip) {
  EXPECT_STREQ(fg::simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(fg::simd::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(fg::simd::isa_name(Isa::kAvx512), "avx512");
}
