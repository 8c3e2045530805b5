// Span primitive backends: portable scalar, plus one vector body per
// primitive (simd_body.inc) instantiated for 8 lanes (AVX2/FMA) and 16 lanes
// (AVX-512).
//
// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt): the compiler must not fuse the mul+add in axpy /
// accum_binop into FMA on one backend but not the other, or the bit-for-bit
// cross-backend contract of simd.hpp breaks. `dot` and the exp polynomial
// use explicit FMA intrinsics, which contraction settings leave untouched.
// The vector body must stay in this translation unit for that flag, which
// is why it is an included .inc file and not a .cpp of its own.
//
// The two widths differ only in their trait: the 8-lane tail peels the last
// n % 8 elements into scalar ops, and the 16-lane tail covers the last
// n % 16 elements with one masked vector op (zero-filling `maskz` loads,
// write-suppressing `mask` stores), per the masked-tail contract documented
// in simd.hpp.
#include "core/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "support/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FG_X86 1
#include <immintrin.h>
#else
#define FG_X86 0
#endif

// The vector widths are compiled under `#pragma GCC target` regions, so the
// rest of the library stays at the baseline ISA (no global -mavx2: the
// binary still runs on non-AVX2 machines through the scalar table). Clang
// ignores those pragmas, so a clang build carries the scalar backend only.
#if FG_X86 && defined(__GNUC__) && !defined(__clang__)
#define FG_HAVE_VECTOR_BACKENDS 1
#else
#define FG_HAVE_VECTOR_BACKENDS 0
#endif

// The scalar backend is the measured baseline for the SIMD speedup claims;
// keep it genuinely scalar instead of letting the compiler auto-vectorize
// it into an unnamed third backend. GCC takes a function attribute; clang
// ignores that attribute, so its loops carry a vectorize(disable) pragma.
#if defined(__clang__)
#define FG_SCALAR_FN
#define FG_SCALAR_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define FG_SCALAR_FN __attribute__((optimize("no-tree-vectorize")))
#define FG_SCALAR_LOOP
#else
#define FG_SCALAR_FN
#define FG_SCALAR_LOOP
#endif

namespace featgraph::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend
// ---------------------------------------------------------------------------

namespace scalar {

inline float c_sum(float a, float b) { return a + b; }
inline float c_max(float a, float b) { return a > b ? a : b; }
inline float c_min(float a, float b) { return a < b ? a : b; }

inline float o_add(float a, float b) { return a + b; }
inline float o_sub(float a, float b) { return a - b; }
inline float o_mul(float a, float b) { return a * b; }
inline float o_div(float a, float b) { return a / b; }

FG_SCALAR_FN void fill(float* out, float v, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] = v;
}

FG_SCALAR_FN void scale(float* out, float s, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] *= s;
}

FG_SCALAR_FN void relu(float* out, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] = out[j] > 0.0f ? out[j] : 0.0f;
}

FG_SCALAR_FN void leaky_relu(float* out, float slope, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j)
    out[j] = out[j] > 0.0f ? out[j] : out[j] * slope;
}

FG_SCALAR_FN void bias_relu(float* out, const float* b, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) {
    const float t = out[j] + b[j];
    out[j] = t > 0.0f ? t : 0.0f;
  }
}

FG_SCALAR_FN void axpy(float* out, const float* x, float s, std::int64_t n) {
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) out[j] += x[j] * s;
}

FG_SCALAR_FN float dot(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

#define FG_SCALAR_ACCUM(NAME, COMBINE)                                 \
  FG_SCALAR_FN void NAME(float* out, const float* x, std::int64_t n) { \
    FG_SCALAR_LOOP                                                     \
    for (std::int64_t j = 0; j < n; ++j) out[j] = COMBINE(out[j], x[j]); \
  }

FG_SCALAR_ACCUM(accum_sum, c_sum)
FG_SCALAR_ACCUM(accum_max, c_max)
FG_SCALAR_ACCUM(accum_min, c_min)
#undef FG_SCALAR_ACCUM

#define FG_SCALAR_ACCUM_BINOP(NAME, COMBINE, OP)                    \
  FG_SCALAR_FN void NAME(float* out, const float* a, const float* b, \
                         std::int64_t n) {                          \
    FG_SCALAR_LOOP                                                  \
    for (std::int64_t j = 0; j < n; ++j)                            \
      out[j] = COMBINE(out[j], OP(a[j], b[j]));                     \
  }

FG_SCALAR_ACCUM_BINOP(accum_sum_add, c_sum, o_add)
FG_SCALAR_ACCUM_BINOP(accum_sum_sub, c_sum, o_sub)
FG_SCALAR_ACCUM_BINOP(accum_sum_mul, c_sum, o_mul)
FG_SCALAR_ACCUM_BINOP(accum_sum_div, c_sum, o_div)
FG_SCALAR_ACCUM_BINOP(accum_max_add, c_max, o_add)
FG_SCALAR_ACCUM_BINOP(accum_max_sub, c_max, o_sub)
FG_SCALAR_ACCUM_BINOP(accum_max_mul, c_max, o_mul)
FG_SCALAR_ACCUM_BINOP(accum_max_div, c_max, o_div)
FG_SCALAR_ACCUM_BINOP(accum_min_add, c_min, o_add)
FG_SCALAR_ACCUM_BINOP(accum_min_sub, c_min, o_sub)
FG_SCALAR_ACCUM_BINOP(accum_min_mul, c_min, o_mul)
FG_SCALAR_ACCUM_BINOP(accum_min_div, c_min, o_div)
#undef FG_SCALAR_ACCUM_BINOP

#define FG_SCALAR_ACCUM_BINOP_S(NAME, COMBINE, OP)                     \
  FG_SCALAR_FN void NAME(float* out, const float* a, float s,          \
                         std::int64_t n) {                             \
    FG_SCALAR_LOOP                                                     \
    for (std::int64_t j = 0; j < n; ++j) out[j] = COMBINE(out[j], OP(a[j], s)); \
  }

FG_SCALAR_ACCUM_BINOP_S(accum_sum_add_s, c_sum, o_add)
FG_SCALAR_ACCUM_BINOP_S(accum_sum_sub_s, c_sum, o_sub)
FG_SCALAR_ACCUM_BINOP_S(accum_sum_mul_s, c_sum, o_mul)
FG_SCALAR_ACCUM_BINOP_S(accum_sum_div_s, c_sum, o_div)
FG_SCALAR_ACCUM_BINOP_S(accum_max_add_s, c_max, o_add)
FG_SCALAR_ACCUM_BINOP_S(accum_max_sub_s, c_max, o_sub)
FG_SCALAR_ACCUM_BINOP_S(accum_max_mul_s, c_max, o_mul)
FG_SCALAR_ACCUM_BINOP_S(accum_max_div_s, c_max, o_div)
FG_SCALAR_ACCUM_BINOP_S(accum_min_add_s, c_min, o_add)
FG_SCALAR_ACCUM_BINOP_S(accum_min_sub_s, c_min, o_sub)
FG_SCALAR_ACCUM_BINOP_S(accum_min_mul_s, c_min, o_mul)
FG_SCALAR_ACCUM_BINOP_S(accum_min_div_s, c_min, o_div)
#undef FG_SCALAR_ACCUM_BINOP_S

FG_SCALAR_FN float hmax(const float* x, std::int64_t n) {
  float m = -std::numeric_limits<float>::infinity();
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) m = x[j] > m ? x[j] : m;
  return m;
}

FG_SCALAR_FN float exp_scale(float* io, float shift, std::int64_t n) {
  float sum = 0.0f;
  FG_SCALAR_LOOP
  for (std::int64_t j = 0; j < n; ++j) {
    const float e = std::exp(io[j] + shift);
    io[j] = e;
    sum += e;
  }
  return sum;
}

#define FG_SCALAR_WAXPY_BINOP(NAME, OP)                              \
  FG_SCALAR_FN void NAME(float* out, const float* a, const float* b, \
                         float s, std::int64_t n) {                  \
    FG_SCALAR_LOOP                                                   \
    for (std::int64_t j = 0; j < n; ++j) out[j] += OP(a[j], b[j]) * s; \
  }

FG_SCALAR_WAXPY_BINOP(waxpy_add, o_add)
FG_SCALAR_WAXPY_BINOP(waxpy_sub, o_sub)
FG_SCALAR_WAXPY_BINOP(waxpy_mul, o_mul)
FG_SCALAR_WAXPY_BINOP(waxpy_div, o_div)
#undef FG_SCALAR_WAXPY_BINOP

#define FG_SCALAR_WAXPY_BINOP_S(NAME, OP)                               \
  FG_SCALAR_FN void NAME(float* out, const float* a, float c, float s,  \
                         std::int64_t n) {                              \
    FG_SCALAR_LOOP                                                      \
    for (std::int64_t j = 0; j < n; ++j) out[j] += OP(a[j], c) * s;     \
  }

FG_SCALAR_WAXPY_BINOP_S(waxpy_add_s, o_add)
FG_SCALAR_WAXPY_BINOP_S(waxpy_sub_s, o_sub)
FG_SCALAR_WAXPY_BINOP_S(waxpy_mul_s, o_mul)
FG_SCALAR_WAXPY_BINOP_S(waxpy_div_s, o_div)
#undef FG_SCALAR_WAXPY_BINOP_S

FG_SCALAR_FN void gather_rows(float* out, const float* src,
                              const std::int32_t* idx, std::int64_t m,
                              std::int64_t d) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = src + static_cast<std::int64_t>(idx[i]) * d;
    float* dst = out + i * d;
    FG_SCALAR_LOOP
    for (std::int64_t j = 0; j < d; ++j) dst[j] = row[j];
  }
}

// Register-blocked row-group fold (Schedule-IR tile(W).unroll(U) path). The
// j-outer / i-inner nest keeps out[j]'s running value in a register across
// the whole row group; per (j) the combine chain visits i in order, which is
// exactly the fold a per-row accum() sequence produces — bit-identical to
// the flat path and to every unroll hint.
#define FG_SCALAR_ACCUM_ROWS(NAME, COMBINE)                                  \
  FG_SCALAR_FN void NAME(float* out, const float* src, std::int64_t stride,  \
                         const std::int32_t* idx, std::int64_t cnt,          \
                         std::int64_t n, int unroll) {                       \
    (void)unroll;                                                            \
    for (std::int64_t j = 0; j < n; ++j) {                                   \
      float acc = out[j];                                                    \
      FG_SCALAR_LOOP                                                         \
      for (std::int64_t i = 0; i < cnt; ++i)                                 \
        acc = COMBINE(acc,                                                   \
                      src[static_cast<std::int64_t>(idx[i]) * stride + j]);  \
      out[j] = acc;                                                          \
    }                                                                        \
  }

FG_SCALAR_ACCUM_ROWS(accum_rows_sum, c_sum)
FG_SCALAR_ACCUM_ROWS(accum_rows_max, c_max)
FG_SCALAR_ACCUM_ROWS(accum_rows_min, c_min)
#undef FG_SCALAR_ACCUM_ROWS

FG_SCALAR_FN void waxpy_rows(float* out, const float* src, std::int64_t stride,
                             const std::int32_t* idx, const float* w,
                             std::int64_t cnt, std::int64_t n, int unroll) {
  (void)unroll;
  for (std::int64_t j = 0; j < n; ++j) {
    float acc = out[j];
    FG_SCALAR_LOOP
    for (std::int64_t i = 0; i < cnt; ++i)
      acc += src[static_cast<std::int64_t>(idx[i]) * stride + j] * w[i];
    out[j] = acc;
  }
}

}  // namespace scalar

SpanOps make_scalar_ops() {
  SpanOps t;
  t.fill = scalar::fill;
  t.scale = scalar::scale;
  t.relu = scalar::relu;
  t.leaky_relu = scalar::leaky_relu;
  t.bias_relu = scalar::bias_relu;
  t.axpy = scalar::axpy;
  t.dot = scalar::dot;
  t.accum[0] = scalar::accum_sum;
  t.accum[1] = scalar::accum_max;
  t.accum[2] = scalar::accum_min;
  void (*const bin[kNumAccum][kNumBinOp])(float*, const float*, const float*,
                                          std::int64_t) = {
      {scalar::accum_sum_add, scalar::accum_sum_sub, scalar::accum_sum_mul,
       scalar::accum_sum_div},
      {scalar::accum_max_add, scalar::accum_max_sub, scalar::accum_max_mul,
       scalar::accum_max_div},
      {scalar::accum_min_add, scalar::accum_min_sub, scalar::accum_min_mul,
       scalar::accum_min_div}};
  void (*const bin_s[kNumAccum][kNumBinOp])(float*, const float*, float,
                                            std::int64_t) = {
      {scalar::accum_sum_add_s, scalar::accum_sum_sub_s,
       scalar::accum_sum_mul_s, scalar::accum_sum_div_s},
      {scalar::accum_max_add_s, scalar::accum_max_sub_s,
       scalar::accum_max_mul_s, scalar::accum_max_div_s},
      {scalar::accum_min_add_s, scalar::accum_min_sub_s,
       scalar::accum_min_mul_s, scalar::accum_min_div_s}};
  for (int r = 0; r < kNumAccum; ++r) {
    for (int o = 0; o < kNumBinOp; ++o) {
      t.accum_binop[r][o] = bin[r][o];
      t.accum_binop_scalar[r][o] = bin_s[r][o];
    }
  }
  t.hmax = scalar::hmax;
  t.exp_scale = scalar::exp_scale;
  t.waxpy_binop[0] = scalar::waxpy_add;
  t.waxpy_binop[1] = scalar::waxpy_sub;
  t.waxpy_binop[2] = scalar::waxpy_mul;
  t.waxpy_binop[3] = scalar::waxpy_div;
  t.waxpy_binop_scalar[0] = scalar::waxpy_add_s;
  t.waxpy_binop_scalar[1] = scalar::waxpy_sub_s;
  t.waxpy_binop_scalar[2] = scalar::waxpy_mul_s;
  t.waxpy_binop_scalar[3] = scalar::waxpy_div_s;
  t.gather_rows = scalar::gather_rows;
  t.accum_rows[0] = scalar::accum_rows_sum;
  t.accum_rows[1] = scalar::accum_rows_max;
  t.accum_rows[2] = scalar::accum_rows_min;
  t.waxpy_rows = scalar::waxpy_rows;
  return t;
}

// ---------------------------------------------------------------------------
// Vector backends: one body per primitive (simd_body.inc), instantiated for
// 8 and 16 lanes. Each width is a trait `W` plus a tail policy; the body is
// included into the width's namespace inside a `#pragma GCC target` region,
// so its templates and lambdas all carry that width's instruction set.
// ---------------------------------------------------------------------------

#if FG_HAVE_VECTOR_BACKENDS

// --- 8 lanes (AVX2 + FMA): the tail is a scalar peel -----------------------

#pragma GCC push_options
#pragma GCC target("avx2,fma")

namespace avx2 {

// One peeled tail element, with the scalar backend's own ops — so the
// peel is exactly the scalar loop, FP flags included. fold_fmadd stays an
// unfused mul + add, and fold_max keeps the scalar hmax's operand order.
struct PeelLane {
  static float load(const float* p) { return *p; }
  static void store(float* p, float v) { *p = v; }
  static float set1(float v) { return v; }
  static float zero() { return 0.0f; }
  static float add(float a, float b) { return a + b; }
  static float sub(float a, float b) { return a - b; }
  static float mul(float a, float b) { return a * b; }
  static float div(float a, float b) { return a / b; }
  static float max(float a, float b) { return scalar::c_max(a, b); }
  static float min(float a, float b) { return scalar::c_min(a, b); }
  static float select_gt(float a, float b, float t, float f) {
    return a > b ? t : f;
  }
  static float fold_add(float acc, float x) { return acc + x; }
  static float fold_max(float acc, float x) { return x > acc ? x : acc; }
  static float fold_fmadd(float a, float b, float acc) { return acc + a * b; }
};

// _mm256_max_ps(a, b) computes a > b ? a : b (returns b on NaN/±0 ties),
// exactly the scalar reducer combines — NaN behavior included.
struct W {
  using V = __m256;
  static constexpr std::int64_t kLanes = 8;
  static constexpr bool kNarrowToAvx2 = false;

  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V set1(float v) { return _mm256_set1_ps(v); }
  static V zero() { return _mm256_setzero_ps(); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static V select_gt(V a, V b, V t, V f) {
    return _mm256_blendv_ps(f, t, _mm256_cmp_ps(a, b, _CMP_GT_OQ));
  }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_ps(a, b, c); }
  static V fold_add(V acc, V x) { return add(acc, x); }
  static V fold_max(V acc, V x) { return max(acc, x); }
  static V fold_fmadd(V a, V b, V acc) { return fmadd(a, b, acc); }

  static float hsum(V v) {
    __m128 lo = _mm_add_ps(_mm256_castps256_ps128(v),
                           _mm256_extractf128_ps(v, 1));
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    return _mm_cvtss_f32(lo);
  }
  static float hmax(V v) {
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(v),
                           _mm256_extractf128_ps(v, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
    return _mm_cvtss_f32(lo);
  }

  static __m256i round_int(V x) { return _mm256_cvtps_epi32(x); }
  static V to_float(__m256i n) { return _mm256_cvtepi32_ps(n); }
  static V pow2(__m256i n) {  // 2^n through the exponent field
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  }

  template <class Step>
  static void tail(std::int64_t j, std::int64_t n, Step step) {
    for (; j < n; ++j) step(j, PeelLane{});
  }
  // Reduce the vector accumulator first, then fold the peeled elements
  // into the scalar result one by one.
  template <class Step, class Reduce>
  static float reduce_tail(V acc, std::int64_t j, std::int64_t n, Step step,
                           Reduce reduce) {
    float r = reduce(acc);
    for (; j < n; ++j) r = step(j, PeelLane{}, r);
    return r;
  }
};

#include "core/simd_body.inc"

}  // namespace avx2

#pragma GCC pop_options

// --- 16 lanes (AVX-512 F + DQ): the tail is one masked op ------------------

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")

namespace avx512 {

// The live lanes of the last n % 16 elements. Loads zero-fill the dead
// lanes (maskz), stores skip them, and arithmetic runs in maskz form, so
// the live lanes execute exactly the one IEEE op the scalar loop would and
// the dead lanes raise no FP flag (EVEX masking suppresses it; a full-width
// div would evaluate 0/0 on them and raise FE_INVALID). The fold_*
// reduction steps use the merge form instead: dead lanes keep the running
// accumulator.
struct Masked {
  __mmask16 m;

  __m512 load(const float* p) const { return _mm512_maskz_loadu_ps(m, p); }
  void store(float* p, __m512 v) const { _mm512_mask_storeu_ps(p, m, v); }
  static __m512 set1(float v) { return _mm512_set1_ps(v); }
  static __m512 zero() { return _mm512_setzero_ps(); }
  __m512 add(__m512 a, __m512 b) const { return _mm512_maskz_add_ps(m, a, b); }
  __m512 sub(__m512 a, __m512 b) const { return _mm512_maskz_sub_ps(m, a, b); }
  __m512 mul(__m512 a, __m512 b) const { return _mm512_maskz_mul_ps(m, a, b); }
  __m512 div(__m512 a, __m512 b) const { return _mm512_maskz_div_ps(m, a, b); }
  __m512 max(__m512 a, __m512 b) const { return _mm512_maskz_max_ps(m, a, b); }
  __m512 min(__m512 a, __m512 b) const { return _mm512_maskz_min_ps(m, a, b); }
  __m512 select_gt(__m512 a, __m512 b, __m512 t, __m512 f) const {
    return _mm512_mask_mov_ps(f, _mm512_mask_cmp_ps_mask(m, a, b, _CMP_GT_OQ),
                              t);
  }
  __m512 fold_add(__m512 acc, __m512 x) const {
    return _mm512_mask_add_ps(acc, m, acc, x);
  }
  __m512 fold_max(__m512 acc, __m512 x) const {
    return _mm512_mask_max_ps(acc, m, acc, x);
  }
  __m512 fold_fmadd(__m512 a, __m512 b, __m512 acc) const {
    return _mm512_mask3_fmadd_ps(a, b, acc, m);
  }
};

// _mm512_max_ps/_mm512_min_ps keep the SSE operand-order contract (return
// the second operand on NaN / ±0 ties), matching the scalar `a > b ? a : b`
// reducer combines — NaN behavior included.
struct W {
  using V = __m512;
  static constexpr std::int64_t kLanes = 16;
  // n < 16 never fills one vector: the masked tail would be the whole op,
  // ~2.4x slower than one full 256-bit AVX2 vector.
  static constexpr bool kNarrowToAvx2 = true;

  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static V set1(float v) { return _mm512_set1_ps(v); }
  static V zero() { return _mm512_setzero_ps(); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static V min(V a, V b) { return _mm512_min_ps(a, b); }
  static V select_gt(V a, V b, V t, V f) {
    return _mm512_mask_mov_ps(f, _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ), t);
  }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V fnmadd(V a, V b, V c) { return _mm512_fnmadd_ps(a, b, c); }
  static V fold_add(V acc, V x) { return add(acc, x); }
  static V fold_max(V acc, V x) { return max(acc, x); }
  static V fold_fmadd(V a, V b, V acc) { return fmadd(a, b, acc); }

  // The reduce pseudo-ops pair lanes without doubling any of them, so a
  // discarded lane never raises an overflow flag the real sums don't.
  static float hsum(V v) { return _mm512_reduce_add_ps(v); }
  static float hmax(V v) { return _mm512_reduce_max_ps(v); }

  static __m512i round_int(V x) { return _mm512_cvtps_epi32(x); }
  static V to_float(__m512i n) { return _mm512_cvtepi32_ps(n); }
  static V pow2(__m512i n) {  // 2^n through the exponent field
    return _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
  }

  static Masked tail_lanes(std::int64_t rem) {
    return Masked{static_cast<__mmask16>((1u << rem) - 1u)};
  }
  template <class Step>
  static void tail(std::int64_t j, std::int64_t n, Step step) {
    if (j < n) step(j, tail_lanes(n - j));
  }
  // Fold the masked tail into the vector accumulator, then reduce.
  template <class Step, class Reduce>
  static float reduce_tail(V acc, std::int64_t j, std::int64_t n, Step step,
                           Reduce reduce) {
    if (j < n) acc = step(j, tail_lanes(n - j), acc);
    return reduce(acc);
  }
};

#include "core/simd_body.inc"

}  // namespace avx512

#pragma GCC pop_options

#endif  // FG_HAVE_VECTOR_BACKENDS

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::atomic<int> g_forced_isa{-1};  // -1 = no override

// Active table pointer, re-resolved only when the override changes: the
// span_ops() wrappers run once per edge visit inside the kernels, so the
// hot path must be one relaxed load, not the detection/env/static-guard
// chain.
std::atomic<const SpanOps*> g_active_ops{nullptr};

Isa env_or_detected_isa() {
  static const Isa isa = [] {
    const std::string pref =
        support::env_string("FEATGRAPH_SIMD", "auto");
    if (pref == "scalar") return Isa::kScalar;
    if (pref == "avx2") return effective_isa(Isa::kAvx2);
    if (pref == "avx512") return effective_isa(Isa::kAvx512);
    if (pref != "auto") {
      // A typo'd value ("Scalar", "off", ...) silently running the vector
      // backend is the opposite of the user's intent — warn once.
      std::fprintf(stderr,
                   "featgraph: unknown FEATGRAPH_SIMD=\"%s\" "
                   "(expected scalar|avx2|avx512|auto), using auto\n",
                   pref.c_str());
    }
    // "auto": the strongest level the CPU runs, walking the ladder down.
    return effective_isa(Isa::kAvx512);
  }();
  return isa;
}

}  // namespace

bool cpu_supports_avx2() {
#if FG_HAVE_VECTOR_BACKENDS
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if FG_HAVE_VECTOR_BACKENDS
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512dq");
  return ok;
#else
  return false;
#endif
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_supports_avx2();
    case Isa::kAvx512:
      return cpu_supports_avx512();
  }
  return false;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> isas;
  for (int i = 0; i < kNumIsa; ++i) {
    if (isa_supported(static_cast<Isa>(i))) isas.push_back(static_cast<Isa>(i));
  }
  return isas;
}

Isa effective_isa(Isa isa) {
  // One rung at a time: an avx512 request on an AVX2-only machine still
  // gets the vector backend, not the scalar floor.
  if (isa == Isa::kAvx512 && !cpu_supports_avx512()) isa = Isa::kAvx2;
  if (isa == Isa::kAvx2 && !cpu_supports_avx2()) isa = Isa::kScalar;
  return isa;
}

const SpanOps& span_ops(Isa isa) {
  static const SpanOps scalar_table = make_scalar_ops();
  isa = effective_isa(isa);
#if FG_HAVE_VECTOR_BACKENDS
  if (isa == Isa::kAvx512) {
    static const SpanOps avx512_table = avx512::make_ops();
    return avx512_table;
  }
  if (isa == Isa::kAvx2) {
    static const SpanOps avx2_table = avx2::make_ops();
    return avx2_table;
  }
#else
  (void)isa;
#endif
  return scalar_table;
}

const SpanOps& span_ops() {
  // Acquire pairs with the release publications below: a thread that only
  // sees the pointer (and never ran the table's static initialization
  // itself) must also see the table's contents.
  const SpanOps* t = g_active_ops.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = &span_ops(active_isa());
    // CAS, not a plain store: a concurrent force_isa() pin must not be
    // clobbered by this first-call initialization losing the race.
    const SpanOps* expected = nullptr;
    if (!g_active_ops.compare_exchange_strong(expected, t,
                                              std::memory_order_release,
                                              std::memory_order_acquire)) {
      t = expected;
    }
  }
  return *t;
}

const SpanOps& span_ops_for_width(std::int64_t max_span_width) {
  const Isa active = effective_isa(active_isa());
  if (active == Isa::kAvx512 && max_span_width >= 0 && max_span_width < 16) {
    // Every span of this launch is pure tail: resolve the AVX2 table once
    // instead of paying the intra-table narrow branch per span. (kAvx2
    // degrades to scalar through span_ops(Isa) if somehow unsupported.)
    return span_ops(Isa::kAvx2);
  }
  return span_ops();
}

Isa active_isa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return effective_isa(static_cast<Isa>(forced));
  return env_or_detected_isa();
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void force_isa(Isa isa) { set_forced_isa_state(static_cast<int>(isa)); }

void clear_forced_isa() { set_forced_isa_state(-1); }

int forced_isa_state() { return g_forced_isa.load(std::memory_order_relaxed); }

void set_forced_isa_state(int state) {
  g_forced_isa.store(state, std::memory_order_relaxed);
  g_active_ops.store(&span_ops(active_isa()), std::memory_order_release);
}

}  // namespace featgraph::simd
