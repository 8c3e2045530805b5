// Bulk-span SIMD engine for the CPU kernel templates (paper Sec. IV-A).
//
// FeatGraph's FDS binds the feature axis to the vector units: the sparse
// template walks edges, and for every edge visit the innermost loop sweeps a
// contiguous feature span. This header exposes that inner loop as a small
// set of span primitives — "fold this message span into the output row under
// reducer R" — behind a function pointer table selected once at runtime via
// CPU detection (the classic runtime-dispatch idiom). There are two
// implementations: portable scalar code, and one vector body per primitive
// written against a width trait (vector type, lane count, load/store,
// arithmetic, horizontal reductions and a tail policy) and instantiated for
// 8 lanes (AVX2/FMA) and 16 lanes (AVX-512). The two vector tables differ
// only in their trait; see simd.cpp and simd_body.inc.
//
// Rounding contract: for every accumulation primitive all backends perform
// the SAME IEEE operations per element in the SAME order along the feature
// axis (vector lanes never cross features, and no FMA contraction is used on
// accumulation paths), so every backend is bit-for-bit identical to scalar.
// Only `dot` — a cross-feature reduction — reassociates and uses FMA, trading
// exact reproducibility for throughput (SDDMM results are tolerance-checked,
// not bit-compared).
//
// Tail policies: the 8-lane trait peels the last n % 8 elements into scalar
// ops, exactly the scalar loop. The 16-lane trait covers the last n % 16
// elements with ONE masked vector operation (`_mm512_mask[z]_*` with a
// (1 << rem) - 1 lane mask). This does not weaken the contract: a masked lane either runs
// the identical single IEEE operation the scalar loop would run, or is
// switched off entirely — masked-off lanes are never loaded into the
// destination, and inputs for them are zero-filled (`maskz`) loads whose
// garbage results the masked store discards. No horizontal operation ever
// crosses a feature boundary, so accumulation paths stay bit-for-bit with
// scalar even on tail spans.
//
// Narrow spans (AVX-512): a span with n < 16 is pure tail — one masked
// 512-bit op loses ~2.4x to one full 256-bit AVX2 vector (the recorded
// BENCH_kernels.json d=8 regression) — so every 16-lane primitive routes
// n < 16 to its 8-lane instantiation (one-step intra-table fallback).
// Accumulation paths are unchanged bitwise (all backends already agree);
// dot/exp_scale/hmax become exactly the AVX2 results on narrow spans.
//
// Selection order: force_isa() override (tests/benches) > FEATGRAPH_SIMD env
// var ("scalar" | "avx2" | "avx512" | "auto") > runtime CPU detection.
// Requesting a level the CPU lacks degrades ONE step (avx512 -> avx2 ->
// scalar), never straight to scalar.
#pragma once

#include <cstdint>
#include <vector>

namespace featgraph::simd {

/// Instruction-set levels the dispatcher can select, ordered weakest to
/// strongest (fallback walks DOWN this ladder one step at a time).
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumIsa = 3;

/// Reduction kinds the SpMM templates accumulate with. Mean reduces as kSum
/// (the degree division happens in postprocessing).
enum class Accum : int { kSum = 0, kMax = 1, kMin = 2 };
inline constexpr int kNumAccum = 3;

/// Elementwise binary message ops (the u_op_v / u_op_e builtin family).
enum class BinOp : int { kAdd = 0, kSub = 1, kMul = 2, kDiv = 3 };
inline constexpr int kNumBinOp = 4;

/// One backend's span primitives. All spans are contiguous float ranges of
/// length n; `out` is the destination row slice the reducer folds into.
struct SpanOps {
  /// out[j] = v
  void (*fill)(float* out, float v, std::int64_t n);
  /// out[j] *= s   (mean normalization)
  void (*scale)(float* out, float s, std::int64_t n);
  /// out[j] = max(out[j], 0)   (MLP aggregation's activation)
  void (*relu)(float* out, std::int64_t n);
  /// out[j] = out[j] > 0 ? out[j] : out[j] * slope   (epilogue leaky-ReLU).
  /// Exact class: one compare + one multiply per element, lanes never cross
  /// features — bit-for-bit across backends.
  void (*leaky_relu)(float* out, float slope, std::int64_t n);
  /// out[j] = max(out[j] + b[j], 0)   (the fused bias+ReLU epilogue step).
  /// Exact class: the same IEEE add-then-max chain an accum-kSum followed by
  /// relu performs, so fusing the pair is bit-identical to running them
  /// separately.
  void (*bias_relu)(float* out, const float* b, std::int64_t n);
  /// out[j] += x[j] * s   (axpy; the MLP k-loop body)
  void (*axpy)(float* out, const float* x, float s, std::int64_t n);
  /// sum_j a[j] * b[j]   (SDDMM dot-product partial; reassociated + FMA)
  float (*dot)(const float* a, const float* b, std::int64_t n);
  /// out[j] = R(out[j], x[j])
  void (*accum[kNumAccum])(float* out, const float* x, std::int64_t n);
  /// out[j] = R(out[j], a[j] op b[j])
  void (*accum_binop[kNumAccum][kNumBinOp])(float* out, const float* a,
                                            const float* b, std::int64_t n);
  /// out[j] = R(out[j], a[j] op s)   (scalar edge-weight broadcast)
  void (*accum_binop_scalar[kNumAccum][kNumBinOp])(float* out, const float* a,
                                                   float s, std::int64_t n);

  // --- attention primitives (fused SDDMM -> softmax -> SpMM engine) --------

  /// max_j x[j]; -inf for n == 0 (the softmax row max). Max is associative,
  /// so vector-lane reduction matches the sequential scalar fold bit-for-bit
  /// for NaN-free inputs (the only inputs the softmax contract admits); ±0
  /// ties may differ in sign only.
  float (*hmax)(const float* x, std::int64_t n);
  /// io[j] = exp(io[j] + shift); returns the sum of the NEW values (the
  /// softmax denominator). Approximate like `dot`: the vector backends run a
  /// polynomial exp (~2 ulp vs libm) and reassociate the sum, so this
  /// primitive is tolerance-checked, never bit-compared, across backends.
  float (*exp_scale)(float* io, float shift, std::int64_t n);
  /// out[j] += s * (a[j] op b[j])   (attention-weighted u_op_v accumulate).
  /// Exact contract: three IEEE ops per element (op, mul, add), no FMA.
  void (*waxpy_binop[kNumBinOp])(float* out, const float* a, const float* b,
                                 float s, std::int64_t n);
  /// out[j] += s * (a[j] op c)   (attention-weighted u_op_e scalar form).
  void (*waxpy_binop_scalar[kNumBinOp])(float* out, const float* a, float c,
                                        float s, std::int64_t n);

  // --- sampling primitives (minibatch block inference, src/sample) ---------

  /// out[i*d + j] = src[idx[i]*d + j] for i in [0, m), j in [0, d): dense
  /// row gather of `m` feature rows of width `d` into a contiguous block
  /// tensor (the feature loader's inner loop). A pure copy — exact class,
  /// bit-for-bit identical across every backend.
  void (*gather_rows)(float* out, const float* src, const std::int32_t* idx,
                      std::int64_t m, std::int64_t d);

  // --- register-blocked row-group primitives (Schedule-IR unroll path) -----

  /// out[j] = R(out[j], src[idx[i]*stride + j]) folded over i = 0..cnt-1, in
  /// i order, for j in [0, n). The entire i-fold for a j keeps its running
  /// value in a vector register: ONE load and ONE store of out per call
  /// instead of one per gathered row — the register-blocking win the
  /// Schedule-IR's tile(W).unroll(U) transform buys. `unroll` is a
  /// PERFORMANCE HINT (how many accumulator vectors to keep live); results
  /// are identical for every unroll value. Rounding contract: the per-(j)
  /// combine chain is the exact sequential fold accum() would produce over
  /// the same rows in the same order — lanes never cross features, no FMA.
  void (*accum_rows[kNumAccum])(float* out, const float* src,
                                std::int64_t stride, const std::int32_t* idx,
                                std::int64_t cnt, std::int64_t n, int unroll);
  /// out[j] += w[i] * src[idx[i]*stride + j] folded over i in order (the
  /// attention-weighted copy_u row group; alpha weights live in w[0..cnt)).
  /// Two IEEE ops per (i, j): mul then add, no FMA — the same chain a
  /// per-row axpy() sequence produces.
  void (*waxpy_rows)(float* out, const float* src, std::int64_t stride,
                     const std::int32_t* idx, const float* w,
                     std::int64_t cnt, std::int64_t n, int unroll);
};

/// True when the CPU (and compiler) support the AVX2+FMA backend.
bool cpu_supports_avx2();

/// True when the CPU (and compiler) support the AVX-512 (F+DQ) backend.
bool cpu_supports_avx512();

/// True when `isa`'s backend is compiled in AND the CPU can run it. The
/// parity tests iterate all kNumIsa levels through this filter, so a fourth
/// level joins the test matrix by extending the enum.
bool isa_supported(Isa isa);

/// Every supported level, weakest first (kScalar always included) — the
/// single source of the backend axis tests and benches sweep.
std::vector<Isa> supported_isas();

/// `isa` degraded one step at a time until supported
/// (avx512 -> avx2 -> scalar) — the level span_ops(isa) actually returns.
Isa effective_isa(Isa isa);

/// The primitive table for an explicit backend. Unsupported levels fall
/// back one step at a time (kAvx512 -> kAvx2 -> kScalar), so callers can
/// always index any level.
const SpanOps& span_ops(Isa isa);

/// The active backend's table (override > env > detection).
const SpanOps& span_ops();

/// The active backend's table for a launch whose widest contiguous span is
/// `max_span_width` elements. Identical to span_ops() except that an active
/// AVX-512 table with max_span_width < 16 resolves the AVX2 table outright:
/// every span of such a launch is pure tail, and while the AVX-512 table's
/// intra-table narrow fallback already runs the AVX2 code, its per-span
/// branch is real cost in a d<16 kernel that takes it half a million times.
/// Hoisting the narrow decision to the launch (the PR-2 dispatch-hoisting
/// move, one level up) makes the narrow launch literally the AVX2 backend.
/// Results are unchanged: the fallback and the hoist pick the same code.
const SpanOps& span_ops_for_width(std::int64_t max_span_width);

/// The backend span_ops() currently resolves to.
Isa active_isa();

const char* isa_name(Isa isa);

/// Pins the active backend; used by parity tests and the scalar-vs-SIMD
/// benches. Pinning a level the hardware lacks degrades one step
/// (avx512 -> avx2 -> scalar), mirroring span_ops(Isa).
void force_isa(Isa isa);

/// Returns to env/detection-based selection.
void clear_forced_isa();

/// Raw override state for save/restore (-1 = no override, else the Isa
/// value). ScopedIsa plumbing; prefer force_isa/clear_forced_isa directly.
int forced_isa_state();
void set_forced_isa_state(int state);

/// RAII pin for tests/benches: force on construction, restore the PREVIOUS
/// override (including "none") on destruction, so pins nest correctly.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : prev_(forced_isa_state()) { force_isa(isa); }
  ~ScopedIsa() { set_forced_isa_state(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  int prev_;
};

// ---------------------------------------------------------------------------
// Enum-indexed wrappers over a RESOLVED table. The kernel templates call
// span_ops() ONCE per launch and thread the reference through the bulk-UDF
// protocol, so the per-span cost is a direct table load — no atomic load, no
// re-dispatch. Single-entry primitives need no wrapper: callers write
// `ops.fill(...)`, `ops.dot(...)` and so on.
// ---------------------------------------------------------------------------

inline void accum(const SpanOps& ops, Accum r, float* out, const float* x,
                  std::int64_t n) {
  ops.accum[static_cast<int>(r)](out, x, n);
}
inline void accum_binop(const SpanOps& ops, Accum r, BinOp op, float* out,
                        const float* a, const float* b, std::int64_t n) {
  ops.accum_binop[static_cast<int>(r)][static_cast<int>(op)](out, a, b, n);
}
inline void accum_binop_scalar(const SpanOps& ops, Accum r, BinOp op,
                               float* out, const float* a, float s,
                               std::int64_t n) {
  ops.accum_binop_scalar[static_cast<int>(r)][static_cast<int>(op)](out, a, s,
                                                                    n);
}
inline void waxpy_binop(const SpanOps& ops, BinOp op, float* out,
                        const float* a, const float* b, float s,
                        std::int64_t n) {
  ops.waxpy_binop[static_cast<int>(op)](out, a, b, s, n);
}
inline void waxpy_binop_scalar(const SpanOps& ops, BinOp op, float* out,
                               const float* a, float c, float s,
                               std::int64_t n) {
  ops.waxpy_binop_scalar[static_cast<int>(op)](out, a, c, s, n);
}
inline void accum_rows(const SpanOps& ops, Accum r, float* out,
                       const float* src, std::int64_t stride,
                       const std::int32_t* idx, std::int64_t cnt,
                       std::int64_t n, int unroll) {
  ops.accum_rows[static_cast<int>(r)](out, src, stride, idx, cnt, n, unroll);
}

// (No active-table convenience forms: a one-off span outside a kernel
// launch calls span_ops() itself, keeping the per-span re-dispatch pattern
// impossible to reintroduce by accident.)

}  // namespace featgraph::simd
