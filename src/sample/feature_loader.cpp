#include "sample/feature_loader.hpp"

#include "core/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace featgraph::sample {

tensor::Tensor gather_rows(const tensor::Tensor& features,
                           const std::vector<graph::vid_t>& rows,
                           int num_threads) {
  const std::int64_t d = features.row_size();
  const auto m = static_cast<std::int64_t>(rows.size());
  tensor::Tensor out({m, d});
  if (m == 0 || d == 0) return out;
  static obs::Counter& obs_gathers =
      obs::Registry::global().counter("gather.rows.count");
  static obs::Counter& obs_bytes =
      obs::Registry::global().counter("gather.bytes.copied");
  obs_gathers.add(m);
  obs_bytes.add(m * d * static_cast<std::int64_t>(sizeof(float)));
  FG_TRACE_SCOPE("gather.rows", obs::arg("rows", m), obs::arg("d", d));
  const std::int64_t n = features.rows();
  // Dispatch hoisted per launch, width-aware like the kernel templates: a
  // d < 16 gather resolves the AVX2 table outright.
  const simd::SpanOps& ops = simd::span_ops_for_width(d);
  parallel::parallel_for_ranges(
      0, m, num_threads, [&](std::int64_t r0, std::int64_t r1) {
        // Bounds check folded into the lane (it used to be an O(m) serial
        // prefix that large multi-request gathers serialized on): each lane
        // validates its whole slice in index order BEFORE copying a byte,
        // so a bad id aborts with the same message as ever and never after
        // a partial gather of its slice.
        for (std::int64_t i = r0; i < r1; ++i) {
          const graph::vid_t r = rows[static_cast<std::size_t>(i)];
          FG_CHECK_MSG(r >= 0 && r < n, "gather row out of range");
        }
        ops.gather_rows(out.data() + r0 * d, features.data(),
                        rows.data() + r0, r1 - r0, d);
      });
  return out;
}

}  // namespace featgraph::sample
