// Schedule-IR tuner benchmark (ISSUE 6): flat-knob grid tuning vs
// Schedule-IR grid tuning for the CPU kernels the IR can actually help —
// register-blocked feature tiles (tile(W).unroll(U) -> simd::accum_rows /
// waxpy_rows keep the output tile pinned in vector registers across a row's
// whole in-edge group) are unreachable from the flat knobs, so the IR-tuned
// winner beats the flat-tuned winner wherever the per-edge load+store of
// the output row was the bottleneck. Runs every supported ISA and splices a
// "schedule_ir" section into BENCH_kernels.json (the trajectory file
// bench_micro_kernels seeds).
//
//   $ ./bench_schedule_ir
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/schedule_ir.hpp"
#include "featgraph.hpp"

namespace fg = featgraph;
using fg::core::CpuSpmmSchedule;
using fg::simd::Isa;
using fg::tensor::Tensor;

namespace {

/// Human-readable spelling of a tuned schedule: the attached IR program, or
/// the flat knobs that won.
std::string describe(const CpuSpmmSchedule& s) {
  if (s.ir != nullptr) return s.ir->describe().empty() ? "<default>"
                                                       : s.ir->describe();
  char buf[96];
  std::snprintf(buf, sizeof buf, "flat{parts=%d, tile=%lld, lb=%s}",
                s.num_partitions, static_cast<long long>(s.feat_tile),
                s.load_balance == fg::core::LoadBalance::kNnzBalanced
                    ? "nnz"
                    : "rows");
  return buf;
}

struct RowResult {
  std::string name;
  // Parallel to the ISA list: flat-tuned best, IR-tuned best, IR winner.
  std::vector<double> flat_sec, ir_sec;
  std::vector<std::string> ir_best;
  double best_isa_speedup = 0.0;
};

}  // namespace

int main() {
  fg::bench::print_banner("schedule_ir",
                          "flat-knob grid tuner vs Schedule-IR grid tuner");
  const double scale = fg::bench::dataset_scale();
  const std::int64_t d = 64;
  const auto coo = fg::graph::gen_rmat(
      static_cast<fg::graph::vid_t>(32768 * scale * 10), 16.0, 42);
  const auto csr = fg::graph::coo_to_in_csr(coo);
  // gen_rmat rounds the vertex count up to a power of two — size the
  // feature matrix from the generated graph, not the request.
  const fg::graph::vid_t n = coo.num_src;
  const Tensor x = Tensor::randn({n, d}, 5);
  std::printf("graph: rmat n=%d nnz=%lld, feat %lld\n", n,
              static_cast<long long>(csr.nnz()), static_cast<long long>(d));

  const auto isas = fg::simd::supported_isas();
  const int reps = std::max(2, fg::support::bench_reps() - 1);

  // One kernel row: grid-search the flat list and the IR list under each
  // ISA pin with the same measure function (mean of `reps` launches per
  // candidate), then compare the winners.
  const auto run_row = [&](const char* name,
                           const fg::core::MeasureFn<CpuSpmmSchedule>&
                               measure) {
    RowResult row;
    row.name = name;
    for (const Isa isa : isas) {
      fg::simd::ScopedIsa pin(isa);
      const auto grid = [&](std::vector<CpuSpmmSchedule> cands) {
        return fg::core::tune(fg::core::list_space(std::move(cands)), measure,
                              fg::core::Search::grid());
      };
      const auto flat =
          grid(fg::core::default_spmm_candidates(d, /*num_threads=*/1));
      const auto ir = grid(fg::core::default_spmm_ir_candidates(
          d, csr.num_rows, /*num_threads=*/1));
      row.flat_sec.push_back(flat.best_seconds);
      row.ir_sec.push_back(ir.best_seconds);
      row.ir_best.push_back(describe(ir.best));
      const double sp = flat.best_seconds / ir.best_seconds;
      row.best_isa_speedup = std::max(row.best_isa_speedup, sp);
      std::printf("%-24s %-7s flat %.6f s (%s)\n", name,
                  fg::simd::isa_name(isa), flat.best_seconds,
                  describe(flat.best).c_str());
      std::printf("%-24s %-7s ir   %.6f s (%s)  -> %.2fx\n", name,
                  fg::simd::isa_name(isa), ir.best_seconds,
                  describe(ir.best).c_str(), sp);
    }
    return row;
  };

  std::vector<RowResult> rows;
  const fg::core::SpmmOperands xops{&x, nullptr, nullptr};
  rows.push_back(run_row("spmm_copy_u_sum_d64",
                         fg::core::spmm_measure(csr, "copy_u", "sum", xops,
                                                reps)));
  rows.push_back(run_row("spmm_copy_u_max_d64",
                         fg::core::spmm_measure(csr, "copy_u", "max", xops,
                                                reps)));
  fg::core::AttentionOperands aops;
  aops.src_feat = &x;
  rows.push_back(run_row("attention_copy_u_d64",
                         fg::core::attention_measure(csr, "copy_u", aops,
                                                     reps)));

  // --- splice the "schedule_ir" section --------------------------------
  std::string body = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    \"graph\": {\"generator\": \"rmat\", \"n\": %d, "
                "\"avg_degree\": 16, \"nnz\": %lld, \"feature_dim\": %lld},\n"
                "    \"tuner\": \"grid\",\n    \"threads\": 1,\n",
                n, static_cast<long long>(csr.nnz()),
                static_cast<long long>(d));
  body += buf;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RowResult& row = rows[r];
    body += "    \"" + row.name + "\": {\n";
    for (std::size_t i = 0; i < isas.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "      \"%s\": {\"flat_tuned_sec\": %.6f, "
                    "\"ir_tuned_sec\": %.6f, \"speedup\": %.2f, "
                    "\"ir_best\": \"%s\"},\n",
                    fg::simd::isa_name(isas[i]), row.flat_sec[i],
                    row.ir_sec[i], row.flat_sec[i] / row.ir_sec[i],
                    row.ir_best[i].c_str());
      body += buf;
    }
    std::snprintf(buf, sizeof buf, "      \"best_isa_speedup\": %.2f\n    }%s\n",
                  row.best_isa_speedup, r + 1 < rows.size() ? "," : "");
    body += buf;
  }
  body += "  }";
  fg::bench::splice_json_section("BENCH_kernels.json", "schedule_ir", body);
  std::printf("BENCH_kernels.json: schedule_ir section updated\n");
  return 0;
}
