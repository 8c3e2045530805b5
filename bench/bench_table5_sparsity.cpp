// Table V: sensitivity of FeatGraph CPU performance to graph sparsity for
// GCN aggregation (uniform synthetic graph, 100K * scale vertices, feature
// length 128), MKL-like vs FeatGraph.
//
// Paper headline: FeatGraph's advantage over MKL grows as the graph gets
// denser (1.10x at 99.95% sparsity -> 2.91x at 95%), because denser graphs
// have more source-row reuse for partitioning + tiling to exploit.
#include <cstdio>

#include "baselines/vendor_spmm.hpp"
#include "common.hpp"
#include "core/tuner.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::support::Table;
using fg::tensor::Tensor;

int main() {
  fb::print_banner("Table V",
                   "graph-sparsity sensitivity (GCN aggregation, uniform "
                   "graph, feat len 128, 1 thread)");
  constexpr std::int64_t kFeatLen = 128;

  Table t({"sparsity", "|V|", "|E|", "MKL-like (s)", "FeatGraph (s)",
           "speedup"});
  // Run at the paper's full vertex count (100K): the mechanism — denser
  // graphs re-read each source row more often, and partitioning + tiling
  // capture that reuse once the feature matrix (51 MB at d=128) exceeds the
  // LLC — disappears on shrunken graphs whose features fit in cache. The
  // density ladder is compressed (0.05% / 0.2% / 0.6% instead of the
  // paper's 0.05% / 0.5% / 5%) to keep single-thread sweeps tractable.
  for (double density : {0.0005, 0.002, 0.006}) {
    const auto d = fg::graph::make_uniform_density(1.0, density);
    const Tensor x = Tensor::randn({d.graph.num_vertices(), kFeatLen}, 1);
    const double mkl = fb::measure_seconds(
        [&] { (void)fg::baselines::vendor::csr_spmm(d.graph.in_csr(), x, 1); });

    const fg::core::SpmmOperands ops{&x, nullptr, nullptr};
    // Tune the partition count per input shape (the paper's methodology;
    // tuning time is excluded, amortized over epochs). A compact candidate
    // set keeps the harness fast at 60M edges.
    std::vector<fg::core::CpuSpmmSchedule> grid;
    for (int parts : {1, 8, 16}) {
      fg::core::CpuSpmmSchedule s;
      s.num_partitions = parts;
      grid.push_back(s);
    }
    const auto sched =
        fg::core::tune(fg::core::list_space(std::move(grid)),
                       fg::core::spmm_measure(d.graph.in_csr(), "copy_u",
                                              "sum", ops),
                       fg::core::Search::grid())
            .best;
    const double featgraph = fb::measure_seconds([&] {
      (void)fg::core::spmm(d.graph.in_csr(), "copy_u", "sum", sched, ops);
    });

    char sparsity[32];
    std::snprintf(sparsity, sizeof(sparsity), "%.2f%%", 100.0 * (1 - density));
    t.add_row({sparsity, std::to_string(d.graph.num_vertices()),
               std::to_string(d.graph.num_edges()), Table::num(mkl, 4),
               Table::num(featgraph, 4), fb::speedup_str(mkl, featgraph)});
  }
  t.print();
  std::printf("\npaper: 1.10x @99.95%%, 1.84x @99.5%%, 2.91x @95%% — the gap "
              "widens with density\n");
  return 0;
}
