// Ablation: the tuner's two strategies on one real kernel. Search::grid()
// measures every candidate (the paper's naive grid search, Sec. IV-A);
// Search::climb() hill-climbs the schedule lattice under a trial budget
// (the paper's future-work item). Reports trials used and the quality of
// the found schedule across feature lengths.
#include <cstdio>

#include "common.hpp"
#include "core/tuner.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::support::Table;
using fg::tensor::Tensor;

int main() {
  fb::print_banner("Tuner ablation",
                   "grid search vs budgeted hill climbing (GCN aggregation)");
  const auto d = fg::graph::make_reddit_like(fb::dataset_scale());

  Table t({"feat len", "grid trials", "grid best (ms)", "climb trials",
           "climb best (ms)", "climb vs grid"});
  for (std::int64_t len : {std::int64_t{64}, std::int64_t{128},
                           std::int64_t{256}}) {
    const Tensor x = Tensor::randn({d.graph.num_vertices(), len}, 1);
    const fg::core::SpmmOperands ops{&x, nullptr, nullptr};

    const auto measure =
        fg::core::spmm_measure(d.graph.in_csr(), "copy_u", "sum", ops);
    const auto grid = fg::core::default_spmm_candidates(len, 1);
    const auto grid_result = fg::core::tune(fg::core::list_space(grid),
                                            measure, fg::core::Search::grid());
    const auto climb = fg::core::tune(
        fg::core::spmm_lattice(len, 1), measure,
        fg::core::Search::climb(fg::core::SmartTuneOptions{.max_trials = 10}));

    t.add_row({std::to_string(len), std::to_string(grid.size()),
               Table::num(grid_result.best_seconds * 1e3, 2),
               std::to_string(climb.trials.size()),
               Table::num(climb.best_seconds * 1e3, 2),
               fb::speedup_str(climb.best_seconds,
                               grid_result.best_seconds)});
  }
  t.print();
  std::printf("\nfuture-work claim: a budget of ~10 trials reaches grid-search "
              "quality with ~1/3 of the measurements\n");
  return 0;
}
