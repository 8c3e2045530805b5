// Table III: single-threaded CPU kernel performance (seconds) for
//   (a) GCN aggregation      — Ligra vs MKL-like vs FeatGraph
//   (b) MLP aggregation      — Ligra vs FeatGraph (MKL unsupported)
//   (c) dot-product attention — Ligra vs FeatGraph (MKL unsupported)
// across ogbn-proteins / reddit / rand-100K and feature lengths 32..512.
//
// Paper headline: FeatGraph 1.4-4.0x over Ligra on GCN aggregation,
// 4.4-5.5x on MLP aggregation, 4.3-6.0x on dot-product attention; vs MKL,
// faster in 14/15 GCN cells with the gap growing with feature length.
#include <cstdio>

#include "baselines/ligra.hpp"
#include "baselines/vendor_spmm.hpp"
#include "common.hpp"

namespace fb = featgraph::bench;
namespace fg = featgraph;
using fg::support::Table;
using fg::tensor::Tensor;

namespace {

fg::core::CpuSpmmSchedule tuned_schedule(const fg::graph::Csr& adj,
                                         const char* msg_op, const char* red,
                                         const fg::core::SpmmOperands& ops) {
  // A small grid (the full tuner would re-measure every candidate; the
  // interesting axes at one thread are partitions x tiles).
  std::vector<fg::core::CpuSpmmSchedule> grid;
  for (int parts : {1, 4, 16}) {
    for (std::int64_t tile : {std::int64_t{0}, std::int64_t{64}}) {
      fg::core::CpuSpmmSchedule s;
      s.num_partitions = parts;
      s.feat_tile = tile;
      grid.push_back(s);
    }
  }
  return fg::core::tune(fg::core::list_space(std::move(grid)),
                        fg::core::spmm_measure(adj, msg_op, red, ops),
                        fg::core::Search::grid())
      .best;
}

void gcn_aggregation(const std::vector<fg::graph::Dataset>& datasets) {
  std::printf("--- (a) GCN aggregation, single thread (unit: sec) ---\n");
  Table t({"dataset", "feat len", "Ligra", "MKL-like", "FeatGraph",
           "FG vs Ligra", "FG vs MKL"});
  for (const auto& d : datasets) {
    for (std::int64_t len : fb::paper_feature_lengths()) {
      const Tensor x = Tensor::randn({d.graph.num_vertices(), len}, 1);
      const double ligra = fb::measure_seconds(
          [&] { (void)fg::baselines::ligra::gcn_aggregate(d.graph, x, 1); });
      const double mkl = fb::measure_seconds([&] {
        (void)fg::baselines::vendor::csr_spmm(d.graph.in_csr(), x, 1);
      });
      const fg::core::SpmmOperands ops{&x, nullptr, nullptr};
      const auto sched = tuned_schedule(d.graph.in_csr(), "copy_u", "sum", ops);
      const double featgraph = fb::measure_seconds([&] {
        (void)fg::core::spmm(d.graph.in_csr(), "copy_u", "sum", sched, ops);
      });
      t.add_row({d.name, std::to_string(len), Table::num(ligra, 4),
                 Table::num(mkl, 4), Table::num(featgraph, 4),
                 fb::speedup_str(ligra, featgraph),
                 fb::speedup_str(mkl, featgraph)});
    }
  }
  t.print();
}

void mlp_aggregation(const std::vector<fg::graph::Dataset>& datasets) {
  std::printf("\n--- (b) MLP aggregation (d1=8), single thread (unit: sec); "
              "MKL: unsupported ---\n");
  Table t({"dataset", "feat len", "Ligra", "FeatGraph", "FG vs Ligra"});
  for (const auto& d : datasets) {
    const Tensor x = Tensor::randn({d.graph.num_vertices(), 8}, 2);
    for (std::int64_t len : fb::paper_feature_lengths()) {
      const Tensor w = Tensor::randn({8, len}, 3);
      const double ligra = fb::measure_seconds(
          [&] { (void)fg::baselines::ligra::mlp_aggregate(d.graph, x, w, 1); });
      const fg::core::SpmmOperands ops{&x, nullptr, &w};
      const auto sched = tuned_schedule(d.graph.in_csr(), "mlp", "max", ops);
      const double featgraph = fb::measure_seconds([&] {
        (void)fg::core::spmm(d.graph.in_csr(), "mlp", "max", sched, ops);
      });
      t.add_row({d.name, std::to_string(len), Table::num(ligra, 4),
                 Table::num(featgraph, 4), fb::speedup_str(ligra, featgraph)});
    }
  }
  t.print();
}

void dot_attention(const std::vector<fg::graph::Dataset>& datasets) {
  std::printf("\n--- (c) dot-product attention, single thread (unit: sec); "
              "MKL: unsupported ---\n");
  Table t({"dataset", "feat len", "Ligra", "FeatGraph", "FG vs Ligra"});
  for (const auto& d : datasets) {
    for (std::int64_t len : fb::paper_feature_lengths()) {
      const Tensor x = Tensor::randn({d.graph.num_vertices(), len}, 4);
      const double ligra = fb::measure_seconds(
          [&] { (void)fg::baselines::ligra::dot_attention(d.graph, x, 1); });
      fg::core::CpuSddmmSchedule sched;
      sched.hilbert_order = true;
      sched.reduce_tile = len > 128 ? 128 : 0;
      const double featgraph = fb::measure_seconds([&] {
        (void)fg::core::sddmm(d.graph.coo(), "dot", sched, {&x, nullptr});
      });
      t.add_row({d.name, std::to_string(len), Table::num(ligra, 4),
                 Table::num(featgraph, 4), fb::speedup_str(ligra, featgraph)});
    }
  }
  t.print();
}

}  // namespace

int main() {
  fb::print_banner("Table III", "single-threaded CPU kernel performance");
  const auto datasets_a = fg::graph::standard_datasets(fb::dataset_scale());
  gcn_aggregation(datasets_a);
  // MLP aggregation does d1 x d2 work per edge; shrink so the sweep stays
  // laptop-friendly (documented in the banner/EXPERIMENTS.md).
  const auto datasets_b = fg::graph::standard_datasets(fb::dataset_scale(0.25));
  mlp_aggregation(datasets_b);
  const auto datasets_c = fg::graph::standard_datasets(fb::dataset_scale(0.5));
  dot_attention(datasets_c);
  return 0;
}
