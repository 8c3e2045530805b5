// FeatGraph — a flexible and efficient backend for graph neural network
// systems (C++ reproduction of Hu et al., SC 2020).
//
// Umbrella header: includes the full public API.
//
//   graph::Graph / datasets      graph substrate & evaluation datasets
//   core::spmm / core::sddmm     generalized sparse templates + builtin UDFs
//   core::attention              fused SDDMM -> edge-softmax -> SpMM kernel
//   core::CpuSpmmSchedule etc.   two-level schedules (template half + FDS)
//   core::tune                   schedule tuner: grid or climb over a Space
//   gpusim::*                    GPU execution-model simulator kernels
//   baselines::*                 Ligra-, MKL-, Gunrock-, cuSPARSE-style comparators
//   minidgl::*                   miniature GNN framework (GCN/GraphSage/GAT)
//   sample::*                    minibatch neighbor sampling, MFG blocks,
//                                feature gather, pipelined serving loop
//   serve::*                     multi-tenant front-end: request coalescing,
//                                admission server, hot-vertex feature cache
#pragma once

#include "core/attention.hpp"
#include "core/schedule.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "core/udf.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/hilbert.hpp"
#include "graph/partition.hpp"
#include "graph/reorder.hpp"
#include "sample/block.hpp"
#include "sample/feature_loader.hpp"
#include "sample/neighbor_sampler.hpp"
#include "sample/pipeline.hpp"
#include "serve/coalescer.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
