// featgraph_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--tiny]
//
// Runs one workload and prints its stamps and metrics; the last line of
// standard output is the result JSON. Exit status 0 when every output check
// passed, 1 when one failed, 2 on a usage error.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: featgraph_perfbench --workload "
               "<gcn-train|gat-train|sage-minibatch|serve-openloop> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: buffers of 1 MiB and more are mapped when
  // allocated and returned when freed. With glibc's default, the threshold
  // follows the sizes freed so far, and whether a batch's buffers stay in a
  // thread's heap after use depends on thread timing; the peak resident set
  // of one pipelined workload then moved by a third between runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  pb::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (cfg.seconds <= 0) return usage("--seconds must be positive");

  pb::Report report;
  pb::stamp_host(report);
  const pb::CpuTicks ticks0 = pb::cpu_ticks();
  if (cfg.workload == "gcn-train") {
    pb::run_gcn_train(cfg, report);
  } else if (cfg.workload == "gat-train") {
    pb::run_gat_train(cfg, report);
  } else if (cfg.workload == "sage-minibatch") {
    pb::run_sage_minibatch(cfg, report);
  } else if (cfg.workload == "serve-openloop") {
    pb::run_serve_openloop(cfg, report);
  } else {
    return usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  // CPU time the hypervisor took from the guest during the run: the
  // context for any run that reads slow.
  const pb::CpuTicks ticks1 = pb::cpu_ticks();
  if (ticks1.total > ticks0.total)
    report.detail("host.steal_pct",
                  100.0 * (ticks1.steal - ticks0.steal) /
                      (ticks1.total - ticks0.total),
                  "%", 1);
  report.detail("failed_frac",
                report.attempted() > 0
                    ? static_cast<double>(report.failed()) / report.attempted()
                    : 0.0,
                "ratio", report.attempted());
  report.print(cfg);
  return report.correct() ? 0 : 1;
}
