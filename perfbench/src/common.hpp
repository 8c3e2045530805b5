// Shared pieces of the end-to-end benchmark: statistics, the span recorder
// that attributes wall time to library layers, the metric report, host
// stamps and the STREAM-triad bandwidth probe.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Seconds on the steady clock since the first call in this process.
double now_s();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 on empty input.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// CPU seconds (user + system, every thread) this process has used so far.
/// Time a hypervisor steals from the machine is not counted.
double process_cpu_s();

/// CPU seconds the calling thread has used so far.
double thread_cpu_s();

/// Host-wide CPU time in clock ticks from /proc/stat: all of it, and the
/// share a hypervisor stole from the guest's CPUs. Zeros when unreadable.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks();

/// Last-level cache size in bytes from sysfs; 0 when it cannot be read.
std::int64_t llc_bytes();

/// Sizing knobs every workload reads: full scale, or a tiny smoke scale
/// that finishes in seconds.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

// --- span recorder ------------------------------------------------------------

/// Times the benchmark's own calls into the library, from outside. Span
/// names are "<layer>.<call>"; the layer is the text before the first dot.
/// Spans are recorded on the calling thread only and may nest: a span's
/// self time is its duration minus that of the spans directly inside it.
/// When disabled, a scope costs one branch.
///
/// This is kept apart from obs::collect_spans(): the library's own spans
/// nest inside the benchmark's and fill the same per-thread buffers (65 536
/// spans by default), and a traced serve replay emits more than that, so
/// the obs buffers drop spans and self times computed from them would be
/// short.
class Spans {
 public:
  struct Record {
    const char* name;
    double t0, t1;
    int depth;
  };

  class Scope {
   public:
    Scope(Spans& s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    const char* name_;
    double t0_;
  };

  bool enabled = false;

  /// Self time per span name and per layer over every recorded span.
  std::map<std::string, double> self_by_name() const;
  std::map<std::string, double> self_by_layer() const;
  /// Self time of each recorded call of `name`, in recording order.
  std::vector<double> self_times(const std::string& name) const;
  double total_self() const;

 private:
  /// Per record, its duration minus its direct children's durations.
  std::vector<double> self_times_all() const;
  std::vector<Record> records_;
  int depth_ = 0;
};

// --- report -------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Everything a run prints. `result` metrics form the final JSON line (the
/// end-to-end set untraced, the per-layer set traced); `detail` metrics are
/// printed by name and unit before it. Checks count operations attempted
/// and failed; any failed check makes the run incorrect.
class Report {
 public:
  void result(const std::string& name, double value, const std::string& unit,
              std::int64_t samples);
  void detail(const std::string& name, double value, const std::string& unit,
              std::int64_t samples);
  void stamp(const std::string& key, const std::string& json_value);
  void stamp(const std::string& key, double value);
  void stamp_str(const std::string& key, const std::string& value);

  /// One operation attempted; `ok == false` counts it failed.
  void op(bool ok, const std::string& what_failed = "");
  /// A whole-run output check (accuracy floor, loss trend, bit-identity).
  void check(bool ok, const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && failed_checks_.empty(); }

  /// Prints the stamp and detail lines, then the final result line.
  void print(const RunConfig& cfg) const;

 private:
  std::map<std::string, Metric> result_;
  std::map<std::string, Metric> detail_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::vector<std::string> failed_checks_;
  std::vector<std::string> failed_ops_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Stamps the host: cores, active ISA, pool workers, LLC bytes.
void stamp_host(Report& r);

/// STREAM triad a = b + s * c over doubles with every array at least four
/// times the LLC, on `threads` threads; returns the best of `reps` passes
/// in GB/s (24 bytes per element, the STREAM count) and stamps the sizes.
double triad_gbps(Report& r, int threads, int reps, bool tiny);

/// True when every element of `x[0..n)` is finite.
bool all_finite(const float* x, std::int64_t n);

// --- reference job ------------------------------------------------------------

/// A fixed job that stands for the host's speed. It does, in turn, the three
/// kinds of work the workloads do: random feature-row gathers over a random
/// graph (48 MB), dense arithmetic on blocks held in cache, and a sequential
/// read of a 128 MB array. It is written here, without the library, so no
/// library change moves it, and it draws from a fixed seed, so --seed does
/// not either.
///
/// On a shared host, co-tenants take cache, memory bandwidth and core time
/// from a run in steps minutes apart, and CPU time per operation moves with
/// them (by a third between runs of the same code). Run right after each
/// measured operation, on the same host state and as many threads, this job
/// moves with it; the bounded figure is operation CPU time over the job's.
class HostRef {
 public:
  explicit HostRef(bool tiny);
  /// Runs the job once on each of `threads` threads at once (the calling
  /// thread is one of them); returns their CPU seconds, summed. Safe to
  /// call from several threads at once.
  double cpu_s(int threads);
  /// MiB the job's tables hold resident (every page is written when built).
  double resident_mib() const;

 private:
  std::int64_t n_ = 0;       // vertices of the gather graph
  std::int64_t seeds_ = 0;   // rows gathered per call
  std::int64_t blocks_ = 0;  // dense blocks multiplied per call
  std::vector<std::uint32_t> adj_;  // n_ x kRefDegree neighbour ids
  std::vector<float> feat_, weight_, stream_;
  std::atomic<std::uint64_t> calls_{0};  // picks each pass's seeds

  /// One pass of the job on the calling thread; its thread CPU seconds.
  double pass();
};

}  // namespace pb
